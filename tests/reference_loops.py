"""References kept outside the library.

alternating_partial_sum is the direct evaluator's per-point loop as it was
before the line evaluator (zeta_bridge.Line) took it over: the line must
reproduce it bit for bit, because it performs the same float operations in
the same order.  truncation_bound is Boole's bound as the per-point code
formed it before the line kept its factors per (line, m): the line must
reproduce it bit for bit too.  smallest_cutoff is Line.select's rule as a
plain loop over m, on truncation_bound and partial_sum_rounding, the
rounding bound written out plainly.
log_gamma is the complex log-gamma of the functional-equation route that the
paper's formula on the whole strip replaced; its tests keep the reference.
"""

import cmath
import math

from eta_zeta import DomainError
from eta_zeta.coefficients import _bernoulli_fractions
from eta_zeta.zeta_bridge import C14, C15, CUTOFF_SHARE, UNIT_ROUNDOFF


def alternating_partial_sum(sigma, t, m):
    """sum_{n=1}^{2m} (-1)^(n+1) n^(-s), Kahan-compensated in ascending n."""
    sum_re = sum_im = carry_re = carry_im = 0.0
    sign = 1.0
    for n in range(1, 2 * m + 1):
        ln_n = math.log(n)
        mag = sign * math.exp(-sigma * ln_n)
        angle = t * ln_n
        term_re = mag * math.cos(angle)
        term_im = -mag * math.sin(angle)
        y = term_re - carry_re
        tmp = sum_re + y
        carry_re = (tmp - sum_re) - y
        sum_re = tmp
        y = term_im - carry_im
        tmp = sum_im + y
        carry_im = (tmp - sum_im) - y
        sum_im = tmp
        sign = -sign
    return complex(sum_re, sum_im)


def truncation_bound(sigma, t, m):
    """Boole's bound on the truncation error at N = 2m + 1, per point:
    |(s)_15| as |(s)_13| |s + 13| |s + 14|, (s)_13 two factors at a time,
    and N^-14 as N^-sigma, beta times six beta^2, and beta once more."""
    z = complex(sigma, t)
    prod = z
    for k in range(1, 13, 2):
        prod *= (z + k) * (z + (k + 1))
    poch15 = abs(prod) * abs(z + 13.0) * abs(z + 14.0)
    b = float(2 * m + 1)
    beta = 1.0 / b
    beta2 = beta * beta
    return (poch15 * math.exp(-sigma * math.log(b))
            * (beta * beta2 * beta2 * beta2 * beta2 * beta2 * beta2) * beta
            * min(C14 / (sigma + 14.0),
                  C15 * beta * (1.0 + abs(z + 15.0) / (sigma + 15.0))))


def partial_sum_rounding(sigma, t, m):
    """The partial sum's rounding bound u S (8 + |t| ln N), N = 2m + 1, with
    S = 1 + int_1^N x^-sigma dx in its plain closed form."""
    n = 2 * m + 1
    power_sum = 1.0 + (math.log(n) if sigma == 1.0
                       else (n ** (1.0 - sigma) - 1.0) / (1.0 - sigma))
    return UNIT_ROUNDOFF * power_sum * (8.0 + abs(t) * math.log(n))


def smallest_cutoff(sigma, t):
    """The first m = 1, 2, ... whose truncation_bound is at most
    CUTOFF_SHARE of partial_sum_rounding."""
    m = 1
    while truncation_bound(sigma, t, m) > CUTOFF_SHARE * partial_sum_rounding(sigma, t, m):
        m += 1
    return m


# Asymptotic series coefficients B_{2k} / (2k (2k-1)), k = 1..8, each rounded
# once from its exact rational.  With the argument shifted to Re >= 10 the
# truncation error sits below 1e-16 relative.
_BERNOULLI, _BERNOULLI_DEN = _bernoulli_fractions(16)
STIRLING_COEFFS = tuple(_BERNOULLI[n] / (_BERNOULLI_DEN * n * (n - 1))
                        for n in range(2, 17, 2))
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def log_gamma(z):
    """Principal-branch log gamma for Re(z) > 0, to 13+ significant digits
    for 0 < Re(z) <= 60, |Im(z)| <= 180: the Stirling series after shifting
    the argument to Re >= 10 through log Gamma(z) = log Gamma(z+1) - log z."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log_gamma requires a finite argument")
    if z.real <= 0.0:
        raise DomainError("log_gamma requires Re(z) > 0; reflect first")
    shift = 0j
    w = z
    while w.real < 10.0:
        shift += cmath.log(w)
        w += 1.0
    inv_w2 = 1.0 / (w * w)
    series = 0j
    power = 1.0 / w
    for c in STIRLING_COEFFS:
        series += c * power
        power *= inv_w2
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + series - shift
