"""Plain-loop references of the line evaluator's arithmetic, kept outside
the library.  They import only its constants.

alternating_partial_sum is eta's partial sum as a plain per-point loop over
the real and imaginary parts, added from n = 2m down as the line evaluator
(zeta_bridge.Line) adds them, across its chunks past TERMS_KEPT too, and
dirichlet_partial_sum is zeta's, the same loop without the signs: the line
must reproduce each bit for bit, because it performs the same float
operations in the same order.  truncation_bound is Boole's bound as the
per-point code formed it before the line kept its factors per (line, m),
and backlund_bound is zeta's, formed the same way: the line must reproduce
them bit for bit too.  smallest_cutoff is the cutoff search's rule as a
plain loop over m, on either bound and partial_sum_rounding, the rounding
bound written out plainly.
"""

import math

from eta_zeta.zeta_bridge import B16, C14, C15, CUTOFF_SHARE, UNIT_ROUNDOFF


def _partial_sum(sigma, t, m, signed):
    sum_re = sum_im = 0.0
    for n in range(2 * m, 0, -1):
        ln_n = math.log(n)
        mag = (1.0 if n % 2 or not signed else -1.0) * math.exp(-sigma * ln_n)
        angle = t * ln_n
        sum_re += mag * math.cos(angle)
        sum_im += -mag * math.sin(angle)
    return complex(sum_re, sum_im)


def alternating_partial_sum(sigma, t, m):
    """sum_{n=1}^{2m} (-1)^(n+1) n^(-s), recursive summation in descending n."""
    return _partial_sum(sigma, t, m, True)


def dirichlet_partial_sum(sigma, t, m):
    """sum_{n=1}^{2m} n^(-s), recursive summation in descending n."""
    return _partial_sum(sigma, t, m, False)


def _bound_factors(sigma, t, m):
    # |(s)_15| as |(s)_13| |s + 13| |s + 14|, (s)_13 two factors at a time;
    # N^-sigma; beta = 1/N and beta times six beta^2; and z = sigma + i t
    z = complex(sigma, t)
    prod = z
    for k in range(1, 13, 2):
        prod *= (z + k) * (z + (k + 1))
    poch15 = abs(prod) * abs(z + 13.0) * abs(z + 14.0)
    b = float(2 * m + 1)
    beta = 1.0 / b
    beta2 = beta * beta
    return (poch15, math.exp(-sigma * math.log(b)),
            beta * beta2 * beta2 * beta2 * beta2 * beta2 * beta2, beta, z)


def truncation_bound(sigma, t, m):
    """Boole's bound on the truncation error at N = 2m + 1, per point, with
    N^-14 as N^-sigma, beta^13 and beta once more."""
    poch15, scale, beta13, beta, z = _bound_factors(sigma, t, m)
    return (poch15 * scale * beta13 * beta
            * min(C14 / (sigma + 14.0),
                  C15 * beta * (1.0 + abs(z + 15.0) / (sigma + 15.0))))


def backlund_bound(sigma, t, m):
    """Backlund's bound on zeta's truncation error at N = 2m + 1, per point:
    |B_16| / 16! |(s)_15| N^(-sigma-15) |s + 15| / (sigma + 15), with
    N^-15 as N^-sigma, beta^13 and beta twice more."""
    poch15, scale, beta13, beta, z = _bound_factors(sigma, t, m)
    return (poch15 * scale * beta13 * beta * beta
            * (B16 * abs(z + 15.0) / (sigma + 15.0)))


def partial_sum_rounding(sigma, t, m):
    """The partial sum's rounding bound u S (8 + |t| ln N), N = 2m + 1, with
    S = 1 + int_1^N x^-sigma dx in its plain closed form."""
    n = 2 * m + 1
    power_sum = 1.0 + (math.log(n) if sigma == 1.0
                       else (n ** (1.0 - sigma) - 1.0) / (1.0 - sigma))
    return UNIT_ROUNDOFF * power_sum * (8.0 + abs(t) * math.log(n))


def smallest_cutoff(sigma, t, bound=truncation_bound):
    """The first m = 1, 2, ... whose bound (eta's truncation_bound, or
    zeta's backlund_bound) is at most CUTOFF_SHARE of partial_sum_rounding."""
    m = 1
    while bound(sigma, t, m) > CUTOFF_SHARE * partial_sum_rounding(sigma, t, m):
        m += 1
    return m

