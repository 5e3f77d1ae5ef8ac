"""Complex gamma machinery, and the two gamma bounds of eta_core.kernel_tail.

log_gamma gives the functional-equation factor its Gamma (13+ significant
digits on the supported strip).  log_abs_gamma_lower bounds |Gamma(s)| from
below, upper_gamma_factor the incomplete gamma Gamma(a, b) from above.
"""

from __future__ import annotations

import cmath
import math

from .coefficients import _bernoulli_fractions
from .errors import DomainError

# Asymptotic series coefficients B_{2k} / (2k (2k-1)), k = 1..8, each rounded
# once from its exact rational.  With the argument shifted to Re >= 10 the
# truncation error sits below 1e-16 relative.
_BERNOULLI, _BERNOULLI_DEN = _bernoulli_fractions(16)
_STIRLING_COEFFS = tuple(_BERNOULLI[n] / (_BERNOULLI_DEN * n * (n - 1))
                         for n in range(2, 17, 2))
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_SHIFT_THRESHOLD = 10.0


def log_gamma(z: complex) -> complex:
    """Principal-branch log gamma for Re(z) > 0.

    Uses the Stirling asymptotic series after shifting the argument to
    Re >= 10 through log Gamma(z) = log Gamma(z+1) - log z, which is exact for
    the principal branch on the right half-plane.  Accurate to 13+ significant
    digits for 0 < Re(z) <= 60, |Im(z)| <= 180, which covers every t the
    cutoff schedule admits (about 177).  The functional-equation factor calls
    it only at 3/2 <= Re(z) <= 5/2, but at every |Im(z)| an explicit m
    reaches; there the absolute error of the log stays below
    1e-14 (1 + |Im(z)|) up to |Im(z)| = 1500 (1.8e-12 at 2 + 1500i).
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("log_gamma requires a finite argument")
    if z.real <= 0.0:
        raise DomainError("log_gamma requires Re(z) > 0; reflect first")
    shift = complex(0.0, 0.0)
    w = z
    while w.real < _SHIFT_THRESHOLD:
        shift += cmath.log(w)
        w += 1.0
    inv_w2 = 1.0 / (w * w)
    series = complex(0.0, 0.0)
    power = 1.0 / w
    for c in _STIRLING_COEFFS:
        series += c * power
        power *= inv_w2
    return (w - 0.5) * cmath.log(w) - w + _HALF_LOG_TWO_PI + series - shift


def log_abs_gamma_lower(sigma: float, t: float) -> float:
    """A lower bound on ln|Gamma(sigma + i t)|, sigma > 0: at least 0.94 of
    |Gamma| on the strip.  With z = sigma + k + i t, the least k >= 0 with
    x = Re z >= 3, ln|Gamma(s)| = ln|Gamma(z)| - sum_{j<k} ln|s + j|, and
    ln Gamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + R(z) with
    |R(z)| <= 1/(12 |z| cos^2(arg z / 2)) = 1/(6 (|z| + x)) (DLMF 5.11(ii))."""
    shift, x = 0.0, sigma
    while x < 3.0:
        shift += math.log(math.hypot(x, t))
        x += 1.0
    r = math.hypot(x, t)
    return ((x - 0.5) * math.log(r) - t * math.atan2(t, x) - x + _HALF_LOG_TWO_PI
            - 1.0 / (6.0 * (r + x)) - shift)


def upper_gamma_factor(a: float, b: float) -> float:
    """F with Gamma(a, b) = int_b^inf y^(a-1) e^(-y) dy <= b^(a-1) e^(-b) F,
    a, b > 0.  With y = b + u and c = max(a - 1, 0), (1 + u/b)^(a-1) <=
    e^(c u/b): F = 1 / (1 - c/b) for b > a - 1 (DLMF 8.10; c = a - 1 < 0
    would bound from below), else F = Gamma(a) e^b b^(1-a) from Gamma(a)."""
    if b > a - 1.0:
        return b / (b - max(a - 1.0, 0.0))
    return math.exp(math.lgamma(a) + b - (a - 1.0) * math.log(b))
