"""The two gamma bounds of eta_core.kernel_tail, which picks the cutoff m:
log_abs_gamma_lower bounds |Gamma(s)| from below, upper_gamma_factor the
incomplete gamma Gamma(a, b) from above.
"""

from __future__ import annotations

import math

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


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
