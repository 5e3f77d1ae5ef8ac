"""References kept outside the library.

alternating_partial_sum is the direct evaluator's per-point loop as it was
before the line evaluator (eta_core.DirectLine) took it over: the line must
reproduce it bit for bit, because it performs the same float operations in
the same order.  gamma_tail_bound and max_tail_ratio are the paper's
dropped-tail ratio E(n, b) / |Gamma(n + s)|, which chose the cutoff before
eta_core.kernel_tail replaced it; they keep the paper's design pairs.
"""

import math

from eta_zeta import DomainError

TAIL_N_MAX = 13


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


def gamma_tail_bound(n, b):
    """Closed form of the dropped integral int_b^inf y^n e^(-y) dy:

        E(n, b) = e^(-b) n! sum_{k=0}^{n} b^k / k!

    All terms are positive; the sum runs from k = n down to 0.
    """
    if not 0 <= n <= TAIL_N_MAX:
        raise DomainError(f"n supported in 0..{TAIL_N_MAX}")
    if b <= 0.0:
        raise DomainError("b must be positive")
    total = 0.0
    for k in range(n, -1, -1):
        total += b ** k / math.factorial(k)
    return math.exp(-b) * math.factorial(n) * total


def stirling_magnitude(x, t):
    """Leading-order Stirling estimate of |Gamma(x + i t)| for x >= 0.5."""
    return (math.sqrt(2.0 * math.pi) * math.exp(-x)
            * (x * x + t * t) ** ((2.0 * x - 1.0) / 4.0)
            * math.exp(-t * math.atan2(t, x)))


def max_tail_ratio(sigma, t, b):
    """Worst E(n, b) / |Gamma(n + sigma + i t)| over n = 0..13; inf once the
    Stirling estimate underflows."""
    worst = 0.0
    for n in range(TAIL_N_MAX + 1):
        gamma_mag = stirling_magnitude(n + sigma, t)
        if not gamma_mag > 0.0:
            return math.inf
        worst = max(worst, gamma_tail_bound(n, b) / gamma_mag)
    return worst
