"""The direct evaluator's per-point loops as they were before the line
evaluator (eta_core.DirectLine) took them over, kept as references: the line
must reproduce them bit for bit, because it performs the same float
operations in the same order."""

import math

from eta_zeta.gamma import TAIL_N_MAX, gamma_tail_bound


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
