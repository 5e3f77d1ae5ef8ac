"""Core evaluator: truncated alternating sum plus a correction term.

eta(s) is approximated by

    sum_{n=1}^{2m} (-1)^(n+1) n^(-s)
      + (2m+1)^(-s) [ 1/2 + sum_{r=1}^{7} P_{2r-1} beta^(2r-1)
                            prod_{k=0}^{2(r-1)} (s+k) ]

with beta = 1/(2m+1).  The correction term is the closed form of the kernel
integral left over after 2m direct terms, after three approximations whose
residuals make up the ErrorBudget: the kernel series is cut at r = 7, the
kernel integral past y = b is dropped, and the remaining integrals are
extended from [0, b] to [0, inf).
"""

from __future__ import annotations

import cmath
import math

from .coefficients import p_coefficients
from .errors import DomainError, ParameterExhaustionError
from .gamma import max_tail_ratio
from .types import ComplexPoint, ErrorBudget, EvalParams, EvalResult, MethodTag

# Cutoff schedule: the smallest m whose dropped-tail ratio meets TARGET_RATIO
# is selected; roughly m = 40 up to t = 40 and m = 50 up to t = 50.
M_SCHEDULE = (40, 50, 65, 80, 100, 125, 150)
TARGET_RATIO = 1e-7

# Depth of the correction polynomial.  The budget's series-truncation
# envelope (exponent 2 R_MAX - 1 = 13, KERNEL_SERIES_ERROR) assumes it.
R_MAX = 7
# Accuracy of the truncated kernel series itself: below 2e-8 for beta*y <= 1,
# independent of beta.
KERNEL_SERIES_ERROR = 2e-8

SIGMA_DIRECT_MIN = 0.5
SIGMA_DIRECT_MAX = 3.0


def _check_direct_sigma(s: ComplexPoint) -> None:
    if not SIGMA_DIRECT_MIN <= s.sigma <= SIGMA_DIRECT_MAX:
        raise DomainError(
            f"direct evaluation supports {SIGMA_DIRECT_MIN} <= sigma <= "
            f"{SIGMA_DIRECT_MAX}, got sigma = {s.sigma:g}")


def select_params(s: ComplexPoint) -> tuple[EvalParams, float]:
    """Smallest scheduled m whose dropped-tail ratio stays below TARGET_RATIO,
    with that ratio.

    Raises ParameterExhaustionError when even the largest scheduled cutoff
    fails, which signals that t is too large for the schedule.
    """
    for m in M_SCHEDULE:
        ratio = max_tail_ratio(s.sigma, s.t, float(2 * m + 1))
        if ratio <= TARGET_RATIO:
            return EvalParams(m=m), ratio
    raise ParameterExhaustionError(
        f"parameter exhaustion: no scheduled m reaches ratio {TARGET_RATIO:g} "
        f"at t = {s.t:g} (schedule max m = {M_SCHEDULE[-1]})")


def alternating_partial_sum(s: ComplexPoint, m: int) -> complex:
    """sum_{n=1}^{2m} (-1)^(n+1) n^(-s), Kahan-compensated in ascending n.

    Each term is exp(-sigma ln n) (cos(t ln n) - i sin(t ln n)); the fixed
    order and compensation keep the sum deterministic and hold rounding near
    one ulp even at m = 150.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    sigma, t = s.sigma, s.t
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


def correction_term(s: ComplexPoint, params: EvalParams) -> complex:
    """(2m+1)^(-s) times the bracketed correction polynomial.

    The factor product for step r reuses the previous one times two new
    factors; beta powers advance by beta^2 per step.
    """
    table = p_coefficients(R_MAX)
    z = s.z
    b = float(params.b)
    beta = params.beta
    bracket = complex(table.p[0], 0.0)
    prod = z
    beta_pow = beta
    beta2 = beta * beta
    for r in range(1, R_MAX + 1):
        if r > 1:
            prod *= (z + (2 * r - 3)) * (z + (2 * r - 2))
            beta_pow *= beta2
        bracket += table.p[r] * beta_pow * prod
    return cmath.exp(-z * math.log(b)) * bracket


def _assemble_budget(s: ComplexPoint, params: EvalParams,
                     correction_mag: float, tail_ratio: float) -> ErrorBudget:
    b = float(params.b)
    integral_tail = math.exp(-b)
    # Envelope for the neglected series terms: the kernel-series error times
    # the magnitude amplification of the highest kept monomial.  Provably
    # above the dominant neglected (r = 8) term on the supported range.
    mod_s = abs(s.z)
    series_truncation = (KERNEL_SERIES_ERROR * b ** (-s.sigma)
                         * (1.0 + mod_s / b) ** (2 * R_MAX - 1))
    dropped = tail_ratio * correction_mag
    return ErrorBudget.assemble(integral_tail, series_truncation, dropped,
                                extrapolated=s.sigma > 1.0)


def eta_raw(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """Direct evaluation of eta(s) with 2m terms; m = None selects the
    cutoff from M_SCHEDULE.

    Valid for 0.5 <= sigma <= 3; the budget is calibrated on [1/2, 1] and
    flagged extrapolated above that.
    """
    _check_direct_sigma(s)
    if m is None:
        params, tail_ratio = select_params(s)
    else:
        params = EvalParams(m=m)
        tail_ratio = max_tail_ratio(s.sigma, s.t, float(params.b))
    correction = correction_term(s, params)
    value = alternating_partial_sum(s, params.m) + correction
    budget = _assemble_budget(s, params, abs(correction), tail_ratio)
    return EvalResult(value=value, budget=budget, method=MethodTag.DIRECT26,
                      params=params)
