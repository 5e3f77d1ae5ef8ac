"""User-facing eta and zeta over the strip -0.5 <= sigma <= 3.

eta(s) comes from the paper's formula on the whole strip (eta_core).
zeta(s) = eta(s) / (1 - 2^(1-s)) away from the exceptional points
s = 1 +/- 2 pi n i / ln 2, where that quotient is 0/0 and a stepwise
continuation through zeta(s + 2k) takes over.
"""

import cmath
import math
import operator
import sys
from itertools import repeat

from .coefficients import c_coefficient
from .errors import DomainError, NonConvergentTailError, PoleError
from .eta_core import UNIT_ROUNDOFF, DirectLine, dirichlet_sum, log_table
from .types import ComplexPoint, ErrorBudget, EvalResult, MethodTag

LN2 = math.log(2.0)
EXCEPTIONAL_SPACING = 2.0 * math.pi / LN2  # imaginary gap between zeros of 1 - 2^(1-s)

# Below this distance from an exceptional point the conversion denominator
# amplifies the eta budget past what the stepwise route delivers.
EXCEPTIONAL_DISTANCE_THRESHOLD = 1e-4
POLE_GAP = 1.0 / sys.float_info.max  # |1 - 2^(1-s)| or |s - 1| below it: s = 1

# Stepwise route: term magnitudes peak like e^(e|t|/4); past |t| = 20 the
# cancellation in double precision is no longer acceptable.
STEPWISE_T_MAX = 20.0
STEPWISE_K_MAX = 30
STEPWISE_TOL = 1e-13
# Conservative flat error envelope for a stepwise zeta value at |t| <= 20
# (inner-series residual below 1e-11 plus the cancellation floor), to which
# the budget adds 8 u |value| for values that grow like 1/(s - 1).
STEPWISE_ERR_ENVELOPE = 1e-9

# Inner Dirichlet series cutoff; the two-term tail correction leaves a
# residual under |z| N^(-sigma-1) / 12 < 1e-11 for sigma >= 2, |t| <= 20.
_INNER_N = 2000  # at most TERMS_KEPT: its ln n are read from log_table


def exceptional_distance(s: ComplexPoint) -> float:
    """Distance from s to the nearest point 1 +/- 2 pi n i / ln 2, n >= 1."""
    n = max(1, round(abs(s.t) * LN2 / (2.0 * math.pi)))
    t_exc = math.copysign(n * EXCEPTIONAL_SPACING, s.t)
    return math.hypot(s.sigma - 1.0, s.t - t_exc)


def _one_minus_two_pow(w: complex) -> complex:
    """1 - 2^w = -expm1(w ln 2), without cancelling near w = 0: with
    w ln 2 = a + ib, 1 - e^a e^(ib) = 2 sin^2(b/2) - expm1(a) cos b
    - i e^a sin b."""
    a, b = w.real * LN2, w.imag * LN2
    half_sin = math.sin(0.5 * b)
    return complex(2.0 * half_sin * half_sin - math.expm1(a) * math.cos(b),
                   -math.exp(a) * math.sin(b))


def _zeta_dirichlet_tail(z: complex) -> complex:
    """zeta(z) for Re(z) >= 1.5 by direct summation to N with a two-term
    integral tail: sum_{n<=N} n^(-z) + N^(1-z)/(z-1) - N^(-z)/2."""
    lns = log_table(_INNER_N)
    mags = map(math.exp, map(operator.mul, repeat(-z.real, _INNER_N), lns))
    big_n = complex(_INNER_N, 0.0)
    tail = big_n ** (1.0 - z) / (z - 1.0) - 0.5 * big_n ** (-z)
    return dirichlet_sum(mags, lns, z.imag) + tail


def zeta_em_stepwise(s: ComplexPoint) -> EvalResult:
    """zeta(s) for |t| <= STEPWISE_T_MAX by stepping to the right:

        zeta(s) = 1 + (2/3)^(s-1) / (s-1) - sum_{k>=1} C_k(s) [zeta(s+2k) - 1]

    The inner zeta values sit at Re >= sigma + 2 and come from the direct
    series with an integral tail.  Terms are added until two consecutive ones
    fall below STEPWISE_TOL relative to the running value, for at most
    STEPWISE_K_MAX terms.  The budget is the flat STEPWISE_ERR_ENVELOPE plus
    the rounding 8 u |value|, which dominates next to s = 1.
    """
    z = s.z
    if abs(z - 1.0) < POLE_GAP:  # 1 / (s - 1) would leave the double range
        raise PoleError("pole at s=1")
    if abs(s.t) > STEPWISE_T_MAX:
        raise DomainError("exceptional point requires stepwise path beyond "
                          f"|t|<={STEPWISE_T_MAX:g}")
    acc = 1.0 + cmath.exp((z - 1.0) * math.log(2.0 / 3.0)) / (z - 1.0)
    consecutive_small = 0
    for k in range(1, STEPWISE_K_MAX + 1):
        term = (c_coefficient(k, s)
                * (_zeta_dirichlet_tail(z + 2.0 * k) - 1.0))
        acc -= term
        if abs(term) < STEPWISE_TOL * abs(acc):
            consecutive_small += 1
            if consecutive_small >= 2:
                budget = ErrorBudget.assemble(STEPWISE_ERR_ENVELOPE,
                                              8.0 * UNIT_ROUNDOFF * abs(acc))
                return EvalResult(acc, budget, MethodTag.STEPWISE3, None)
        else:
            consecutive_small = 0
    raise NonConvergentTailError(
        f"non-convergent tail: stopping criterion not met within "
        f"{STEPWISE_K_MAX} terms")


class Line:
    """eta and zeta along the vertical line Re s = sigma, each point routed
    here, once: every point to the line's DirectLine, except zeta within
    EXCEPTIONAL_DISTANCE_THRESHOLD of an exceptional point, which takes the
    stepwise route.  m = None selects the cutoff per point.  Mutable: create
    one per caller, do not share between threads."""

    def __init__(self, sigma: float, m: int | None = None) -> None:
        self.direct = DirectLine(sigma)  # checks sigma; builds no table yet
        if m is not None and m < 1:  # refused alike on every route
            raise DomainError("m must be >= 1")
        self.m = m

    def eta(self, t: float) -> EvalResult:
        """eta(sigma + i t) on the direct route."""
        return self.direct.eval(t, self.m)

    def zeta(self, t: float) -> EvalResult:
        """zeta(sigma + i t): eta(s) / (1 - 2^(1-s)), both budget parts
        multiplied by 1 / |1 - 2^(1-s)| (as ErrorBudget.scaled would), or the
        stepwise continuation (|t| <= 20 only) within
        EXCEPTIONAL_DISTANCE_THRESHOLD of an exceptional point.  The point,
        its budget and its result are each built once."""
        s = ComplexPoint(self.direct.sigma, t)
        if exceptional_distance(s) < EXCEPTIONAL_DISTANCE_THRESHOLD:
            return zeta_em_stepwise(s)
        denominator = _one_minus_two_pow(1.0 - s.z)
        if abs(denominator) < POLE_GAP:
            raise PoleError("pole at s=1")
        value, truncation, rounding, m = self.direct._eval(s, self.m)
        scale = 1.0 / abs(denominator)
        return EvalResult(value / denominator,
                          ErrorBudget.assemble(truncation * scale, rounding * scale),
                          MethodTag.DIRECT26, m)


def eta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """eta(s) on -0.5 <= sigma <= 3 (see Line.eta); m overrides the cutoff."""
    return Line(s.sigma, m).eta(s.t)


def zeta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """zeta(s) on -0.5 <= sigma <= 3, s != 1 (see Line.zeta); m overrides
    the cutoff."""
    return Line(s.sigma, m).zeta(s.t)
