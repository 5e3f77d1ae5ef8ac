"""User-facing eta and zeta over the strip -0.5 <= sigma <= 3.

eta(s) comes from the paper's formula on the whole strip, evaluated by a
Line from eta_core's kernels.  zeta(s) = eta(s) / (1 - 2^(1-s)) away from
the exceptional points s = 1 +/- 2 pi n i / ln 2, where that quotient is
0/0 and a stepwise continuation through zeta(s + 2k) takes over.
"""

import cmath
import math
import operator
import sys
from itertools import chain, islice, repeat

from . import eta_core
from .eta_core import (CUTOFF_SHARE, T_MAX, TERMS_KEPT, UNIT_ROUNDOFF, _signed_powers,
                       boole_bound, check_sigma, dirichlet_sum, log_table, sum_rounding,
                       tail_factors)
from .types import (ComplexPoint, DomainError, ErrorBudget, EvalResult, MethodTag,
                    NonConvergentTailError, ParameterExhaustionError, PoleError)

# Subscripted and union annotations are quoted: import builds no object for them.

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

    with C_k(s) = (s)_(2k) / ((2k+1)! 4^k), its rising factorial built as a
    running product over k.  The inner zeta values sit at Re >= sigma + 2
    and come from the direct series with an integral tail.  Terms are added
    until two consecutive ones fall below STEPWISE_TOL relative to the
    running value, for at most STEPWISE_K_MAX terms.  The budget is the flat
    STEPWISE_ERR_ENVELOPE plus the rounding 8 u |value|, which dominates
    next to s = 1.
    """
    z = s.z
    if abs(z - 1.0) < POLE_GAP:  # 1 / (s - 1) would leave the double range
        raise PoleError("pole at s=1")
    if abs(s.t) > STEPWISE_T_MAX:
        raise DomainError("exceptional point requires stepwise path beyond "
                          f"|t|<={STEPWISE_T_MAX:g}")
    acc = 1.0 + cmath.exp((z - 1.0) * math.log(2.0 / 3.0)) / (z - 1.0)
    rising = complex(1.0, 0.0)  # (s)_(2k)
    consecutive_small = 0
    for k in range(1, STEPWISE_K_MAX + 1):
        rising *= z + (2 * k - 2)
        rising *= z + (2 * k - 1)
        term = (rising / (math.factorial(2 * k + 1) * 4.0 ** k)
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
    here, once: every point to the paper's formula, except zeta within
    EXCEPTIONAL_DISTANCE_THRESHOLD of an exceptional point, which takes the
    stepwise route.  m = None selects the cutoff per point.

    What depends on sigma alone is computed on first use and kept: the
    signed terms (-1)^(n+1) n^(-sigma) up to the largest 2m asked for (at
    most TERMS_KEPT), and whether |sigma - 1|, a floor of the exceptional
    distance, is below its threshold.  So are the factors at N = 2m + 1
    (eta_core.tail_factors) per m read, and the cutoff the last selection
    returned, from which the next one starts.  ln n is kept per process
    (log_table).  A point then pays only for what depends on t: one
    rising-factorial chain, the bounds its cutoff's search reads (its budget
    reuses the read at m), the partial sum and the correction, with the same
    float operations in the same order as a point alone.  A line is mutable:
    create one per caller, do not share it between threads.
    """

    def __init__(self, sigma: float, m: "int | None" = None) -> None:
        check_sigma(sigma)
        try:  # refused alike on every route, before any table
            self.m = m if m is None else operator.index(m)
        except TypeError:
            raise DomainError(f"m must be an integer, not {m!r}") from None
        if self.m is not None and self.m < 1:
            raise DomainError("m must be >= 1")
        self.sigma = sigma
        self._mags: "list[float]" = []
        self._factors: "dict[int, tuple]" = {}  # tail_factors at N = 2m + 1, by m
        self._cutoff = 0  # the last selected cutoff; 0 before the first
        self._power = 1.0 / (sigma + 14.0)  # the bound falls at least like N^-(sigma + 14)
        self._near_exceptional = abs(sigma - 1.0) < EXCEPTIONAL_DISTANCE_THRESHOLD

    def select(self, t: float) -> int:
        """The smallest m >= 1 whose boole_bound is at most CUTOFF_SHARE of the
        partial sum's rounding bound u S (8 + |t| ln N) (_eval), by one search
        that reads at integer m only: from the line's last cutoff, or N >= 2|t|
        + 3, up to four jumps by the bound's local power law while they move m
        by more than one, then steps down while m - 1 passes or up until m
        passes; ParameterExhaustionError for |t| > T_MAX.  At fixed t the bound
        over its share falls strictly with N, so every start ends at the same m."""
        return self._bounds(t, None)[0]

    def _bounds(self, t: float, m: "int | None") -> tuple:
        """m, selected where None, the rising-factorial chain (s)_1, (s)_3,
        ..., (s)_13 at s = sigma + i t, and the search's read at m, N = 2m + 1
        (_excess), whose bounds the budget takes."""
        if m is None and not abs(t) <= T_MAX:
            raise ParameterExhaustionError(f"parameter exhaustion: |t| > T_MAX = {T_MAX:g}")
        z = complex(self.sigma, t)
        p3 = z * ((z + 1.0) * (z + 2.0))  # each the last times two more factors
        p5 = p3 * ((z + 3.0) * (z + 4.0))
        p7 = p5 * ((z + 5.0) * (z + 6.0))
        p9 = p7 * ((z + 7.0) * (z + 8.0))
        p11 = p9 * ((z + 9.0) * (z + 10.0))
        p13 = p11 * ((z + 11.0) * (z + 12.0))
        rising = (z, p3, p5, p7, p9, p11, p13)
        point = (t, abs(p13) * abs(z + 13.0) * abs(z + 14.0), abs(z + 15.0))
        if m:
            return m, rising, self._excess(point, m)
        m = self._cutoff or math.ceil(abs(t)) + 1
        last = self._excess(point, m)
        for _ in range(4):  # jumps, while they move m by more than one
            target = max(1, math.ceil(((2 * m + 1) * last[0] ** self._power - 1.0) / 2.0))
            if -1 <= target - m <= 1:
                break
            m, last = target, self._excess(point, target)
        while last[0] <= 1.0 and m > 1 and (lower := self._excess(point, m - 1))[0] <= 1.0:
            m, last = m - 1, lower
        while last[0] > 1.0:
            m += 1
            last = self._excess(point, m)
        self._cutoff = m
        return m, rising, last

    def _excess(self, point: tuple, m: int) -> tuple:
        """Boole's bound over its share at N = 2m + 1, from the factors kept
        per m; then the factors, the bound and the share.  point = (t,
        |(s)_15|, |s + 15|)."""
        t, poch15, shift15 = point
        factors = self._factors.get(m)
        if factors is None:
            factors = self._factors[m] = tail_factors(self.sigma, 2.0 * m + 1.0)
        bound, share = boole_bound(poch15, shift15, factors), sum_rounding(t, factors)
        return bound / (CUTOFF_SHARE * share), factors, bound, share

    def partial_sum(self, t: float, m: int) -> complex:
        """sum_{n=1}^{2m} (-1)^(n+1) n^(-s) at s = sigma + i t; DomainError
        unless m is an integer >= 1."""
        try:
            m = operator.index(m)
        except TypeError:
            raise DomainError(f"m must be an integer, not {m!r}") from None
        if m < 1:
            raise DomainError("m must be >= 1")
        count, mags, lns = 2 * m, self._mags, log_table(2 * m)
        start, stop = len(mags) + 1, min(count, TERMS_KEPT) + 1
        if start < stop:
            mags.extend(_signed_powers(self.sigma, start,
                                       islice(lns, start - 1, stop - 1)))
        if count <= TERMS_KEPT:
            return dirichlet_sum(islice(mags, count), lns, t)
        far = range(TERMS_KEPT + 1, count + 1)  # recomputed per point, not kept
        far_mags = _signed_powers(self.sigma, far.start, map(math.log, far))
        return dirichlet_sum(chain(mags, far_mags), chain(lns, map(math.log, far)), t)

    def eta(self, t: float) -> EvalResult:
        """eta(sigma + i t) by the paper's formula."""
        value, truncation, rounding, m = self._eval(ComplexPoint(self.sigma, t))
        return EvalResult(value, ErrorBudget.assemble(truncation, rounding),
                          MethodTag.DIRECT26, m)

    def zeta(self, t: float) -> EvalResult:
        """zeta(sigma + i t): eta(s) / (1 - 2^(1-s)), both budget parts
        multiplied by 1 / |1 - 2^(1-s)|, or the stepwise continuation
        (|t| <= 20 only) within EXCEPTIONAL_DISTANCE_THRESHOLD of an
        exceptional point.  A line farther than that from sigma = 1 never
        measures the distance.  The point, its budget and its result are
        each built once."""
        s = ComplexPoint(self.sigma, t)
        if (self._near_exceptional
                and exceptional_distance(s) < EXCEPTIONAL_DISTANCE_THRESHOLD):
            return zeta_em_stepwise(s)
        denominator = _one_minus_two_pow(1.0 - s.z)
        if abs(denominator) < POLE_GAP:
            raise PoleError("pole at s=1")
        value, truncation, rounding, m = self._eval(s)
        scale = 1.0 / abs(denominator)
        return EvalResult(value / denominator,
                          ErrorBudget.assemble(truncation * scale, rounding * scale),
                          MethodTag.DIRECT26, m)

    def _eval(self, s: ComplexPoint) -> "tuple[complex, float, float, int]":
        """eta's value, truncation and rounding bounds and m at s on this
        line, before any budget or result is built.

        The budget is Boole's truncation bound plus a rounding bound: the
        correction term's (correction_term), and the partial sum's.  Each
        of its terms n^(-sigma) e^(-i t ln n) is off by about u |t| ln n from
        the rounding of its phase (up to twice that where both roundings
        align, which the sum of many terms averages out) and by a few u from
        its magnitude, cosine, sine and the compensated sum.  S bounds
        sum_{n<=2m} n^-sigma, so the sum is off by at most u S (8 + |t| ln N)
        (sum_rounding); 8 u |value| more covers the last sum and a later
        division by 1 - 2^(1-s).  Both bounds are the cutoff search's read at
        m (_bounds); the correction reads its chain and factors.
        """
        m, rising, (_, factors, truncation, share) = self._bounds(s.t, self.m)
        if not truncation < math.inf:  # |s| past about 1e20, before exp(-s ln N) fails
            raise ParameterExhaustionError(f"parameter exhaustion: the truncation bound "
                                           f"at t = {s.t:g}, m = {m} exceeds double range")
        # looked up in eta_core at call time, where a tracer may wrap it
        correction, rounding = eta_core.correction_term(s, rising, factors)
        value = self.partial_sum(s.t, m) + correction
        rounding += share + 8.0 * UNIT_ROUNDOFF * abs(value)
        return value, truncation, rounding, m


def eta(s: ComplexPoint, m: "int | None" = None) -> EvalResult:
    """eta(s) on -0.5 <= sigma <= 3 (see Line.eta); m overrides the cutoff."""
    return Line(s.sigma, m).eta(s.t)


def zeta(s: ComplexPoint, m: "int | None" = None) -> EvalResult:
    """zeta(s) on -0.5 <= sigma <= 3, s != 1 (see Line.zeta); m overrides
    the cutoff."""
    return Line(s.sigma, m).zeta(s.t)
