"""eta and zeta on the strip -0.5 <= sigma <= 3 by the paper's formula

    eta(s) ~ sum_{n=1}^{2m} (-1)^(n+1) n^(-s)
             + N^(-s) [ 1/2 + sum_{r=1}^{7} P_{2r-1} (s)_{2r-1} N^-(2r-1) ],

N = 2m + 1, (s)_k = s (s+1) ... (s+k-1): Boole's summation formula (DLMF
24.17.2) for the alternating tail past n = 2m.  It holds on the whole strip
with two bounds, Boole's remainder for what it leaves out (boole_bound,
derived at correction_term) and the rounding of its float evaluation
(sum_rounding, correction_term).  The routes: Line takes each point to the
formula, with zeta(s) = eta(s) / (1 - 2^(1-s)), except zeta next to an
exceptional point s = 1 +/- 2 pi n i / ln 2, where that quotient is 0/0 and
a stepwise continuation through zeta(s + 2k) takes over.
"""

import cmath
import math
import operator
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, cycle, islice, repeat

from .coefficients import p_coefficients
from .types import (ComplexPoint, DomainError, ErrorBudget, EvalResult, MethodTag,
                    NonConvergentTailError, ParameterExhaustionError, PoleError)

# Subscripted and union annotations are quoted: import builds no object for them.

# The selected cutoff's share of the rounding bound (see Line.select);
# selection refuses |t| > T_MAX (m = 197 at -0.5 + 186i), an explicit m never.
CUTOFF_SHARE = 0.125
T_MAX = 186.0

# Depth of the correction polynomial: P_1 .. P_13, Boole's terms k <= 14.
# One table, P_1 .. P_15: the bracket reads p[0..R_MAX], C15 the entry after.
R_MAX = 7
_P = p_coefficients(R_MAX + 1)
# Boole's remainder constants C_n = sup |E_n(x)| / (2 n!) over [0, 1]: for
# even n at x = 1/2, |E_n| / 2^n with the Euler number E_14 = -199360981;
# for odd n at the ends, where E_n(0) / n! = -2 P_n, so C_15 = |P_15|.
C14 = 199360981 / (2 ** 14 * 2 * math.factorial(14))
C15 = abs(_P[R_MAX + 1])

SIGMA_MIN = -0.5
SIGMA_MAX = 3.0
UNIT_ROUNDOFF = 2.0 ** -53

TERMS_KEPT = 4096  # terms whose ln n, n^(-sigma) are kept; further ones are recomputed


def check_sigma(sigma: float) -> None:
    """Raise DomainError unless SIGMA_MIN <= sigma <= SIGMA_MAX."""
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise DomainError(f"outside supported sigma range [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")


def dirichlet_sum(mags: "Iterable[float]", lns: "Iterable[float]", t: float) -> complex:
    """sum of mag e^(-i t ln_n) over mags and lns in step, up to the shorter,
    Kahan-compensated in order: with mag = +/- n^(-sigma), a Dirichlet partial
    sum at sigma + i t, near one ulp even at 2000 terms.  A term is one
    cmath.rect; complex + and - act on each part alone: two real Kahan sums."""
    total = carry = 0j
    for term in map(cmath.rect, mags, map(operator.mul, repeat(-t), lns)):
        y = term - carry
        tmp = total + y
        carry = (tmp - total) - y
        total = tmp
    return total


_lns: "tuple[float, ...]" = ()  # the process's ln n table, see log_table


def log_table(count: int) -> "tuple[float, ...]":
    """ln n for n = 1, 2, ..., at least min(count, TERMS_KEPT) of them: the
    process's table, filled on demand (at least doubling, at most TERMS_KEPT).
    A fill swaps in a whole new tuple, so every caller holds a complete
    table; a fill lost to another thread's is only done again later."""
    global _lns
    lns = _lns
    if len(lns) < min(count, TERMS_KEPT):
        size = min(max(count, 2 * len(lns)), TERMS_KEPT)
        lns = _lns = lns + tuple(map(math.log, range(len(lns) + 1, size + 1)))
    return lns


def _signed_powers(sigma: float, start: int, lns: "Iterable[float]") -> "Iterator[float]":
    """(-1)^(n+1) n^(-sigma) for n = start, start + 1, ..., given ln n."""
    signs = cycle((1.0, -1.0) if start % 2 else (-1.0, 1.0))
    return map(operator.mul, signs, map(math.exp, map(operator.mul, repeat(-sigma), lns)))


def tail_factors(sigma: float, b: float) -> tuple:
    """The t-free inputs of sum_rounding, boole_bound and correction_term at
    N = b, in order: ln N, u S, u N^-sigma, the bracket's P_{2r-1} beta^(2r-1)
    with beta = 1/N, N^-sigma, beta^13, beta, C14 / (sigma + 14), C15 beta
    and sigma + 15, each formed as per point."""
    ln_b = math.log(b)
    x = (1.0 - sigma) * ln_b  # S = 1 + int_1^N x^-sigma dx = 1 + expm1(x) / (1 - sigma)
    power_sum = 1.0 + (math.expm1(x) / (1.0 - sigma) if x else ln_b)
    scale = math.exp(-sigma * ln_b)  # |N^-s|
    beta = beta_pow = 1.0 / b
    beta2 = beta * beta
    coeffs = []
    for p in _P[1:R_MAX + 1]:
        coeffs.append(p * beta_pow)
        beta_pow *= beta2
    beta13 = beta * beta2 * beta2 * beta2 * beta2 * beta2 * beta2
    return (ln_b, UNIT_ROUNDOFF * power_sum, UNIT_ROUNDOFF * scale, coeffs, scale,
            beta13, beta, C14 / (sigma + 14.0), C15 * beta, sigma + 15.0)


def boole_bound(poch15: float, shift15: float, factors: tuple) -> float:
    """The truncation bound of the formula (see correction_term) at the
    factors' N (tail_factors), from poch15 = |(s)_15| and shift15 =
    |s + 15|: the one bound both the cutoff's search and the budget read."""
    _, _, _, _, scale, beta13, beta, c14_share, c15_beta, sigma15 = factors
    return (poch15 * scale * beta13 * beta
            * min(c14_share, c15_beta * (1.0 + shift15 / sigma15)))


def sum_rounding(t: float, factors: tuple) -> float:
    """The partial sum's rounding bound u S (8 + |t| ln N) at the factors' N
    (see Line._eval), S = 1 + int_1^N x^-sigma dx >= sum_{n<=2m} n^-sigma;
    the budget takes the cutoff search's read at m."""
    return factors[1] * (8.0 + abs(t) * factors[0])


def correction_term(s: ComplexPoint, chain: tuple, factors: tuple) -> tuple:
    """The correction c = N^(-s) [1/2 + sum_{r<=7} P_{2r-1} (s)_{2r-1}
    N^-(2r-1)], N = 2m + 1, and a bound on its rounding, from the point's
    rising-factorial chain (s)_1, (s)_3, ..., (s)_13 and the factors at N
    (tail_factors).

    Its truncation bound, on the formula (sum plus correction against
    eta(s)), is boole_bound.  The tail past n = 2m is sum_{j>=0} (-1)^j f(j),
    f(x) = (N + x)^(-s).  Boole's summation formula (DLMF 24.17.2, h = 0,
    from 0 to infinity) writes it as (1/2) sum_{k<l} E_k(0)/k! f^(k)(0) plus
    the remainder

        R_l = 1/(2 (l-1)!) int_0^inf f^(l)(x) E~_{l-1}(-x) dx,

    E~ the periodic Euler functions.  With f^(k)(0) = (-1)^k (s)_k N^(-s-k),
    E_0(0) = 1, E_k(0) = 0 for even k >= 2 and E_k(0)/k! = -2 P_k for odd k,
    term k is P_k (s)_k N^(-s-k): the bracket holds the terms k <= 14, and
    the error is R_15.  As |E~_n| <= 2 n! C_n and int_0^inf (N+x)^(-sigma-l)
    dx = N^(1-sigma-l) / (sigma+l-1),

        |R_15| <= C14 |(s)_15| N^(-sigma-14) / (sigma + 14),

    and, as the term k = 15 plus R_16 with C15 = |P_15|,

        |R_15| <= |P_15| |(s)_15| N^(-sigma-15) (1 + |s + 15| / (sigma + 15)).

    The bound is the smaller (boole_bound).  For sigma > 0, where the series
    converges, eta equals the formula plus R_15.  Both sides are analytic in
    s for sigma > -14, where the integral converges, so the identity and the
    bound hold there too: on the whole strip, sigma <= 0 included.

    The rounding of c: term r of the bracket carries at most 8r - 4 <= 52
    roundings (coefficient, beta powers, factor products), their sum 7 more,
    each of u times B = 1/2 + sum |terms|.  N^(-s) = exp(-s ln N) is off by
    2u (|t| + |sigma|) ln N from rounding ln N and the product, and by a
    few u from exp and the last product: in all at most
    u N^-sigma B (64 + 2 (|t| + |sigma|) ln N).  Where |s| is large against
    N, B is ruled by the last terms; elsewhere it is near 1/2.

    Each factor product of the chain is the previous one times two new
    factors, and the coefficients' beta powers advance by beta^2.
    """
    ln_b, u_scale, coeffs = factors[0], factors[2], factors[3]
    bracket = complex(_P[0], 0.0)
    size = 0.5
    for term in map(operator.mul, coeffs, chain):
        bracket += term
        size += abs(term)
    rounding = u_scale * size * (64.0 + 2.0 * (abs(s.t) + abs(s.sigma)) * ln_b)
    return cmath.exp(-chain[0] * ln_b) * bracket, rounding  # chain[0] = (s)_1 = s


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
    here, once: zeta within EXCEPTIONAL_DISTANCE_THRESHOLD of an exceptional
    point to the stepwise route, whatever m, and every other point to the
    formula.  m = None selects the cutoff per point.

    What depends on sigma alone is computed on first use and kept: the
    signed terms (-1)^(n+1) n^(-sigma) up to the largest 2m asked for (at
    most TERMS_KEPT), and whether |sigma - 1|, a floor of the exceptional
    distance, is below its threshold.  So are the factors at N = 2m + 1
    (tail_factors) per m read, and the cutoff the last selection
    returned, from which the next one starts.  ln n is kept per process
    (log_table).  A point then pays only for what depends on t: one
    rising-factorial chain, the bounds its cutoff's search reads (its budget
    reuses the read at m), the partial sum and the correction, with the same
    float operations in the same order as a point alone.  A line is mutable:
    create one per caller, do not share it between threads.
    """

    def __init__(self, sigma: float, m: "int | None" = None) -> None:
        try:  # refused alike on every route, before any table
            sigma = float(sigma)
        except (TypeError, ValueError, OverflowError):  # float() refuses it
            raise DomainError(f"sigma must be a number, not {sigma!r}") from None
        check_sigma(sigma)
        try:
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
        passes.  At fixed t the bound over its share falls strictly with N, so
        every start ends at the same m.  DomainError unless t is a finite
        number, ParameterExhaustionError for |t| > T_MAX."""
        return self._bounds(ComplexPoint(self.sigma, t).t, None)[0]

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
        unless m is an integer >= 1 and t a finite number."""
        try:
            m = operator.index(m)
        except TypeError:
            raise DomainError(f"m must be an integer, not {m!r}") from None
        if m < 1:
            raise DomainError("m must be >= 1")
        return self._partial_sum(ComplexPoint(self.sigma, t).t, m)

    def _partial_sum(self, t: float, m: int) -> complex:
        """partial_sum at a t and an m already checked (eta and zeta's path)."""
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
        correction, rounding = correction_term(s, rising, factors)
        value = self._partial_sum(s.t, m) + correction
        rounding += share + 8.0 * UNIT_ROUNDOFF * abs(value)
        return value, truncation, rounding, m


def eta(s: ComplexPoint, m: "int | None" = None) -> EvalResult:
    """eta(s) on -0.5 <= sigma <= 3 (see Line.eta); m overrides the cutoff."""
    return Line(s.sigma, m).eta(s.t)


def zeta(s: ComplexPoint, m: "int | None" = None) -> EvalResult:
    """zeta(s) on -0.5 <= sigma <= 3, s != 1 (see Line.zeta); m overrides the cutoff."""
    return Line(s.sigma, m).zeta(s.t)
