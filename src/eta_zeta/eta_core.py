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
import functools
import math
import operator
from collections.abc import Iterable, Iterator
from itertools import chain, cycle, islice, repeat

from .coefficients import p_coefficients
from .errors import DomainError, ParameterExhaustionError
from .gamma import TAIL_N_MAX, gamma_tail_bound
from .types import ComplexPoint, ErrorBudget, EvalResult, MethodTag

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

TERMS_KEPT = 4096  # terms whose ln n, n^(-sigma) are kept; further ones are recomputed
TAIL_BOUNDS_KEPT = 32  # cutoffs whose E(n, b) the process keeps: M_SCHEDULE and more


def dirichlet_sum(mags: Iterable[float], lns: Iterable[float], t: float) -> complex:
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


@functools.cache
def log_table() -> tuple[float, ...]:
    """ln n for n = 1..TERMS_KEPT, computed once per process, on first use."""
    return tuple(map(math.log, range(1, TERMS_KEPT + 1)))


@functools.lru_cache(maxsize=TAIL_BOUNDS_KEPT)
def tail_bounds(m: int) -> tuple[float, ...]:
    """E(n, 2m+1) for n = 0..13: the dropped kernel integrals of cutoff m.
    They depend on m alone, so the process computes them once per m, on
    first use, and every line shares the immutable tuple."""
    b = float(2 * m + 1)
    return tuple(gamma_tail_bound(n, b) for n in range(TAIL_N_MAX + 1))


def _signed_powers(sigma: float, start: int, lns: Iterable[float]) -> Iterator[float]:
    """(-1)^(n+1) n^(-sigma) for n = start, start + 1, ..., given ln n."""
    signs = cycle((1.0, -1.0) if start % 2 else (-1.0, 1.0))
    return map(operator.mul, signs, map(math.exp, map(operator.mul, repeat(-sigma), lns)))


def correction_term(s: ComplexPoint, m: int) -> complex:
    """(2m+1)^(-s) times the bracketed correction polynomial.

    The factor product for step r reuses the previous one times two new
    factors; beta powers advance by beta^2 per step.
    """
    p = p_coefficients(R_MAX)
    z = s.z
    b = float(2 * m + 1)
    beta = 1.0 / b
    bracket = complex(p[0], 0.0)
    prod = z
    beta_pow = beta
    beta2 = beta * beta
    for r in range(1, R_MAX + 1):
        if r > 1:
            prod *= (z + (2 * r - 3)) * (z + (2 * r - 2))
            beta_pow *= beta2
        bracket += p[r] * beta_pow * prod
    return cmath.exp(-z * math.log(b)) * bracket


def _assemble_budget(s: ComplexPoint, m: int,
                     correction_mag: float, tail_ratio: float) -> ErrorBudget:
    b = float(2 * m + 1)
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


class DirectLine:
    """Direct evaluation of eta along the vertical line Re s = sigma.

    What depends on sigma alone is computed on first use and kept: the
    sigma-only factors of the Stirling estimates and the signed terms
    (-1)^(n+1) n^(-sigma) up to the largest 2m asked for (at most
    TERMS_KEPT).  ln n and the tail bounds E(n, b) depend on neither sigma
    nor t and are kept per process (log_table, tail_bounds), shared by every
    line.  A point then pays only for what depends on t, with the same float
    operations in the same order as a point alone.  A line is mutable:
    create one per caller, do not share it between threads.
    """

    def __init__(self, sigma: float) -> None:
        if not SIGMA_DIRECT_MIN <= sigma <= SIGMA_DIRECT_MAX:
            raise DomainError(
                f"direct evaluation supports {SIGMA_DIRECT_MIN} <= sigma <= "
                f"{SIGMA_DIRECT_MAX}, got sigma = {sigma:g}")
        self.sigma = sigma
        self._mags: list[float] = []
        self._stirling: list[tuple[float, float, float, float]] = []

    def stirling_magnitudes(self, t: float) -> list[float]:
        """Leading-order Stirling estimates of |Gamma(x + i t)|, x = n + sigma
        for n = 0..13, up to the first that underflows to 0:
        sqrt(2 pi) e^(-x) (x^2 + t^2)^((2x-1)/4) e^(-t arctan(t/x)).
        Error estimation only (2% at x = 4, under 1% by x = 14)."""
        if not self._stirling:
            xs = [n + self.sigma for n in range(TAIL_N_MAX + 1)]
            self._stirling = [(x, math.sqrt(2.0 * math.pi) * math.exp(-x),
                               x * x, (2.0 * x - 1.0) / 4.0) for x in xs]
        atan2, exp = math.atan2, math.exp
        t2, minus_t = t * t, -t
        estimates = []
        for x, front, x2, power in self._stirling:
            # decay underflows past t ~ 500, before the power overflows (~1e19)
            decay = exp(minus_t * atan2(t, x))
            estimates.append(front * (x2 + t2) ** power * decay
                             if decay > 0.0 else 0.0)
            if not estimates[-1] > 0.0:
                break
        return estimates

    def _ratio(self, gamma_mags: list[float], m: int) -> float:
        if not gamma_mags[-1] > 0.0:
            return math.inf  # no cutoff can satisfy the ratio
        return max(map(operator.truediv, tail_bounds(m), gamma_mags))

    def tail_ratio(self, t: float, m: int) -> float:
        """Worst E(n, 2m+1) / |Gamma(n + sigma + i t)| over n = 0..13: the
        dropped-tail relative error fed into the error budget."""
        return self._ratio(self.stirling_magnitudes(t), m)

    def select(self, t: float) -> tuple[int, float]:
        """Smallest scheduled m whose tail ratio stays below TARGET_RATIO,
        with that ratio; ParameterExhaustionError when none does (t is too
        large for the schedule)."""
        gamma_mags = self.stirling_magnitudes(t)
        for m in M_SCHEDULE:
            ratio = self._ratio(gamma_mags, m)
            if ratio <= TARGET_RATIO:
                return m, ratio
        raise ParameterExhaustionError(
            f"parameter exhaustion: no scheduled m reaches ratio "
            f"{TARGET_RATIO:g} at t = {t:g} (schedule max m = {M_SCHEDULE[-1]})")

    def partial_sum(self, t: float, m: int) -> complex:
        """sum_{n=1}^{2m} (-1)^(n+1) n^(-s) at s = sigma + i t."""
        if m < 1:
            raise DomainError("m must be >= 1")
        count, mags, lns = 2 * m, self._mags, log_table()
        start, stop = len(mags) + 1, min(count, TERMS_KEPT) + 1
        if start < stop:
            mags.extend(_signed_powers(self.sigma, start,
                                       islice(lns, start - 1, stop - 1)))
        if count <= TERMS_KEPT:
            return dirichlet_sum(islice(mags, count), lns, t)
        far = range(TERMS_KEPT + 1, count + 1)  # recomputed per point, not kept
        far_mags = _signed_powers(self.sigma, far.start, map(math.log, far))
        return dirichlet_sum(chain(mags, far_mags), chain(lns, map(math.log, far)), t)

    def eval(self, t: float, m: int | None = None) -> EvalResult:
        """eta(sigma + i t) with 2m terms; m = None selects the cutoff."""
        if m is not None and m < 1:  # before tail_bounds caches an unused cutoff
            raise DomainError("m must be >= 1")
        s = ComplexPoint(self.sigma, t)
        if m is None:
            m, tail_ratio = self.select(t)
        else:
            tail_ratio = self.tail_ratio(t, m)
            if tail_ratio == math.inf:  # as in select: |Gamma| underflows
                raise ParameterExhaustionError(
                    f"parameter exhaustion: no tail ratio at t = {t:g}, m = {m}")
        correction = correction_term(s, m)
        value = self.partial_sum(t, m) + correction
        budget = _assemble_budget(s, m, abs(correction), tail_ratio)
        return EvalResult(value=value, budget=budget,
                          method=MethodTag.DIRECT26, m=m)
