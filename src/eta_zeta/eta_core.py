"""Core evaluator: truncated alternating sum plus a correction term.

eta(s) is approximated by

    sum_{n=1}^{2m} (-1)^(n+1) n^(-s)
      + (2m+1)^(-s) [ 1/2 + sum_{r=1}^{7} P_{2r-1} beta^(2r-1)
                            prod_{k=0}^{2(r-1)} (s+k) ]

with beta = 1/(2m+1).  The correction term is the closed form of the kernel
integral left over after 2m direct terms, after two approximations whose
residuals make up the ErrorBudget: the kernel series is cut at r = 7
(series_truncation), and the integral past y = b is taken from the series
instead of the kernel (kernel_tail).
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
from .gamma import log_abs_gamma_lower, upper_gamma_factor
from .types import ComplexPoint, ErrorBudget, EvalResult, MethodTag

# Cutoff schedule: the smallest m whose kernel tail is at most TAIL_TOLERANCE
# is selected; roughly m = 40 up to t = 37 and m = 50 up to t = 50.
M_SCHEDULE = (40, 50, 65, 80, 100, 125, 150)
TAIL_TOLERANCE = 2e-13

# Depth of the correction polynomial.  The budget's series-truncation
# envelope (exponent 2 R_MAX - 1 = 13, KERNEL_SERIES_ERROR) assumes it.
R_MAX = 7
# Accuracy of the truncated kernel series itself: below 2e-8 for beta*y <= 1,
# independent of beta.
KERNEL_SERIES_ERROR = 2e-8
# (w_k, k) of kernel_tail's terms w_k b^-k Gamma(sigma + k, b): 1.5 and |P_k|
_TAIL_TERMS = tuple(zip((1.5, *map(abs, p_coefficients(R_MAX)[1:])),
                        (0, *range(1, 2 * R_MAX, 2))))

SIGMA_DIRECT_MIN = 0.5
SIGMA_DIRECT_MAX = 3.0

TERMS_KEPT = 4096  # terms whose ln n, n^(-sigma) are kept; further ones are recomputed
_LN_DOUBLE_MAX = 709.78  # ln of the largest double, rounded down
_LN_TAIL_TOLERANCE = math.log(TAIL_TOLERANCE)


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


def kernel_tail(sigma: float, t: float, m: int) -> float:
    """Bound on the error of dropping the kernel integral past y = b = 2m+1.

    After 2m terms the remainder is (b^-s / Gamma(s)) int_0^inf y^(s-1)
    e^(-y) K(y/b) dy, K(x) = 1/(1 + e^(-x)); the correction term puts the
    series 1/2 + sum_{r<=7} P_{2r-1} x^(2r-1) in place of K.  Past y = b the
    two differ by at most |K| <= 1 plus 1/2 + sum |P_{2r-1}| (y/b)^(2r-1), so
    that part is at most

        T = (b^-sigma / |Gamma(s)|) [1.5 Gamma(sigma, b)
              + sum_{r=1}^{7} |P_{2r-1}| b^-(2r-1) Gamma(sigma + 2r - 1, b)].

    With Gamma(a, b) <= b^(a-1) e^(-b) F(a, b) (gamma.upper_gamma_factor),
    T <= e^(-b) / (b |Gamma(s)|) [1.5 F(sigma, b) + sum |P_k| F(sigma + k, b)]
    over odd k <= 13, with |Gamma(s)| from below (gamma.log_abs_gamma_lower).
    In logs nothing underflows; only a T past the double range is refused.
    """
    b = float(2 * m + 1)
    ln_lead = -b - math.log(b) - log_abs_gamma_lower(sigma, t)
    bracket = sum(w * upper_gamma_factor(sigma + k, b) for w, k in _TAIL_TERMS)
    # a lead clamped to the double range overflows times the bracket (>= 1.5)
    tail = math.exp(min(ln_lead, _LN_DOUBLE_MAX)) * bracket
    if tail == math.inf:  # far past the schedule, explicit m
        raise ParameterExhaustionError(f"parameter exhaustion: the kernel tail at "
                                       f"t = {t:g}, m = {m} exceeds double range")
    return tail


class DirectLine:
    """Direct evaluation of eta along the vertical line Re s = sigma.

    What depends on sigma alone is computed on first use and kept: the
    signed terms (-1)^(n+1) n^(-sigma) up to the largest 2m asked for (at
    most TERMS_KEPT).  ln n depends on neither sigma nor t and is kept per
    process (log_table), shared by every line.  A point then pays only for
    what depends on t, with the same float operations in the same order as
    a point alone.  A line is mutable: create one per caller, do not share
    it between threads.
    """

    def __init__(self, sigma: float) -> None:
        if not SIGMA_DIRECT_MIN <= sigma <= SIGMA_DIRECT_MAX:
            raise DomainError(
                f"direct evaluation supports {SIGMA_DIRECT_MIN} <= sigma <= "
                f"{SIGMA_DIRECT_MAX}, got sigma = {sigma:g}")
        self.sigma = sigma
        self._mags: list[float] = []

    def select(self, t: float) -> tuple[int, float]:
        """Smallest scheduled m whose kernel tail is at most TAIL_TOLERANCE,
        with that tail; ParameterExhaustionError when none is (t is too
        large for the schedule)."""
        ln_gamma = log_abs_gamma_lower(self.sigma, t)
        for m in M_SCHEDULE:
            b = float(2 * m + 1)
            # T > e^(-b) / (b |Gamma(s)|): skip an m whose lead alone misses
            if -b - math.log(b) - ln_gamma < _LN_TAIL_TOLERANCE:
                tail = kernel_tail(self.sigma, t, m)
                if tail <= TAIL_TOLERANCE:
                    return m, tail
        raise ParameterExhaustionError(
            f"parameter exhaustion: no scheduled m reaches kernel tail "
            f"{TAIL_TOLERANCE:g} at t = {t:g} (schedule max m = {M_SCHEDULE[-1]})")

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
        if m is not None and m < 1:  # before any tail or term is computed
            raise DomainError("m must be >= 1")
        s = ComplexPoint(self.sigma, t)
        if m is None:
            m, tail = self.select(t)
        else:
            tail = kernel_tail(self.sigma, t, m)
        value = self.partial_sum(t, m) + correction_term(s, m)
        # Envelope for the neglected series terms: the kernel-series error
        # times the magnitude amplification of the highest kept monomial.
        # Provably above the dominant neglected (r = 8) term on the strip.
        b = float(2 * m + 1)
        series_truncation = (KERNEL_SERIES_ERROR * b ** (-s.sigma)
                             * (1.0 + abs(s.z) / b) ** (2 * R_MAX - 1))
        budget = ErrorBudget.assemble(tail, series_truncation,
                                      extrapolated=s.sigma > 1.0)
        return EvalResult(value=value, budget=budget, method=MethodTag.DIRECT26, m=m)
