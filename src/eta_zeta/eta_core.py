"""Kernels of the paper's truncated alternating sum plus its correction term.

eta(s) is approximated by

    sum_{n=1}^{2m} (-1)^(n+1) n^(-s)
      + N^(-s) [ 1/2 + sum_{r=1}^{7} P_{2r-1} (s)_{2r-1} N^-(2r-1) ],  N = 2m + 1,

with (s)_k = s (s+1) ... (s+k-1).  The correction term is Boole's summation
formula (DLMF 24.17.2) for the alternating tail past n = 2m, so the formula
holds on the whole strip and carries two bounds: Boole's remainder for what
it leaves out (correction_term) and the rounding of the float evaluation
(sum_rounding, correction_term).  zeta_bridge.Line evaluates a vertical
line with these kernels; the only state kept here is the process's ln n
table (log_table).
"""

import cmath
import math
import operator
from collections.abc import Iterable, Iterator
from itertools import cycle, repeat

from .coefficients import p_coefficients
from .types import ComplexPoint, DomainError

# Subscripted annotations are quoted: import builds no object for them.

# The selected cutoff's share of the rounding bound (see the module docstring);
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
        raise DomainError(
            f"outside supported sigma range [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")


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
    (see zeta_bridge.Line._eval), S = 1 + int_1^N x^-sigma dx >=
    sum_{n<=2m} n^-sigma; the budget takes the cutoff search's read at m."""
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
