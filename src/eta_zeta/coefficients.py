"""Correction coefficients for the alternating-series evaluator.

The logistic kernel 1/(1 + e^(-x)) = (1/2)(1 + tanh(x/2)) expands into an odd
power series

    1/2 + sum_{r>=1} P_{2r-1} x^(2r-1),   P_{2r-1} = (2^(2r) - 1) B_{2r} / (2r)!

with B_{2r} the even Bernoulli numbers.  Everything here is generated from
exact integer rationals and rounded to double precision once at the end, so
each table entry is the correctly rounded double.  The related coefficients
C_k(s) of the stepwise continuation are plain complex products.
"""

import functools
import math

from .errors import DomainError
from .types import ComplexPoint

# Subscripted annotations are quoted: import builds no object for them.


def _bernoulli_fractions(n_max: int) -> "tuple[list[int], int]":
    """B_0 .. B_n_max as integer numerators over one common denominator
    2 (n_max+1)!, via the defining recurrence sum_k binom(n+1, k) B_k = 0.
    By von Staudt-Clausen each B_n's denominator divides it, so every
    division by n+1 is exact."""
    den = 2 * math.factorial(n_max + 1)
    b = [den, -den // 2]
    for n in range(2, n_max + 1):
        if n % 2 == 1:
            b.append(0)
            continue
        q, r = divmod(-sum(math.comb(n + 1, k) * b[k] for k in range(n)), n + 1)
        assert r == 0, "B_n denominator does not divide 2 (n_max+1)!"
        b.append(q)
    return b, den


@functools.cache
def p_coefficients(r_max: int) -> "tuple[float, ...]":
    """Kernel-series coefficients p[0] = 1/2, p[r] = P_{2r-1} = (2^(2r)-1)
    B_{2r} / (2r)! for r = 1..r_max, each an exact rational rounded once by
    int/int true division."""
    b, den = _bernoulli_fractions(2 * r_max)
    p = [0.5]
    for r in range(1, r_max + 1):
        p.append((2 ** (2 * r) - 1) * b[2 * r] / (den * math.factorial(2 * r)))
    return tuple(p)


def p_coefficient_asymptotic(r: int) -> float:
    """Large-r form of p[r]: 2 (-1)^(r+1) / pi^(2r)."""
    if r < 1:
        raise DomainError("r must be >= 1")
    return 2.0 * (-1.0) ** (r + 1) / math.pi ** (2 * r)


def c_coefficient(k: int, s: ComplexPoint) -> complex:
    """Stepwise-continuation coefficient: prod_{r=0}^{2k-1}(s+r) / ((2k+1)! 2^(2k)).

    No overflow guard; callers bound k.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    z = s.z
    prod = complex(1.0, 0.0)
    for r in range(2 * k):
        prod *= z + r
    return prod / (math.factorial(2 * k + 1) * 4.0 ** k)
