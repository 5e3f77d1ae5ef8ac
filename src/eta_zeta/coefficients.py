"""Correction coefficients for the alternating-series evaluator.

The logistic kernel 1/(1 + e^(-x)) = (1/2)(1 + tanh(x/2)) expands into an odd
power series

    1/2 + sum_{r>=1} P_{2r-1} x^(2r-1),   P_{2r-1} = (2^(2r) - 1) B_{2r} / (2r)!

with B_{2r} the even Bernoulli numbers.  Everything here is generated from
exact integer rationals and rounded to double precision once at the end, so
each table entry is the correctly rounded double.  The related coefficients
C_k(s) of the stepwise continuation are plain complex products.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError
from .types import ComplexPoint


def _bernoulli_fractions(n_max: int) -> list[Fraction]:
    """B_0 .. B_n_max as exact rationals, via the defining recurrence
    sum_k binom(n+1, k) B_k = 0.  The one Bernoulli source: it feeds the
    P table here and gamma's Stirling series."""
    b = [Fraction(1), Fraction(-1, 2)]
    for n in range(2, n_max + 1):
        if n % 2 == 1:
            b.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(n):
            acc += math.comb(n + 1, k) * b[k]
        b.append(-acc / (n + 1))
    return b


@functools.cache
def p_coefficients(r_max: int) -> tuple[float, ...]:
    """Kernel-series coefficients p[0] = 1/2, p[r] = P_{2r-1} = (2^(2r)-1)
    B_{2r} / (2r)! for r = 1..r_max, each an exact rational rounded once."""
    b = _bernoulli_fractions(2 * r_max)
    p = [Fraction(1, 2)]
    for r in range(1, r_max + 1):
        p.append((2 ** (2 * r) - 1) * b[2 * r] / Fraction(math.factorial(2 * r)))
    return tuple(float(x) for x in p)


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
