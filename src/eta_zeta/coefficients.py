"""Correction coefficients of eta's and zeta's formulas.

The logistic kernel 1/(1 + e^(-x)) = (1/2)(1 + tanh(x/2)) expands into an odd
power series

    1/2 + sum_{r>=1} P_{2r-1} x^(2r-1),   P_{2r-1} = (2^(2r) - 1) B_{2r} / (2r)!

with B_{2r} the even Bernoulli numbers: eta's bracket (Boole's formula).
Zeta's (Euler-Maclaurin) reads B_{2r} / (2r)! itself.  Everything here is
generated from exact integer rationals and rounded to double precision once
at the end, so each table entry is the correctly rounded double.

zeta_bridge binds both tables at import.  It stays a module of its own,
importing nothing from the package, because the benchmark times its build
here (bench/run.py, p_table_build_ms).
"""

import functools
import math

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


def em_coefficients(r_max: int) -> "tuple[float, ...]":
    """Euler-Maclaurin coefficients e[0] = 1/2, e[r] = B_{2r} / (2r)! for
    r = 1..r_max, each an exact rational rounded once by int/int true
    division."""
    b, den = _bernoulli_fractions(2 * r_max)
    return (0.5, *(b[2 * r] / (den * math.factorial(2 * r)) for r in range(1, r_max + 1)))
