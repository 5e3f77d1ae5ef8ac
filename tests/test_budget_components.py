"""Each part of the direct route's budget against the error it bounds.

The same formula, sum plus correction at the same m, is run again in mpmath
at 40 digits.  Then |formula - eta| is the truncation error, which the
budget's truncation part (Boole's remainder) must bound, and |value -
formula| is the rounding error, which its rounding part must bound.  The
two constants of Boole's bound are pinned against mpmath as well."""

import math
import random

import mpmath
import pytest

from eta_zeta.coefficients import p_coefficients
from eta_zeta.eta_core import C14, C15, R_MAX
from eta_zeta.zeta_bridge import Line

DPS = 40


def _points():
    rng = random.Random(29)
    points = [(rng.uniform(-0.5, 3.0), rng.uniform(-176.0, 176.0), None)
              for _ in range(40)]
    # explicit cutoffs, from far too small to far past the selected ones
    points += [(rng.uniform(-0.5, 3.0), rng.uniform(-176.0, 176.0), m)
               for m in (1, 3, 8, 300, 1200) for _ in range(3)]
    return points


def _formula(s, m):
    # sum_{n<=2m} (-1)^(n+1) n^-s + N^-s [1/2 + sum_r P_{2r-1} (s)_{2r-1}
    # N^-(2r-1)], N = 2m + 1, with the exact P; and sum n^-sigma, the scale
    # of the reference's own rounding
    n_top = 2 * m + 1
    head = mpmath.fsum((-1) ** (n + 1) * mpmath.power(n, -s) for n in range(1, n_top))
    bracket = mpmath.mpf(1) / 2
    for r in range(1, R_MAX + 1):
        k = 2 * r - 1
        p_k = (2 ** (k + 1) - 1) * mpmath.bernoulli(k + 1) / mpmath.factorial(k + 1)
        bracket += p_k * mpmath.rf(s, k) * mpmath.power(n_top, -k)
    scale = mpmath.fsum(mpmath.power(n, -s.real) for n in range(1, n_top + 1))
    return head + mpmath.power(n_top, -s) * bracket, scale


@pytest.mark.parametrize("sigma,t,m", _points())
def test_each_component_bounds_its_error(sigma, t, m):
    result = Line(sigma, m).eta(t)
    with mpmath.workdps(DPS):
        s = mpmath.mpc(sigma, t)
        formula, scale = _formula(s, result.m)
        exact = mpmath.altzeta(s)
        # what 40 digits cannot resolve: a few hundred ulps of the terms
        noise = float(scale * mpmath.mpf(10) ** (3 - DPS))
        truncation_error = float(abs(formula - exact))
        rounding_error = float(abs(mpmath.mpc(result.value.real, result.value.imag)
                                   - formula))
    assert truncation_error <= result.budget.truncation + noise
    assert rounding_error <= result.budget.rounding


def test_boole_constants():
    # C14 = sup |E_14(x)| / (2 14!) over [0, 1], at x = 1/2: |E_14| / 2^14
    # with the Euler number E_14; C15 = sup |E_15(x)| / (2 15!), at the ends,
    # = |P_15|
    with mpmath.workdps(30):
        euler = mpmath.eulernum(14)
        assert euler == -199360981
        assert C14 == float(abs(euler) / (2 ** 14 * 2 * mpmath.factorial(14)))
        grid = [mpmath.mpf(j) / 2000 for j in range(2001)]
        for n, constant in ((14, C14), (15, C15)):
            sup = max(abs(mpmath.eulerpoly(n, x)) for x in grid) / (2 * mpmath.factorial(n))
            assert float(sup) == pytest.approx(constant, rel=1e-15)
    assert C15 == abs(p_coefficients(R_MAX + 1)[R_MAX + 1])
    assert math.isclose(C14, 6.98e-8, rel_tol=1e-3)
