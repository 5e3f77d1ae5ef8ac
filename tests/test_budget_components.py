"""Each part of eta's and zeta's budgets against the error it bounds.

The same formula, sum plus correction (plus zeta's pole term) at the same m,
is run again in mpmath at 40 digits.  Then |formula - eta| or |formula -
zeta| is the truncation error, which the budget's truncation part (Boole's
or Backlund's remainder) must bound, and |value - formula| is the rounding
error, which its rounding part must bound.  Zeta's Euler-Maclaurin bracket
and pole term are each checked against their own rounding bounds too.  The
summation's running bound is checked against the exact sum of the same
float terms.  The two constants of Boole's bound are pinned against mpmath
as well, and so is the libm the rounding bounds assume."""

import cmath
import math
import operator
import random
from fractions import Fraction
from functools import reduce

import mpmath
import pytest

from eta_zeta import ComplexPoint, MethodTag
from eta_zeta.coefficients import p_coefficients
from eta_zeta.zeta_bridge import B16, C14, C15, R_MAX, Line, correction_term, pole_term

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


# next to s = 1, where the pole term rules zeta's value and budget, next to
# s = 0, where it is exactly -N, and at sigma < 1 with m far past the cutoff,
# where the unsigned sum cancels against the pole term
ZETA_POINTS = _points() + [(1.0 + 1e-8, 0.0, None), (1.0, 1e-6, None),
                           (1.0 - 1e-12, 1e-12, None), (0.999, 0.5, 3),
                           (1e-9, -1e-9, None), (2.0, 1e-3, 40),
                           (-0.5, 3.0, 1200), (0.3, 3.0, 1200)]


def _zeta_parts(s, m):
    # the Euler-Maclaurin bracket N^-s [1/2 + sum_k B_2k/(2k)! (s)_{2k-1}
    # N^-(2k-1)] and the pole term N^(1-s)/(s - 1), N = 2m + 1, exactly
    n_top = 2 * m + 1
    bracket = mpmath.mpf(1) / 2
    for k in range(1, R_MAX + 1):
        bracket += (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                    * mpmath.rf(s, 2 * k - 1) * mpmath.power(n_top, 1 - 2 * k))
    return (mpmath.power(n_top, -s) * bracket,
            mpmath.power(n_top, 1 - s) / (s - 1))


@pytest.mark.parametrize("sigma,t,m", ZETA_POINTS)
def test_each_zeta_component_bounds_its_error(sigma, t, m):
    # Backlund's remainder, then the rounding part as a whole, then the
    # bracket and the pole term each against its own rounding bound
    line = Line(sigma, m)
    result = line.zeta(t)
    assert result.method is MethodTag.EULER_MACLAURIN
    point = ComplexPoint(sigma, t)
    _, chain, (_, factors, truncation, _) = line._bounds(t, result.m, True)
    bracket, bracket_rounding = correction_term(point, chain, factors, True)
    pole, pole_rounding = pole_term(point, 2.0 * result.m + 1.0, factors[0])
    assert truncation == result.budget.truncation
    with mpmath.workdps(DPS):
        s = mpmath.mpc(sigma, t)
        exact_bracket, exact_pole = _zeta_parts(s, result.m)
        head = mpmath.fsum(mpmath.power(n, -s) for n in range(1, 2 * result.m + 1))
        formula = head + exact_bracket + exact_pole
        scale = mpmath.fsum(mpmath.power(n, -sigma) for n in range(1, 2 * result.m + 2))
        noise = float(max(scale, abs(exact_pole)) * mpmath.mpf(10) ** (3 - DPS))
        truncation_error = float(abs(formula - mpmath.zeta(s)))
        errors = [float(abs(mpmath.mpc(v.real, v.imag) - exact)) for v, exact in
                  ((result.value, formula), (bracket, exact_bracket), (pole, exact_pole))]
    assert truncation_error <= result.budget.truncation + noise
    assert errors[0] <= result.budget.rounding
    assert errors[1] <= bracket_rounding
    assert errors[2] <= pole_rounding


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
    # Backlund's constant |B_16| / 16!, rounded once
    with mpmath.workdps(30):
        assert B16 == float(abs(mpmath.bernoulli(16)) / mpmath.factorial(16))


def _summation_points():
    rng = random.Random(5)
    points = [(rng.uniform(-0.5, 3.0), rng.uniform(-176.0, 176.0), rng.randint(1, 200))
              for _ in range(60)]
    # past TERMS_KEPT = 4096: 4200 terms, one chunk before the kept ones;
    # 12290 terms, three (the last of two terms)
    return points + [(0.5, 14.134725, 2100), (0.3, 7.5, 6145)]


@pytest.mark.parametrize("sigma,t,m", _summation_points())
def test_summation_within_its_running_bound(sigma, t, m):
    # the partial sum is the recursive sum of its float terms from n = 2m
    # down; its distance from their exact sum is at most its running bound
    terms = []
    for n in range(2 * m, 0, -1):
        ln_n = math.log(n)
        terms.append(cmath.rect((1.0 if n % 2 else -1.0) * math.exp(-sigma * ln_n),
                                -t * ln_n))
    value, bound = Line(sigma)._partial_sum(t, m)
    assert value == reduce(operator.add, terms, 0j)
    exact_re = sum(Fraction(z.real) for z in terms)
    exact_im = sum(Fraction(z.imag) for z in terms)
    error = abs(complex(float(Fraction(value.real) - exact_re),
                        float(Fraction(value.imag) - exact_im)))
    assert error <= bound, error / bound


# Arguments as the derivation meets them: exp of -sigma ln n and of the
# conversion's (1 - sigma) ln 2, log of n and N, cos and sin of phases t ln n
# up to |t| = 186 and n past 2m = 400
LIBM = {
    "exp": (math.exp, mpmath.exp, lambda rng: rng.uniform(-26.0, 5.0)),
    "log": (math.log, mpmath.log, lambda rng: float(rng.randint(2, 100000))),
    "cos": (math.cos, mpmath.cos, lambda rng: rng.uniform(-1100.0, 1100.0)),
    "sin": (math.sin, mpmath.sin, lambda rng: rng.uniform(-1100.0, 1100.0)),
}


@pytest.mark.parametrize("name", list(LIBM))
def test_libm_within_one_ulp(name):
    # the rounding bounds take each libm result within about one ulp of the
    # exact value: 5000 seeded arguments per function, 20000 in all
    function, exact, draw = LIBM[name]
    rng = random.Random(name)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(5000):
            x = draw(rng)
            reference = exact(mpmath.mpf(x))
            worst = max(worst, float(abs(function(x) - reference)) / math.ulp(float(reference)))
    assert worst <= 1.0, worst
