"""The kernel tail's parts against mpmath: the lower bound on |Gamma(s)|, the
upper bound on the incomplete gamma Gamma(a, b), and the whole tail against
the dropped integral itself."""

import math
import random

import mpmath
import pytest

from eta_zeta.coefficients import p_coefficients
from eta_zeta.eta_core import M_SCHEDULE, R_MAX, kernel_tail
from eta_zeta.gamma import log_abs_gamma_lower, upper_gamma_factor


def _gamma_points():
    rng = random.Random(5)
    points = [(sigma, t) for sigma in (0.5, 1.0, 2.999, 3.0)
              for t in (0.0, 1e-3, -2.5, 600.0, -600.0)]
    points += [(rng.uniform(0.5, 3.0), rng.uniform(-600.0, 600.0))
               for _ in range(300)]
    return points


def test_gamma_lower_bound_is_below_and_close():
    # never above ln|Gamma(s)|, and at least 0.94 of |Gamma(s)|
    worst = 0.0
    with mpmath.workdps(30):
        for sigma, t in _gamma_points():
            exact = mpmath.re(mpmath.loggamma(mpmath.mpc(sigma, t)))
            gap = float(exact - log_abs_gamma_lower(sigma, t))
            assert 0.0 <= gap <= -math.log(0.94), (sigma, t, gap)
            worst = max(worst, gap)
    assert worst > -math.log(0.96)  # the sample reaches the loosest corner, t = 0


@pytest.mark.parametrize("sigma", [0.5, 0.7, 1.0, 1.5, 3.0])
def test_incomplete_gamma_bound_is_above(sigma):
    # Gamma(a, b) <= b^(a-1) e^(-b) F(a, b) for a = sigma + k, k = 0 and
    # 2r - 1, b = 2m + 1; compared in logs, as e^(-b) leaves the double range
    with mpmath.workdps(30):
        for m in (*M_SCHEDULE, 1, 2, 7, 1001):
            b = float(2 * m + 1)
            for k in (0, *range(1, 2 * R_MAX, 2)):
                a = sigma + k
                bound = ((a - 1) * mpmath.log(b) - b
                         + mpmath.log(upper_gamma_factor(a, b)))
                exact = mpmath.log(mpmath.gammainc(a, b))
                # equal at a = 1, where Gamma(1, b) = e^(-b) exactly
                assert bound >= exact - mpmath.mpf(10) ** -25, (a, b)


def _dropped_integral(sigma, t, m):
    # |(b^-s / Gamma(s)) int_b^inf y^(s-1) e^(-y) (K(y/b) - S(y/b)) dy|, K the
    # logistic kernel and S its series as the correction term uses it
    p = p_coefficients(R_MAX)
    with mpmath.workdps(30):
        s, b = mpmath.mpc(sigma, t), mpmath.mpf(2 * m + 1)

        def integrand(y):
            x = y / b
            series = p[0] + sum(p[r] * x ** (2 * r - 1) for r in range(1, R_MAX + 1))
            return y ** (s - 1) * mpmath.exp(-y) * (1 / (1 + mpmath.exp(-x)) - series)

        integral = mpmath.quad(integrand, [b, b + 10, b + 40, b + 120, mpmath.inf])
        return float(abs(b ** -s / mpmath.gamma(s) * integral))


@pytest.mark.parametrize("sigma,t,m", [(0.5, 0.0, 8), (0.7, 3.0, 10), (1.0, 5.0, 12),
                                       (2.0, 10.0, 15), (3.0, 20.0, 20),
                                       (0.5, 14.134725, 25), (1.5, 30.0, 30)])
def test_kernel_tail_bounds_the_dropped_integral(sigma, t, m):
    # the bound takes |K| and |S| apart, where K - S nearly cancels at y = b:
    # it is loose, never below
    assert _dropped_integral(sigma, t, m) <= kernel_tail(sigma, t, m)


def test_kernel_tail_reproduces_the_design_table():
    # the derived tail at the points of ROADMAP item 4's design table
    for (sigma, t, m), value in (((0.7, 3.0, 15), 7.3e-14), ((0.7, 3.0, 40), 5.37e-36),
                                 ((2.0, 35.0, 40), 2.15e-16),
                                 ((0.5, 170.0, 150), 4.18e-18)):
        assert kernel_tail(sigma, t, m) == pytest.approx(value, rel=5e-3)
