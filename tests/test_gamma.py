import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_zeta import DomainError
from eta_zeta.zeta_bridge import Line

import oracles
from reference_loops import (STIRLING_COEFFS, gamma_tail_bound, log_gamma,
                             max_tail_ratio, stirling_magnitude)

# The complex log-gamma that the functional-equation route used, kept as a
# reference in reference_loops (the library's paper formula covers the whole
# strip and needs no Gamma of s).

# B_2 .. B_16, the reference for the Stirling coefficients that the log-gamma
# derives from the shared Bernoulli recurrence
EVEN_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
)


def test_stirling_coefficients_pinned():
    # B_{2k} / (2k (2k-1)), k = 1..8, each rounded once: bit for bit
    assert STIRLING_COEFFS == tuple(
        float(b / (2 * k * (2 * k - 1)))
        for k, b in enumerate(EVEN_BERNOULLI, start=1))


def test_log_gamma_closed_forms():
    assert abs(log_gamma(1 + 0j)) < 1e-14
    assert log_gamma(5 + 0j).real == pytest.approx(math.log(24), rel=1e-14)
    assert log_gamma(0.5 + 0j).real == pytest.approx(0.5 * math.log(math.pi),
                                                     rel=1e-14)


@pytest.mark.parametrize("re", [1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 30.0, 60.0])
@pytest.mark.parametrize("im", [0.0, 0.5, 5.0, 14.134725, 40.0, -37.2, 120.0,
                                150.0, 177.0, -177.0])
def test_log_gamma_thirteen_digits(re, im):
    z = complex(re, im)
    ref = oracles.loggamma_reference(re, im)
    assert oracles.diff(log_gamma(z), ref) <= 1e-13 * max(1.0, float(abs(ref)))


@pytest.mark.parametrize("re", [1.5, 2.0, 2.5])
@pytest.mark.parametrize("im", [0.0, 177.0, 460.0, -480.0, 1000.0, 1500.0, -1500.0])
def test_log_gamma_on_the_reflection_strip(re, im):
    # the functional-equation factor took Gamma only at 3/2 <= Re <= 5/2, at
    # any |t| an explicit m reached; the log's absolute error stays below
    # 1e-14 per unit of 1 + |t| (exp of values this size would underflow)
    ref = oracles.loggamma_reference(re, im)
    assert oracles.diff(log_gamma(complex(re, im)), ref) <= 1e-14 * (1.0 + abs(im))


def test_log_gamma_domain():
    for z in (0j, -1 + 5j, -0.5 + 0j):
        with pytest.raises(DomainError):
            log_gamma(z)


@pytest.mark.parametrize("t", [0.25, 1.0, 5.0, 20.0, 42.5, 60.0])
def test_gamma_magnitude_on_the_one_line(t):
    # |Gamma(1+it)| = sqrt(pi t / sinh(pi t)), 12+ digits
    mine = abs(cmath.exp(log_gamma(complex(1.0, t))))
    ref = math.sqrt(math.pi * t / math.sinh(math.pi * t))
    assert mine == pytest.approx(ref, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(re=st.floats(0.5, 10.0, allow_nan=False),
       im=st.floats(-60.0, 60.0, allow_nan=False))
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    lhs = cmath.exp(log_gamma(z + 1.0))
    rhs = z * cmath.exp(log_gamma(z))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# The paper's dropped-tail ratio E(n, b) / |Gamma(n + s)|, with |Gamma| from
# leading-order Stirling, kept in reference_loops for its design pairs.

def test_stirling_magnitude_examples():
    # estimates of |Gamma(n + 1 + i t)| for n = 0..13 at t = 0
    estimates = [stirling_magnitude(n + 1.0, 0.0) for n in range(14)]
    est = estimates[3]
    # closed form of the leading-order estimate at x = 4
    assert est == pytest.approx(128.0 * math.sqrt(2.0 * math.pi) / math.exp(4.0),
                                rel=1e-14)
    rel_err = abs(est - 6.0) / 6.0
    assert 0.019 < rel_err < 0.022

    est14 = estimates[13]
    assert abs(est14 - math.factorial(13)) / math.factorial(13) < 0.01


def test_stirling_magnitude_decays_in_t():
    values = [stirling_magnitude(1.0, float(t)) for t in range(0, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values[1:])


def test_stirling_magnitude_domain():
    # the estimate needs x = n + sigma >= 0.5: the paper's ratio is taken at
    # sigma = 1, and a line refuses sigma outside the strip
    with pytest.raises(DomainError):
        Line(-0.6)


def test_gamma_tail_bound_examples():
    e81 = gamma_tail_bound(0, 81.0)
    assert e81 == math.exp(-81.0)
    assert e81 < 7e-36
    assert gamma_tail_bound(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert gamma_tail_bound(1, 2.0) == pytest.approx(3.0 * math.exp(-2.0),
                                                     rel=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 13])
@pytest.mark.parametrize("b", [3.0, 41.0, 81.0, 121.0])
def test_gamma_tail_bound_against_quadrature(n, b):
    ref = oracles.gamma_tail_quadrature(n, b)
    assert gamma_tail_bound(n, b) == pytest.approx(float(ref), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 13),
       b1=st.floats(1.0, 250.0, allow_nan=False),
       db=st.floats(0.5, 50.0, allow_nan=False))
def test_gamma_tail_bound_decreasing_in_b(n, b1, db):
    assert gamma_tail_bound(n, b1 + db) < gamma_tail_bound(n, b1)


def test_gamma_tail_bound_domain():
    with pytest.raises(DomainError):
        gamma_tail_bound(14, 10.0)
    with pytest.raises(DomainError):
        gamma_tail_bound(-1, 10.0)
    with pytest.raises(DomainError):
        gamma_tail_bound(3, 0.0)


def test_max_tail_ratio_at_t_zero():
    # b = 81: against the exact |Gamma(n + 1)| = n! the worst ratio moves
    # only by the leading-order Stirling error
    exact = max(gamma_tail_bound(n, 81.0) / math.factorial(n)
                for n in range(14))
    assert max_tail_ratio(1.0, 0.0, 81.0) == pytest.approx(exact, rel=0.10)


def test_max_tail_ratio_decreasing_in_b():
    # a larger cutoff always meets a tighter ratio
    r81, r101, r131 = (max_tail_ratio(1.0, 10.0, b) for b in (81.0, 101.0, 131.0))
    assert r81 > r101 > r131


def test_paper_design_pairs():
    # the paper's cutoff pairs at sigma = 1: b = 81 reaches ratio 1e-5 at
    # t = 40, b = 101 ratio 1e-7 at t = 50
    assert max_tail_ratio(1.0, 40.0, 81.0) == pytest.approx(7.25e-6, rel=1e-3)
    assert max_tail_ratio(1.0, 40.0, 81.0) <= 1e-5
    assert max_tail_ratio(1.0, 50.0, 101.0) == pytest.approx(9.04e-8, rel=1e-3)
    assert max_tail_ratio(1.0, 50.0, 101.0) <= 1e-7
