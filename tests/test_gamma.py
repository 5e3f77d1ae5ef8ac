import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_zeta import DomainError, GammaOverflowError, PoleError
from eta_zeta.eta_core import DirectLine
from eta_zeta.gamma import gamma_reflected, gamma_tail_bound, log_gamma

import oracles


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


def test_gamma_reflected_values():
    assert gamma_reflected(4 + 0j).real == pytest.approx(6.0, rel=1e-13)
    assert gamma_reflected(-0.5 + 0j).real == pytest.approx(
        -2.0 * math.sqrt(math.pi), rel=1e-13)
    ref = oracles.gamma_reference(-0.3, 4.0)
    assert oracles.diff(gamma_reflected(complex(-0.3, 4.0)), ref) \
        <= 1e-12 * float(abs(ref))


@pytest.mark.parametrize("z", [0j, -1 + 0j, -7 + 0j])
def test_gamma_reflected_poles(z):
    with pytest.raises(PoleError):
        gamma_reflected(z)


def test_gamma_reflected_overflow():
    with pytest.raises(GammaOverflowError):
        gamma_reflected(200.0 + 0j)


@settings(max_examples=60, deadline=None)
@given(re=st.floats(0.5, 10.0, allow_nan=False),
       im=st.floats(-60.0, 60.0, allow_nan=False))
def test_gamma_recurrence(re, im):
    z = complex(re, im)
    lhs = gamma_reflected(z + 1.0)
    rhs = z * gamma_reflected(z)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_stirling_magnitude_examples():
    # the line at sigma = 1 estimates |Gamma(n + 1 + i t)| for n = 0..13
    estimates = DirectLine(1.0).stirling_magnitudes(0.0)
    est = estimates[3]
    # closed form of the leading-order estimate at x = 4
    assert est == pytest.approx(128.0 * math.sqrt(2.0 * math.pi) / math.exp(4.0),
                                rel=1e-14)
    rel_err = abs(est - 6.0) / 6.0
    assert 0.019 < rel_err < 0.022

    est14 = estimates[13]
    assert abs(est14 - math.factorial(13)) / math.factorial(13) < 0.01


def test_stirling_magnitude_decays_in_t():
    line = DirectLine(1.0)
    values = [line.stirling_magnitudes(float(t))[0] for t in range(0, 11)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v < 1.0 for v in values[1:])


def test_stirling_magnitude_domain():
    # the estimate needs x = n + sigma >= 0.5, which the line's sigma check
    # guarantees
    with pytest.raises(DomainError):
        DirectLine(0.25)


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
    assert DirectLine(1.0).tail_ratio(0.0, 40) == pytest.approx(exact, rel=0.10)


def test_max_tail_ratio_decreasing_in_b():
    # a larger cutoff always meets a tighter ratio, which selection relies on
    line = DirectLine(1.0)
    r81, r101, r131 = (line.tail_ratio(10.0, m) for m in (40, 50, 65))
    assert r81 > r101 > r131
