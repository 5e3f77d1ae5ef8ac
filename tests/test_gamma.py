import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_zeta import DomainError

import oracles
from reference_loops import STIRLING_COEFFS, log_gamma

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
