from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("re", [1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 30.0, 60.0])
@pytest.mark.parametrize("im", [0.0, 0.5, 5.0, 14.134725, 40.0, -37.2, 120.0,
                                150.0, 177.0, -177.0])
def test_log_gamma_thirteen_digits(re, im):
    z = complex(re, im)
    ref = oracles.loggamma_reference(re, im)
    assert oracles.diff(log_gamma(z), ref) <= 1e-13 * max(1.0, float(abs(ref)))

