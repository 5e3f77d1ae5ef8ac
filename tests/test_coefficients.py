import math
from fractions import Fraction

import pytest
import sympy

from eta_zeta import DomainError
from eta_zeta.acceptance import p_coefficient_asymptotic
from eta_zeta.coefficients import _bernoulli_fractions, p_coefficients

# Published table for the kernel-series coefficients: exact rationals and the
# decimals printed alongside them (finite-digit rows only).
TABLE_RATIONALS = (
    Fraction(1, 2), Fraction(1, 4), Fraction(-1, 48), Fraction(1, 480),
    Fraction(-17, 80640), Fraction(31, 1451520), Fraction(-691, 319334400),
    Fraction(5461, 24908083200),
)
TABLE_DECIMALS = {
    4: (-2.10813492e-4, 1e-12),
    5: (2.1356922e-5, 1e-12),
    6: (-2.163876e-6, 1e-12),
    7: (2.19246e-7, 1e-12),
}


def _bernoulli(n_max):
    nums, den = _bernoulli_fractions(n_max)
    return [Fraction(num, den) for num in nums]


def test_bernoulli_examples():
    b = _bernoulli(14)
    assert b[:7] == [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0,
                     Fraction(-1, 30), 0, Fraction(1, 42)]
    assert b[14] == Fraction(7, 6)


def test_bernoulli_against_sympy():
    # independent oracle for the recurrence that feeds both the P table and
    # gamma's Stirling series, exact through B_30; sympy's B_1 is +1/2
    b = _bernoulli(30)
    assert len(b) == 31 and b[1] == Fraction(-1, 2)
    for n, value in enumerate(b):
        if n != 1:
            assert value == Fraction(str(sympy.bernoulli(n)))


def test_p_table_matches_published_rationals():
    p = p_coefficients(7)
    assert p[0] == 0.5
    for r, ref in enumerate(TABLE_RATIONALS):
        assert p[r] == pytest.approx(float(ref), rel=1e-15, abs=0.0)


def test_p_table_matches_published_decimals():
    p = p_coefficients(7)
    for r, (ref, unit) in TABLE_DECIMALS.items():
        assert abs(p[r] - ref) <= unit


def test_p_table_invariants():
    p = p_coefficients(15)
    assert p[0] == 0.5
    for r in range(1, 16):
        expected_sign = 1.0 if r % 2 == 1 else -1.0
        assert math.copysign(1.0, p[r]) == expected_sign
        if r >= 2:
            assert abs(p[r]) < abs(p[r - 1])


def test_p_table_r_max():
    assert len(p_coefficients(7)) == 8


def test_asymptotic_examples():
    assert p_coefficient_asymptotic(1) == pytest.approx(2.0 / math.pi ** 2)
    assert p_coefficient_asymptotic(1) == pytest.approx(0.202642, abs=5e-7)
    # sign alternation matches the exact coefficients
    assert p_coefficient_asymptotic(2) == pytest.approx(-2.0532e-2, abs=5e-6)
    assert p_coefficient_asymptotic(2) < 0 and p_coefficients(7)[2] < 0
    assert p_coefficient_asymptotic(7) == pytest.approx(2.1925e-7, abs=5e-11)


def test_asymptotic_relative_error_decreases():
    p = p_coefficients(7)
    previous = math.inf
    for r in range(1, 8):
        rel = abs(p_coefficient_asymptotic(r) - p[r]) / abs(p[r])
        assert rel < previous
        if r >= 4:
            assert rel < 2e-3
        previous = rel
    # at r = 7 the asymptotic form is within 0.01%
    assert previous < 1e-4


def test_asymptotic_rejects_bad_r():
    with pytest.raises(DomainError):
        p_coefficient_asymptotic(0)

