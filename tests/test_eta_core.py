import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import eta_zeta
from eta_zeta import ComplexPoint, DomainError, MethodTag, ParameterExhaustionError
from eta_zeta import zeta_bridge
from eta_zeta.coefficients import p_coefficients
from eta_zeta.zeta_bridge import C15, R_MAX, Line, correction_term, dirichlet_sum

import oracles
import reference_loops as ref

GRID = [(sigma, t) for sigma in (0.5, 0.75, 1.0)
        for t in (0.0, 5.0, 14.1, 25.0, 40.0)]


# ---------------------------------------------------------------- params ---

def test_select_params_exhaustion():
    with pytest.raises(ParameterExhaustionError, match="parameter exhaustion"):
        Line(1.0).eta(1000.0)


def test_select_params_validates_sigma():
    # selection runs on a Line, behind its sigma check
    with pytest.raises(DomainError, match="sigma range"):
        Line(-0.6)


# ----------------------------------------------------------- partial sum ---

def test_partial_sum_two_terms():
    assert Line(1.0)._partial_sum(0.0, 1)[0] == 0.5 + 0j


def test_partial_sum_cancels_at_s_zero():
    # the shared kernel with the s = 0 terms (-1)^(n+1), n = 6 down to 1:
    # its partial sums from 0, the last the value
    lns = [math.log(n) for n in range(6, 0, -1)]
    assert dirichlet_sum([-1.0, 1.0] * 3, lns, 0.0) == [0j, -1, 0j, -1, 0j, -1, 0j]


def test_partial_sum_at_two_against_exact_oracle():
    # brute-force rational sum of the first 80 terms
    exact = sum(Fraction((-1) ** (n + 1), n * n) for n in range(1, 81))
    value = Line(2.0)._partial_sum(0.0, 40)[0]
    assert value.imag == 0.0
    assert value.real == pytest.approx(float(exact), abs=1e-15)
    assert abs(value.real - math.pi ** 2 / 12.0) < 1.6e-4


@pytest.mark.parametrize("m", [0, -3])
def test_eval_names_m_below_one_before_any_table(m, monkeypatch):
    # a line refuses m < 1 when it is built: no cutoff is selected and no
    # term or ln n is computed
    def unreachable(*args):
        raise AssertionError("a cutoff was selected or a term kept for m < 1")

    for owner, name in ((Line, "_bounds"), (Line, "_partial_sum"),
                        (zeta_bridge, "log_table")):
        monkeypatch.setattr(owner, name, unreachable)
    with pytest.raises(DomainError, match="^m must be >= 1$"):
        Line(1.0, m)


# ------------------------------------------------------- correction term ---

def test_correction_reduces_to_half_at_s_zero():
    # every series term carries a factor s, and (2m+1)^0 = 1
    # and Boole's remainder vanishes with (s)_15
    for m in (1, 40, 150):
        _, chain, (_, factors, truncation, _) = Line(0.0, m)._bounds(0.0, m)
        assert correction_term(ComplexPoint(0, 0), chain, factors)[0] == 0.5 + 0j
        assert truncation == 0.0


def test_correction_matches_remainder_oracle_at_one():
    # oracle: ln 2 minus the exact 80-term alternating harmonic sum, which
    # evaluates to 6.2109405508e-3 (leading term alone would be 1/162)
    exact_head = sum(Fraction((-1) ** (n + 1), n) for n in range(1, 81))
    remainder = math.log(2.0) - float(exact_head)
    _, chain, (_, factors, truncation, _) = Line(1.0, 40)._bounds(0.0, 40)
    corr, rounding = correction_term(ComplexPoint(1, 0), chain, factors)
    assert corr.imag == 0.0
    assert truncation < 1e-25 and rounding < 1e-16
    assert remainder == pytest.approx(6.2109405508e-3, abs=1e-12)
    assert corr.real == pytest.approx(remainder, abs=1e-13)


P_TABLE_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import eta_zeta
from eta_zeta import acceptance
from eta_zeta.coefficients import p_coefficients
eta_zeta.eta(eta_zeta.ComplexPoint(0.73, 100.0))
acceptance._coefficient_checks()
print(p_coefficients.cache_info().currsize)
"""


def test_one_p_table_per_process():
    # import, a first value and verify's coefficient checks build one table,
    # P_1 .. P_15: C15's, whose entries up to P_13 the correction term reads,
    # each the same double as in the shorter table
    src = Path(eta_zeta.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-I", "-c", P_TABLE_CODE, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["1"]
    short, table = p_coefficients(R_MAX), p_coefficients(R_MAX + 1)
    assert [p.hex() for p in table[:R_MAX + 1]] == [p.hex() for p in short]
    assert C15 == abs(table[R_MAX + 1])


# ------------------------------------------------------------ direct route ---

def test_eta_raw_at_one():
    ln2 = math.log(2.0)
    v50 = Line(1.0, 50).eta(0.0).value
    assert abs(v50 - ln2) < 1e-11
    assert f"{v50.real:.11f}" == "0.69314718056"
    v40 = Line(1.0, 40).eta(0.0).value
    assert abs(v40 - ln2) < 1.5e-9


def test_eta_raw_at_first_on_line_zero():
    t = 2.0 * math.pi / math.log(2.0)
    v = Line(1.0, 50).eta(t).value
    assert abs(v) < 1e-11


def test_eta_raw_at_lowest_critical_zero():
    result = Line(0.5, 40).eta(14.134725)
    # residual comes from the rounded zero location plus the method error;
    # reference value confirmed against the 30-digit oracle
    assert 2.6e-7 < abs(result.value) < 2.75e-7
    ref = oracles.eta_reference(0.5, 14.134725)
    assert oracles.diff(result.value, ref) < 1e-10


def test_eta_raw_method_tag_and_params():
    result = Line(0.75, 40).eta(3.0)
    assert result.method is MethodTag.DIRECT26
    assert result.m == 40


def test_eta_raw_domain():
    for sigma in (-0.51, 3.01, -1.0):
        with pytest.raises(DomainError):
            Line(sigma, 40).eta(0.0)


def test_eta_raw_conjugation():
    # only real constants enter, so conjugating s conjugates the result: at
    # the corners of sigma in [0.5, 3], t in [1e-3, 60] and 80 seeded points
    rng = random.Random(80)
    ms = (40, 50, 80)
    cases = [(sigma, t, m) for sigma in (0.5, 3.0) for t in (1e-3, 60.0) for m in ms]
    cases += [(rng.uniform(0.5, 3.0), rng.uniform(1e-3, 60.0), rng.choice(ms))
              for _ in range(80)]
    for sigma, t, m in cases:
        plus = Line(sigma, m).eta(t).value
        minus = Line(sigma, m).eta(-t).value
        assert abs(minus - plus.conjugate()) <= 2.0 * 2.3e-16 * abs(plus), (sigma, t, m)


def test_monotone_refinement_on_grid():
    for sigma, t in GRID:
        coarse = Line(sigma, 40).eta(t)
        fine = Line(sigma, 50).eta(t)
        assert abs(fine.value - coarse.value) < coarse.budget.total


def test_oracle_agreement_on_grid():
    for sigma, t in GRID:
        result = Line(sigma, 50 if t >= 40 else 40).eta(t)
        ref = oracles.eta_reference(sigma, t)
        assert oracles.diff(result.value, ref) <= result.budget.total, (sigma, t)


def test_oracle_agreement_against_accelerated_series():
    # same check against the in-repo accelerated-series oracle
    for sigma, t in ((0.5, 0.0), (0.75, 14.1), (1.0, 40.0)):
        result = Line(sigma, 50).eta(t)
        ref = oracles.eta_alternating_accelerated(sigma, t)
        assert oracles.diff(result.value, ref) <= result.budget.total


# ----------------------------------------------------------------- budget ---

def test_budget_structure():
    result = Line(0.75, 40).eta(14.1)
    budget = result.budget
    assert budget.truncation == ref.truncation_bound(0.75, 14.1, 40)
    for part in (budget.truncation, budget.rounding):
        assert part > 0.0
        assert budget.total >= part
    assert budget.total == budget.truncation + budget.rounding


def test_budget_shrinks_with_m():
    # the truncation bound does; the rounding bound grows with the terms
    for sigma, t in GRID:
        fine, coarse = Line(sigma, 50).eta(t).budget, Line(sigma, 40).eta(t).budget
        assert fine.truncation < coarse.truncation
        assert fine.rounding > coarse.rounding


def test_budget_envelope_levels():
    # inside m = 40's reach (t < 36) Boole's remainder is far below the
    # rounding bound, and the total stays near the rounding of t ln n
    for sigma, t in GRID:
        budget = Line(sigma, 40).eta(t).budget
        assert budget.total < 1e-12
        if t <= 25.0:
            assert budget.truncation < 1e-2 * budget.rounding
        if t <= 5.0:
            assert budget.total < 1e-13
