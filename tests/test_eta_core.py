import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_zeta import (ComplexPoint, DomainError, EvalParams, MethodTag,
                      ParameterExhaustionError, eta)
from eta_zeta import eta_core
from eta_zeta.eta_core import (TARGET_RATIO, DirectLine, correction_term,
                               dirichlet_sum)
from eta_zeta.gamma import gamma_tail_bound

import oracles

GRID = [(sigma, t) for sigma in (0.5, 0.75, 1.0)
        for t in (0.0, 5.0, 14.1, 25.0, 40.0)]


# ---------------------------------------------------------------- params ---

def test_select_params_reproduces_design_pairs():
    # the b = 81, t = 40 pair at ratio 1e-5 is the acceptance check
    # "tail ratio b=81 sigma=1 t=40"
    line = DirectLine(1.0)
    m, ratio = line.select(50.0)
    assert m == 50
    assert ratio == line.tail_ratio(50.0, 50) <= TARGET_RATIO
    # at t = 0 the ratios are astronomically small: schedule minimum
    assert DirectLine(0.5).select(0.0)[0] == 40


def test_select_params_exhaustion():
    with pytest.raises(ParameterExhaustionError, match="parameter exhaustion"):
        DirectLine(1.0).select(1000.0)


def test_select_params_validates_sigma():
    # selection runs on a DirectLine, behind its sigma check
    with pytest.raises(DomainError, match="direct evaluation"):
        DirectLine(0.3).select(0.0)


def test_each_tail_ratio_computed_once(monkeypatch):
    # a call is a line of one point: each m tried costs one tail ratio and
    # the selected m's ratio is reused in the budget.  E(n, b) is kept per
    # process: the first use of an m computes it once per n, later calls on
    # fresh lines compute none
    ratios, tails = [], []  # the m of every ratio, the b of every E(n, b)
    ratio = DirectLine._ratio

    def counting_ratio(line, gamma_mags, m):
        ratios.append(m)
        return ratio(line, gamma_mags, m)

    def counting_tail(n, b):
        tails.append(b)
        return gamma_tail_bound(n, b)

    monkeypatch.setattr(DirectLine, "_ratio", counting_ratio)
    monkeypatch.setattr(eta_core, "gamma_tail_bound", counting_tail)
    eta_core.tail_bounds.cache_clear()
    eta(ComplexPoint(0.5, 14.13))
    assert (ratios, tails) == ([40], [81.0] * 14)
    ratios.clear()
    tails.clear()
    assert eta(ComplexPoint(0.5, 45.0)).params.m == 50
    assert (ratios, tails) == ([40, 50], [101.0] * 14)
    ratios.clear()
    tails.clear()
    eta(ComplexPoint(0.5, 14.13), m=50)
    assert (ratios, tails) == ([50], [])
    ratios.clear()
    eta(ComplexPoint(0.75, 14.13))
    assert (ratios, tails) == ([40], [])


# ----------------------------------------------------------- partial sum ---

def test_partial_sum_two_terms():
    assert DirectLine(1.0).partial_sum(0.0, 1) == 0.5 + 0j


def test_partial_sum_cancels_at_s_zero():
    # the shared kernel with the s = 0 terms (-1)^(n+1), n = 1..6
    lns = [math.log(n) for n in range(1, 7)]
    assert dirichlet_sum([1.0, -1.0] * 3, lns, 0.0) == 0j


def test_partial_sum_at_two_against_exact_oracle():
    # brute-force rational sum of the first 80 terms
    exact = sum(Fraction((-1) ** (n + 1), n * n) for n in range(1, 81))
    value = DirectLine(2.0).partial_sum(0.0, 40)
    assert value.imag == 0.0
    assert value.real == pytest.approx(float(exact), abs=1e-15)
    assert abs(value.real - math.pi ** 2 / 12.0) < 1.6e-4


def test_partial_sum_rejects_bad_m():
    with pytest.raises(DomainError):
        DirectLine(1.0).partial_sum(0.0, 0)


# ------------------------------------------------------- correction term ---

def test_correction_reduces_to_half_at_s_zero():
    # every series term carries a factor s, and (2m+1)^0 = 1
    for m in (1, 40, 150):
        assert correction_term(ComplexPoint(0, 0), EvalParams(m=m)) == 0.5 + 0j


def test_correction_matches_remainder_oracle_at_one():
    # oracle: ln 2 minus the exact 80-term alternating harmonic sum, which
    # evaluates to 6.2109405508e-3 (leading term alone would be 1/162)
    exact_head = sum(Fraction((-1) ** (n + 1), n) for n in range(1, 81))
    remainder = math.log(2.0) - float(exact_head)
    corr = correction_term(ComplexPoint(1, 0), EvalParams(m=40))
    assert corr.imag == 0.0
    assert remainder == pytest.approx(6.2109405508e-3, abs=1e-12)
    assert corr.real == pytest.approx(remainder, abs=1e-13)


# ------------------------------------------------------------ direct route ---

def test_eta_raw_at_one():
    ln2 = math.log(2.0)
    v50 = DirectLine(1.0).eval(0.0, 50).value
    assert abs(v50 - ln2) < 1e-11
    assert f"{v50.real:.11f}" == "0.69314718056"
    v40 = DirectLine(1.0).eval(0.0, 40).value
    assert abs(v40 - ln2) < 1.5e-9


def test_eta_raw_at_first_on_line_zero():
    t = 2.0 * math.pi / math.log(2.0)
    v = DirectLine(1.0).eval(t, 50).value
    assert abs(v) < 1e-11


def test_eta_raw_at_lowest_critical_zero():
    result = DirectLine(0.5).eval(14.134725, 40)
    # residual comes from the rounded zero location plus the method error;
    # reference value confirmed against the 30-digit oracle
    assert 2.6e-7 < abs(result.value) < 2.75e-7
    ref = oracles.eta_reference(0.5, 14.134725)
    assert oracles.diff(result.value, ref) < 1e-10


def test_eta_raw_method_tag_and_params():
    result = DirectLine(0.75).eval(3.0, 40)
    assert result.method is MethodTag.DIRECT26
    assert result.params == EvalParams(m=40)


def test_eta_raw_domain():
    for sigma in (0.49, 3.01, -1.0):
        with pytest.raises(DomainError):
            DirectLine(sigma).eval(0.0, 40)


@settings(max_examples=80, deadline=None)
@given(sigma=st.floats(0.5, 3.0, allow_nan=False),
       t=st.floats(1e-3, 60.0, allow_nan=False),
       m=st.sampled_from([40, 50, 80]))
def test_eta_raw_conjugation(sigma, t, m):
    # only real constants enter, so conjugating s conjugates the result
    plus = DirectLine(sigma).eval(t, m).value
    minus = DirectLine(sigma).eval(-t, m).value
    assert abs(minus - plus.conjugate()) <= 2.0 * 2.3e-16 * abs(plus)


def test_monotone_refinement_on_grid():
    for sigma, t in GRID:
        line = DirectLine(sigma)
        coarse = line.eval(t, 40)
        fine = line.eval(t, 50)
        assert abs(fine.value - coarse.value) < coarse.budget.total


def test_oracle_agreement_on_grid():
    for sigma, t in GRID:
        result = DirectLine(sigma).eval(t, 50 if t >= 40 else 40)
        ref = oracles.eta_reference(sigma, t)
        allowed = max(result.budget.total, 5e-12)
        assert oracles.diff(result.value, ref) <= allowed, (sigma, t)


def test_oracle_agreement_against_accelerated_series():
    # same check against the in-repo accelerated-series oracle
    for sigma, t in ((0.5, 0.0), (0.75, 14.1), (1.0, 40.0)):
        result = DirectLine(sigma).eval(t, 50)
        ref = oracles.eta_alternating_accelerated(sigma, t)
        allowed = max(result.budget.total, 5e-12)
        assert oracles.diff(result.value, ref) <= allowed


# ----------------------------------------------------------------- budget ---

def test_budget_structure():
    result = DirectLine(0.75).eval(14.1, 40)
    budget = result.budget
    assert budget.integral_tail == math.exp(-81.0)
    for part in (budget.integral_tail, budget.series_truncation,
                 budget.dropped_gamma_tail):
        assert part >= 0.0
        assert budget.total >= part
    assert budget.total == pytest.approx(
        budget.integral_tail + budget.series_truncation
        + budget.dropped_gamma_tail, rel=1e-15)


def test_budget_extrapolation_flag():
    assert DirectLine(2.0).eval(1.0, 40).budget.extrapolated
    assert not DirectLine(0.9).eval(1.0, 40).budget.extrapolated


def test_budget_shrinks_with_m():
    for sigma, t in GRID:
        line = DirectLine(sigma)
        assert line.eval(t, 50).budget.total < line.eval(t, 40).budget.total


def test_budget_envelope_levels():
    # the a-priori envelope is deliberately conservative: near t = 40 it
    # reaches the 1e-6 scale while the observed error stays around 1e-13
    for sigma, t in GRID:
        total = DirectLine(sigma).eval(t, 40).budget.total
        assert total < 1e-5
        if t <= 5.0:
            assert total < 1e-8
