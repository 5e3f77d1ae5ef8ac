import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eta_zeta import (ComplexPoint, DomainError, EvalParams,
                      IndeterminateFormError, MethodTag,
                      NonConvergentTailError, PoleError, eta,
                      exceptional_proximity, zeta)
from eta_zeta import zeta_bridge
from eta_zeta.eta_core import eta_raw
from eta_zeta.zeta_bridge import eta_functional_equation, zeta_em_stepwise

import oracles

T1 = 2.0 * math.pi / math.log(2.0)  # imaginary part of the first exceptional point


# ------------------------------------------------------------- proximity ---

def test_proximity_at_an_exceptional_point():
    prox = exceptional_proximity(ComplexPoint(1.0, 9.0647202836))
    assert prox.nearest_n == 1
    assert prox.distance < 1e-9


def test_proximity_from_half():
    prox = exceptional_proximity(ComplexPoint(0.5, 0.0))
    assert prox.nearest_n == 1
    assert prox.distance == pytest.approx(abs(0.5 - 1 - 1j * T1), rel=1e-10)
    assert prox.distance == pytest.approx(9.0785, abs=1e-4)


def test_proximity_halfway():
    prox = exceptional_proximity(ComplexPoint(1.0, 4.5323601418))
    assert prox.distance == pytest.approx(4.5324, abs=1e-4)


def test_proximity_negative_t():
    prox = exceptional_proximity(ComplexPoint(1.0, -T1))
    assert prox.nearest_n == 1
    assert prox.distance < 1e-12


# --------------------------------------------------- functional equation ---

def test_functional_equation_reaches_quarter():
    inner = eta_raw(ComplexPoint(0.75, 0.0), 50).value
    image = eta_functional_equation(inner, ComplexPoint(0.75, 0.0))
    ref = oracles.eta_reference(0.25, 0.0)
    assert oracles.diff(image, ref) <= 1e-9


def test_functional_equation_maps_zero_to_zero():
    s = ComplexPoint(0.5, 14.134725)
    inner = eta_raw(s, 40).value
    assert abs(eta_functional_equation(inner, s)) < 1e-5


def test_functional_equation_pole_and_indeterminate():
    with pytest.raises(PoleError):
        eta_functional_equation(math.log(2.0) + 0j, ComplexPoint(1.0, 0.0))
    with pytest.raises(IndeterminateFormError):
        eta_functional_equation(0j, ComplexPoint(1.0, 9.0647202836))


def test_functional_equation_limit_towards_one():
    # eta(-eps) from eta(1+eps) tends to eta(0) = 1/2
    eps = 1e-3
    s = ComplexPoint(1.0 + eps, 0.0)
    inner = eta_raw(s, 50).value
    image = eta_functional_equation(inner, s)
    assert abs(image - 0.5) < 5e-4
    assert oracles.diff(image, oracles.eta_reference(-eps, 0.0)) <= 1e-9


def test_functional_equation_round_trip():
    # the two multipliers F(s) F(1-s) cancel exactly
    for sigma, t in ((0.6, 2.5), (0.75, 7.0), (0.9, 2.5)):
        s = ComplexPoint(sigma, t)
        first = eta_raw(s, 40).value
        image = eta_functional_equation(first, s)
        back = eta_functional_equation(image, ComplexPoint(1.0 - sigma, -t))
        assert abs(back - first) <= 1e-9 * abs(first)


# ---------------------------------------------------------- eta dispatch ---

def test_eta_special_values():
    r1 = eta(ComplexPoint(1, 0))
    assert r1.value == complex(math.log(2.0), 0.0)
    assert r1.method is MethodTag.SPECIAL_VALUE
    assert r1.budget.total == 0.0
    r0 = eta(ComplexPoint(0, 0))
    assert r0.value == 0.5 + 0j
    assert r0.method is MethodTag.SPECIAL_VALUE


def test_eta_direct_region_tag():
    assert eta(ComplexPoint(0.5, 3.0)).method is MethodTag.DIRECT26
    assert eta(ComplexPoint(2.5, 0.0)).method is MethodTag.DIRECT26


def test_eta_reflection_region():
    result = eta(ComplexPoint(0.25, 5.0))
    assert result.method is MethodTag.REFLECTION27
    ref = oracles.eta_reference(0.25, 5.0)
    assert oracles.diff(result.value, ref) <= max(result.budget.total, 5e-12)


@pytest.mark.parametrize("sigma,t", [(-0.5, 2.0), (-0.25, -7.0), (0.0, 1.0),
                                     (0.49, 30.0), (0.1, 0.1)])
def test_eta_reflection_against_oracle(sigma, t):
    result = eta(ComplexPoint(sigma, t))
    ref = oracles.eta_reference(sigma, t)
    assert oracles.diff(result.value, ref) <= max(result.budget.total, 5e-12)


def test_eta_stepwise_image_on_the_zero_line():
    # s = i t1 reflects onto the first exceptional point, where the
    # functional equation is 0/0 and the stepwise route takes over
    result = eta(ComplexPoint(0.0, T1))
    assert result.method is MethodTag.STEPWISE3
    assert result.params is None
    ref = oracles.eta_reference(0.0, T1)
    assert oracles.diff(result.value, ref) <= 1e-9


def test_eta_stepwise_image_beyond_reach():
    with pytest.raises(DomainError, match="stepwise path beyond"):
        eta(ComplexPoint(0.0, 3.0 * T1))


def test_eta_domain():
    for sigma in (-0.6, 3.2):
        with pytest.raises(DomainError, match="sigma range"):
            eta(ComplexPoint(sigma, 0.0))


def test_eta_explicit_m_is_honoured():
    result = eta(ComplexPoint(0.5, 1.0), m=65)
    assert result.params == EvalParams(m=65)
    reflected = eta(ComplexPoint(0.25, 1.0), m=65)
    assert reflected.params == EvalParams(m=65)


# --------------------------------------------------------- zeta dispatch ---

def test_zeta_at_half():
    result = zeta(ComplexPoint(0.5, 0.0))
    assert result.value.real == pytest.approx(-1.4603545, abs=5e-8)
    assert result.method is MethodTag.DIRECT26
    eta_v = eta(ComplexPoint(0.5, 0.0)).value
    assert result.value.real == pytest.approx(
        eta_v.real / (1.0 - math.sqrt(2.0)), rel=1e-15)


def test_zeta_special_value_at_zero():
    result = zeta(ComplexPoint(0, 0))
    assert result.value == -0.5 + 0j
    assert result.method is MethodTag.SPECIAL_VALUE


def test_zeta_at_two():
    result = zeta(ComplexPoint(2, 0))
    assert abs(result.value - math.pi ** 2 / 6.0) <= max(result.budget.total,
                                                         5e-12)


def test_zeta_pole():
    with pytest.raises(PoleError, match="pole at s=1"):
        zeta(ComplexPoint(1, 0))


def test_zeta_at_first_exceptional_point():
    result = zeta(ComplexPoint(1.0, T1))
    assert result.method is MethodTag.STEPWISE3
    # consistency: eta reconstructed through the conversion must be ~0
    eta_back = result.value * (1.0 - cmath.exp((1.0 - (1.0 + 1j * T1))
                                               * math.log(2.0)))
    assert abs(eta_back) < 1e-6
    ref = oracles.zeta_reference(1.0, T1)
    assert oracles.diff(result.value, ref) <= 1e-9


def test_zeta_near_exceptional_point_uses_conversion():
    s = ComplexPoint(1.0, T1 + 1e-3)
    result = zeta(s)
    assert result.method is MethodTag.DIRECT26
    ref = oracles.zeta_reference(1.0, T1 + 1e-3)
    assert oracles.diff(result.value, ref) <= max(result.budget.total, 5e-12)


def test_zeta_third_exceptional_point_is_out_of_reach():
    with pytest.raises(DomainError, match="stepwise path beyond"):
        zeta(ComplexPoint(1.0, 3.0 * T1))


def test_zeta_budget_scaling():
    s = ComplexPoint(0.75, 3.0)
    eta_result = eta(s)
    zeta_result = zeta(s)
    denom = abs(1.0 - cmath.exp((1.0 - s.z) * math.log(2.0)))
    assert zeta_result.budget.total == pytest.approx(
        eta_result.budget.total / denom, rel=1e-12)


# ---------------------------------------------------------- stepwise route ---

def test_stepwise_at_two():
    assert abs(zeta_em_stepwise(ComplexPoint(2, 0)) - math.pi ** 2 / 6.0) <= 1e-10


def test_stepwise_at_zero():
    # all stepwise coefficients vanish at s = 0: 1 - 3/2 = -1/2
    assert abs(zeta_em_stepwise(ComplexPoint(0, 0)) + 0.5) <= 1e-14


def test_stepwise_guards(monkeypatch):
    with pytest.raises(PoleError):
        zeta_em_stepwise(ComplexPoint(1, 0))
    with pytest.raises(DomainError):
        zeta_em_stepwise(ComplexPoint(0.5, 25.0))
    monkeypatch.setattr(zeta_bridge, "STEPWISE_K_MAX", 2)
    with pytest.raises(NonConvergentTailError):
        zeta_em_stepwise(ComplexPoint(0.6, 12.0))


def test_cross_method_agreement():
    for sigma, t in ((0.8, 3.0), (1.0, 9.0), (0.6, 12.0)):
        s = ComplexPoint(sigma, t)
        direct = zeta(s).value
        stepwise = zeta_em_stepwise(s)
        assert abs(direct - stepwise) < 1e-8


# ------------------------------------------------------------- properties ---

@pytest.mark.parametrize("sigma,t", [(-0.5, 3.7), (-0.25, 12.3), (0.1, 7.7),
                                     (0.5, 14.134725), (0.75, 21.3),
                                     (1.0, 33.0), (1.5, 8.5), (2.5, 41.0),
                                     (0.6, 0.37), (0.9, 48.2)])
def test_conjugation_symmetry(sigma, t):
    for evaluate in (eta, zeta):
        plus = evaluate(ComplexPoint(sigma, t)).value
        minus = evaluate(ComplexPoint(sigma, -t)).value
        assert abs(minus - plus.conjugate()) <= 2.0 * 2.3e-16 * abs(plus)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.5, 1.0, allow_nan=False),
       t=st.floats(0.0, 40.0, allow_nan=False))
def test_conversion_identity(sigma, t):
    s = ComplexPoint(sigma, t)
    if exceptional_proximity(s).distance < 1e-2 or s.z == 1.0:
        return
    eta_v = eta(s).value
    zeta_v = zeta(s).value
    recon = zeta_v * (1.0 - cmath.exp((1.0 - s.z) * math.log(2.0)))
    assert abs(recon - eta_v) <= 4.0 * 2.3e-16 * abs(eta_v)
