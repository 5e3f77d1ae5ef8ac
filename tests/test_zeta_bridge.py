import cmath
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eta_zeta import (ComplexPoint, DomainError, ErrorBudget, EtaZetaError,
                      MethodTag, NonConvergentTailError, PoleError, eta,
                      exceptional_distance, zeta)
from eta_zeta import zeta_bridge
from eta_zeta.cli import scan_lines
from eta_zeta.zeta_bridge import Line, zeta_em_stepwise

import oracles

T1 = 2.0 * math.pi / math.log(2.0)  # imaginary part of the first exceptional point


# ------------------------------------------------------------- proximity ---

def test_proximity_at_an_exceptional_point():
    assert exceptional_distance(ComplexPoint(1.0, 9.0647202836)) < 1e-9


def test_proximity_from_half():
    distance = exceptional_distance(ComplexPoint(0.5, 0.0))
    assert distance == pytest.approx(abs(0.5 - 1 - 1j * T1), rel=1e-10)
    assert distance == pytest.approx(9.0785, abs=1e-4)


def test_proximity_halfway():
    distance = exceptional_distance(ComplexPoint(1.0, 4.5323601418))
    assert distance == pytest.approx(4.5324, abs=1e-4)


def test_proximity_negative_t():
    assert exceptional_distance(ComplexPoint(1.0, -T1)) < 1e-12


# --------------------------------------------------- functional equation ---
# The paper's formula serves both sides of sigma = 1/2, where a reflection
# through the functional equation once served sigma < 1/2: its values must
# satisfy eta(1-s) = F(s) eta(s) within their budgets, F from mpmath.

def _fe_multiplier(z):
    # F(s) = pi (1 - 2^s) / [Gamma(1-s) sin(pi s/2) (2 pi)^s (1 - 2^(1-s))]
    # at the double s, to 40 digits
    with mpmath.workdps(40):
        w = mpmath.mpc(z.real, z.imag)
        return (mpmath.pi * (1 - mpmath.power(2, w))
                / (mpmath.gamma(1 - w) * mpmath.sin(mpmath.pi * w / 2)
                   * mpmath.power(2 * mpmath.pi, w) * (1 - mpmath.power(2, 1 - w))))


def assert_functional_equation(s, image):
    # image = eta(1 - s) against F(s) eta(s), both from the library
    source = eta(s, m=image.m)
    factor = _fe_multiplier(s.z)
    reflected = factor * mpmath.mpc(source.value.real, source.value.imag)
    assert oracles.diff(image.value, reflected) \
        <= image.budget.total + float(abs(factor)) * source.budget.total


def test_functional_equation_reaches_quarter():
    # eta(1/4) directly, against the oracle and the image of eta(3/4)
    image = eta(ComplexPoint(0.25, 0.0), m=50)
    assert image.method is MethodTag.DIRECT26
    ref = oracles.eta_reference(0.25, 0.0)
    assert oracles.diff(image.value, ref) <= image.budget.total
    assert_functional_equation(ComplexPoint(0.75, 0.0), image)


def test_functional_equation_maps_zero_to_zero():
    # one ulp below sigma = 1/2 the first zero stays a zero
    s = ComplexPoint(math.nextafter(0.5, 0.0), 14.134725)
    image = eta(s, m=40)
    assert image.method is MethodTag.DIRECT26
    assert abs(image.value) < 1e-5
    assert_functional_equation(ComplexPoint(1.0 - s.sigma, -s.t), image)


def test_functional_equation_limit_towards_one():
    # eta(-eps), the image of eta(1+eps), tends to eta(0) = 1/2
    eps = 1e-3
    image = eta(ComplexPoint(-eps, 0.0), m=50)
    assert abs(image.value - 0.5) < 5e-4
    assert oracles.diff(image.value, oracles.eta_reference(-eps, 0.0)) \
        <= image.budget.total
    assert_functional_equation(ComplexPoint(1.0 + eps, 0.0), image)


def test_functional_equation_round_trip():
    # s -> 1 - s -> s: each side's value is the other's image
    for sigma, t in ((0.6, 2.5), (0.75, 7.0), (0.9, 2.5), (-0.4, 30.0)):
        s, mirror = ComplexPoint(sigma, t), ComplexPoint(1.0 - sigma, -t)
        assert_functional_equation(s, eta(mirror, m=40))
        assert_functional_equation(mirror, eta(s, m=40))


def test_zero_over_zero_routes_are_pinned():
    # the points where the functional equation was 0/0 (sigma near 0), now
    # direct, and the conversion next to an exceptional point, pinned bit
    # for bit
    image = eta(ComplexPoint(0.0, 9.064720283654388))
    assert image.value == (-1.5987345268086879-0.27833866963908294j)
    assert image.budget.total == 1.638028914413954e-13
    assert (image.method, image.m) == (MethodTag.DIRECT26, 16)
    assert (eta(ComplexPoint(1e-9, 0.0)).value
            == (0.5000000002257916+0j))
    assert (zeta(ComplexPoint(-1e-9, 0.0)).value
            == (-0.4999999990810614-0j))
    assert (zeta(ComplexPoint(1.0, 9.064720383654388)).value
            == (1.3465795532854368+0.10988311702034802j))


# ---------------------------------------------------------- eta dispatch ---

def test_eta_special_values():
    # s = 1 takes the direct route, one ulp above the double ln 2, within a
    # budget that also bounds the rounding of ln 2
    r1 = eta(ComplexPoint(1, 0))
    assert r1.value == complex(math.nextafter(math.log(2.0), 1.0), 0.0)
    assert (r1.method, r1.m) == (MethodTag.DIRECT26, 9)
    assert oracles.diff(r1.value, oracles.eta_reference(1.0, 0.0)) \
        <= r1.budget.total < 1e-9
    # s = 0 too: every term past 1/2 carries a factor s, so 1/2 exactly
    r0 = eta(ComplexPoint(0, 0))
    assert r0.value == 0.5 + 0j
    assert (r0.method, r0.m) == (MethodTag.DIRECT26, 1)


def test_eta_direct_region_tag():
    assert eta(ComplexPoint(0.5, 3.0)).method is MethodTag.DIRECT26
    assert eta(ComplexPoint(2.5, 0.0)).method is MethodTag.DIRECT26


def test_eta_reflection_region():
    # sigma < 1/2, the region a reflection once served, on the direct route
    result = eta(ComplexPoint(0.25, 5.0))
    assert result.method is MethodTag.DIRECT26
    ref = oracles.eta_reference(0.25, 5.0)
    assert oracles.diff(result.value, ref) <= result.budget.total


@pytest.mark.parametrize("sigma,t", [(-0.5, 2.0), (-0.25, -7.0), (0.0, 1.0),
                                     (0.49, 30.0), (0.1, 0.1)])
def test_eta_reflection_against_oracle(sigma, t):
    result = eta(ComplexPoint(sigma, t))
    ref = oracles.eta_reference(sigma, t)
    assert oracles.diff(result.value, ref) <= result.budget.total


def test_eta_stepwise_image_on_the_zero_line():
    # s = i t1, the image of the first exceptional point, where the
    # functional equation is 0/0, needs no stepwise route: 1 - 2^(1-s) = -1
    result = eta(ComplexPoint(0.0, T1))
    assert (result.method, result.m) == (MethodTag.DIRECT26, 16)
    ref = oracles.eta_reference(0.0, T1)
    assert oracles.diff(result.value, ref) <= result.budget.total


def test_eta_stepwise_image_beyond_reach():
    # the image of the third exceptional point, past the stepwise route's
    # |t| <= 20, is direct as well, for eta and zeta
    for function, reference in ((eta, oracles.eta_reference),
                                (zeta, oracles.zeta_reference)):
        result = function(ComplexPoint(0.0, 3.0 * T1))
        assert result.method is MethodTag.DIRECT26
        assert oracles.diff(result.value, reference(0.0, 3.0 * T1)) \
            <= result.budget.total


def test_eta_domain():
    for sigma in (-0.6, 3.2):
        with pytest.raises(DomainError, match="sigma range"):
            eta(ComplexPoint(sigma, 0.0))


def test_eta_explicit_m_is_honoured():
    result = eta(ComplexPoint(0.5, 1.0), m=65)
    assert result.m == 65
    reflected = eta(ComplexPoint(0.25, 1.0), m=65)
    assert reflected.m == 65


# every route and the former ones: direct on both sides of sigma = 1/2, next
# to s = 0, an exceptional point (stepwise), s = 0 and s = 1
M_ROUTES = [(zeta, 0.5, 1.0), (eta, 0.25, 5.0), (eta, 1e-9, 0.0),
            (zeta, 1.0, 9.0647202836), (eta, 0.0, 0.0), (zeta, 0.0, 0.0),
            (eta, 1.0, 0.0)]


@pytest.mark.parametrize("m", [0, -3])
@pytest.mark.parametrize("function,sigma,t", M_ROUTES)
def test_m_below_one_is_refused_on_every_route(function, sigma, t, m):
    with pytest.raises(DomainError, match="m must be >= 1"):
        function(ComplexPoint(sigma, t), m=m)


@pytest.mark.parametrize("function,sigma,t", M_ROUTES)
def test_m_must_be_an_integer_on_every_route(function, sigma, t):
    # a non-integer m is refused like m < 1; True is the integer 1, and the
    # result says so with an int
    point = ComplexPoint(sigma, t)
    with pytest.raises(DomainError, match="m must be an integer"):
        function(point, m=2.5)
    one, true = function(point, m=1), function(point, m=True)
    assert true == one and type(true.m) is type(one.m)


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_integer_m_is_a_domain_error_in_scans_and_sums(jobs):
    # neither a bare TypeError (t = 1) nor islice's ValueError (t = 14)
    for t in (1.0, 14.0):
        with pytest.raises(DomainError, match="m must be an integer"):
            list(scan_lines("csv", "zeta", 0.5, t, t + 1.0, 0.5, m=2.5, jobs=jobs))
        with pytest.raises(DomainError, match="m must be an integer"):
            Line(0.5).partial_sum(t, 2.5)
        assert Line(0.5).partial_sum(t, True) == Line(0.5).partial_sum(t, 1)


# every entry that takes a sigma or a t from a caller
INPUT_ENTRIES = {
    "ComplexPoint sigma": lambda x: ComplexPoint(x, 0.0),
    "ComplexPoint t": lambda x: ComplexPoint(0.5, x),
    "Line sigma": Line,
    "eta": lambda x: Line(0.5).eta(x),
    "zeta": lambda x: Line(0.5).zeta(x),
    "select": lambda x: Line(0.5).select(x),
    "partial_sum": lambda x: Line(0.5).partial_sum(x, 3),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None,
                                   pytest.param(10 ** 400, id="10**400")])
@pytest.mark.parametrize("entry", list(INPUT_ENTRIES))
def test_non_finite_or_non_numeric_input_is_a_domain_error(entry, value):
    # neither a value (partial_sum returned nan+nanj at nan) nor a bare
    # ValueError, TypeError or OverflowError (10 ** 400 has no float), nor
    # the T_MAX refusal for a nan t
    with pytest.raises(DomainError):
        INPUT_ENTRIES[entry](value)


# ------------------------------------------------------------ near s = 0 ---

def test_near_zero_within_budget():
    # 400 points at 1e-15 .. 1e-8 from s = 0, each through eta and zeta, once
    # the functional equation's 0/0 zone.  No floor under the budget
    rng = random.Random(11)
    outside = []
    for _ in range(400):
        d = 10.0 ** rng.uniform(-15.0, -8.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        sigma, t = d * math.cos(angle), d * math.sin(angle)
        for function, reference in ((eta, oracles.eta_reference),
                                    (zeta, oracles.zeta_reference)):
            result = function(ComplexPoint(sigma, t))
            err = oracles.diff(result.value, reference(sigma, t))
            if not err <= result.budget.total:
                outside.append((function.__name__, sigma, t,
                                err / result.budget.total))
    assert outside == []


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
    assert (result.method, result.m) == (MethodTag.DIRECT26, 1)


def test_zeta_at_two():
    result = zeta(ComplexPoint(2, 0))
    assert abs(result.value - math.pi ** 2 / 6.0) <= result.budget.total


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
    assert oracles.diff(result.value, ref) <= result.budget.total


def test_zeta_third_exceptional_point_is_out_of_reach():
    with pytest.raises(DomainError, match="stepwise path beyond"):
        zeta(ComplexPoint(1.0, 3.0 * T1))


# next to the pole, where 1 - 2^(1-s) must not cancel: s = 1 +/- 1e-8, the
# doubles either side of 1, one of them with a tiny imaginary part, and
# s = 1 + delta e^(i k pi/4) for delta = 1e-4 .. 1e-12
NEAR_POLE = [(1.0 + 1e-8, 0.0), (1.0 - 1e-8, 0.0), (1.0 + 2.0 ** -52, 0.0),
             (1.0 - 2.0 ** -53, 0.0), (1.0 - 2.0 ** -53, 1e-308)]
NEAR_POLE += [(z.real, z.imag) for z in (
    1.0 + 10.0 ** -e * cmath.exp(0.25j * math.pi * k)
    for e in range(4, 13) for k in range(8)) if (z.real, z.imag) not in NEAR_POLE]


@pytest.mark.parametrize("sigma,t", NEAR_POLE)
def test_zeta_near_pole_within_budget(sigma, t):
    # no floor under the budget: it must bound the error by itself
    result = zeta(ComplexPoint(sigma, t))
    ref = oracles.zeta_reference(sigma, t)
    assert oracles.diff(result.value, ref) <= result.budget.total


def test_zeta_budget_scaling():
    # zeta's value is eta's over 1 - 2^(1-s), and each budget part is eta's
    # times 1 / |1 - 2^(1-s)|, bit for bit
    for sigma, t in ((-0.3, 20.0), (-0.3, -170.0), (0.5, 14.134725), (0.5, 170.0),
                     (0.75, 3.0), (0.75, -101.5), (2.5, 0.5), (2.5, 170.0)):
        s = ComplexPoint(sigma, t)
        eta_result, zeta_result = eta(s), zeta(s)
        denominator = zeta_bridge._one_minus_two_pow(1.0 - s.z)
        scale = abs(1.0 / abs(denominator))
        assert zeta_result.value == eta_result.value / denominator, s
        assert zeta_result.budget.truncation.hex() \
            == (eta_result.budget.truncation * scale).hex(), s
        assert zeta_result.budget.rounding.hex() \
            == (eta_result.budget.rounding * scale).hex(), s
        assert zeta_result.m == eta_result.m, s


# ---------------------------------------------------------- stepwise route ---

def test_stepwise_at_two():
    result = zeta_em_stepwise(ComplexPoint(2, 0))
    assert abs(result.value - math.pi ** 2 / 6.0) <= 1e-10
    assert result.budget == ErrorBudget.assemble(zeta_bridge.STEPWISE_ERR_ENVELOPE,
                                                 8.0 * 2.0 ** -53 * abs(result.value))
    assert result.method is MethodTag.STEPWISE3
    assert result.m is None


def test_stepwise_at_zero():
    # all stepwise coefficients vanish at s = 0: 1 - 3/2 = -1/2
    assert abs(zeta_em_stepwise(ComplexPoint(0, 0)).value + 0.5) <= 1e-14


def test_stepwise_guards(monkeypatch):
    with pytest.raises(PoleError):
        zeta_em_stepwise(ComplexPoint(1, 0))
    with pytest.raises(DomainError, match="stepwise path beyond"):
        zeta_em_stepwise(ComplexPoint(0.5, 25.0))
    monkeypatch.setattr(zeta_bridge, "STEPWISE_K_MAX", 2)
    with pytest.raises(NonConvergentTailError):
        zeta_em_stepwise(ComplexPoint(0.6, 12.0))


# ------------------------------------------------------------- properties ---

@pytest.mark.parametrize("sigma,t", [(-0.5, 3.7), (-0.25, 12.3), (0.1, 7.7),
                                     (0.5, 14.134725), (0.75, 21.3),
                                     (1.0, 33.0), (1.5, 8.5), (2.5, 41.0),
                                     (0.6, 0.37), (0.9, 48.2),
                                     # zeta takes the stepwise route here
                                     (1.0, T1 + 3e-5), (1.0 + 2e-5, 2.0 * T1 - 4e-5),
                                     (1.0, T1 + 1e-9)])
def test_conjugation_symmetry(sigma, t):
    # bit for bit on one line, which reuses its sigma-only state at -t; the
    # 2-ulp check on separate calls is the acceptance check "conjugation
    # symmetry eta/zeta (20 pts)"
    line = Line(sigma)
    for evaluate in (line.eta, line.zeta):
        plus, minus = evaluate(t), evaluate(-t)
        assert minus.value == plus.value.conjugate()
        assert ((minus.budget, minus.method, minus.m)
                == (plus.budget, plus.method, plus.m))


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.5, 1.0, allow_nan=False),
       t=st.floats(0.0, 40.0, allow_nan=False))
@example(sigma=1.0, t=5e-324)  # |zeta| ~ 1/|s - 1| past the double range
@example(sigma=math.nextafter(1.0, 0.0), t=0.0)  # 1 - 2^(1-s) rounds to 0
def test_conversion_identity(sigma, t):
    s = ComplexPoint(sigma, t)
    if exceptional_distance(s) < 1e-2:
        return
    eta_v = eta(s).value
    try:
        zeta_v = zeta(s).value
    except PoleError:
        # only where |1 - 2^(1-s)| falls below the double range's reciprocal:
        # within about 1e-308 of s = 1, so on sigma = 1
        assert sigma == 1.0 and abs(t) < 1e-300
        return
    # rebuild eta with 1 - 2^(1-s) = -expm1(w) to 40 digits, at the double
    # w = (1 - s) ln 2 the conversion rounds to, not with a double
    # 1 - exp(w) that cancels next to s = 1
    w = (1.0 - s.z) * math.log(2.0)
    with mpmath.workdps(40):
        factor = -mpmath.expm1(mpmath.mpc(w.real, w.imag))
        recon = mpmath.mpc(zeta_v.real, zeta_v.imag) * factor
    assert oracles.diff(eta_v, recon) <= 4.0 * 2.3e-16 * abs(eta_v)


# s != 0 within about 1e-16 of 0, with t subnormal or 0, where the reflected
# point conj(1 - s) rounded onto s = 1: the direct route returns values
NEXT_TO_ZERO = [(0.0, 5e-324), (0.0, 1e-310), (1e-320, 0.0), (-1e-17, 0.0),
                (1e-300, 0.0)]


@pytest.mark.parametrize("sigma,t", NEXT_TO_ZERO)
def test_points_next_to_zero_within_budget(sigma, t):
    for function, reference in ((eta, oracles.eta_reference),
                                (zeta, oracles.zeta_reference)):
        result = function(ComplexPoint(sigma, t))
        assert result.method is MethodTag.DIRECT26
        assert oracles.diff(result.value, reference(sigma, t)) <= result.budget.total


# next to s = 1 the stepwise value grows like 1/(s - 1): its rounding, not
# the flat envelope, bounds the error
@pytest.mark.parametrize("sigma,t", [(1.0 + 1e-8, 0.0), (1.0 - 1e-9, 0.0),
                                     (1.0 + 1e-12, 0.0), (1.0, 1e-12),
                                     (1.0, 6e-309)])
def test_stepwise_within_budget_next_to_the_pole(sigma, t):
    result = zeta_em_stepwise(ComplexPoint(sigma, t))
    assert oracles.diff(result.value, oracles.zeta_reference(sigma, t)) \
        <= result.budget.total


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_stepwise_refuses_within_the_pole_gap(t):
    # 1 / (s - 1) would leave the double range
    with pytest.raises(PoleError):
        zeta_em_stepwise(ComplexPoint(1.0, t))


@pytest.mark.parametrize("sigma,t,m", [
    (0.0, 6e-309, None), (-3e-308, 2e-308, None),  # next to s = 0
    # past the reach T_MAX with an explicit m, where the former reflection's
    # sin(pi s'/2) and |Gamma(1 - s')| left the double range on their own
    (-0.3, 480.0, 150), (0.2, 460.0, 200), (-0.5, 1000.0, 1000)])
def test_reflection_returns_finite_values_within_budget(sigma, t, m):
    for function, reference in ((eta, oracles.eta_reference),
                                (zeta, oracles.zeta_reference)):
        result = function(ComplexPoint(sigma, t), m=m)
        assert cmath.isfinite(result.value), (function, sigma, t)
        assert oracles.diff(result.value, reference(sigma, t)) <= result.budget.total


@pytest.mark.parametrize("m", [None, 40])
@pytest.mark.parametrize("sigma", [-0.5, 0.25, 0.75, 3.0])
def test_extreme_points_are_refused_or_finite(sigma, m):
    # far past T_MAX: with m = 40 the truncation bound stays finite
    # until |(s)_15| leaves the double range
    points = [(sigma, t) for t in (460.0, -460.0, 500.0, -500.0, 1000.0,
                                   -1000.0, 1e150)]
    points += [(1.0, 5e-324), (math.nextafter(1.0, 0.0), 0.0)]
    for sigma_p, t in points:
        for evaluate in (eta, zeta):
            try:
                result = evaluate(ComplexPoint(sigma_p, t), m=m)
            except EtaZetaError:
                continue
            assert cmath.isfinite(result.value), (evaluate, sigma_p, t)
            assert math.isfinite(result.budget.total), (evaluate, sigma_p, t)
        for function in ("eta", "zeta"):
            _, row = scan_lines("csv", function, sigma_p, t, t, 1.0, m=m)
            fields = row.split(",")
            if fields[5] != "error":
                assert all(math.isfinite(float(fields[i])) for i in (2, 3, 6))
    with pytest.raises(PoleError):
        zeta(ComplexPoint(1.0, 5e-324), m=m)
