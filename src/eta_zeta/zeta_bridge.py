"""User-facing eta and zeta over the strip -0.5 <= sigma <= 3.

zeta(s) = eta(s) / (1 - 2^(1-s)) away from the exceptional points
s = 1 +/- 2 pi n i / ln 2, where that quotient is 0/0 and a stepwise
continuation through zeta(s + 2k) takes over.  Points with sigma < 1/2 are
reached by reflecting sigma' = 1 - sigma through the functional equation

    eta(1-s) = pi eta(s) (1 - 2^s)
               / [ Gamma(1-s) sin(pi s / 2) (2 pi)^s (1 - 2^(1-s)) ]

applied at s' = conj(1 - s), conjugating the result back.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .coefficients import c_coefficient
from .errors import (DomainError, IndeterminateFormError,
                     NonConvergentTailError, PoleError)
from .eta_core import eta_raw
from .gamma import gamma_reflected
from .types import ComplexPoint, ErrorBudget, EvalResult, MethodTag

LN2 = math.log(2.0)
EXCEPTIONAL_SPACING = 2.0 * math.pi / LN2  # imaginary gap between zeros of 1 - 2^(1-s)

SIGMA_MIN = -0.5
SIGMA_MAX = 3.0

# Below this distance from an exceptional point the conversion denominator
# amplifies the eta budget past what the stepwise route delivers.
EXCEPTIONAL_DISTANCE_THRESHOLD = 1e-4
# Guard on |1 - 2^(1-s)| inside the functional equation (the 0/0 zone).
FE_DENOMINATOR_THRESHOLD = 1e-4

# Stepwise route: term magnitudes peak like e^(e|t|/4); past |t| = 20 the
# cancellation in double precision is no longer acceptable.
STEPWISE_T_MAX = 20.0
STEPWISE_K_MAX = 30
STEPWISE_TOL = 1e-13
# Conservative flat error envelope for a stepwise zeta value at |t| <= 20
# (inner-series residual below 1e-11 plus the cancellation floor).
STEPWISE_ERR_ENVELOPE = 1e-9

# Inner Dirichlet series cutoff; the two-term tail correction leaves a
# residual under |z| N^(-sigma-1) / 12 < 1e-11 for sigma >= 2, |t| <= 20.
_INNER_N = 2000
_INNER_LOG = [0.0] * (_INNER_N + 1)
for _n in range(1, _INNER_N + 1):
    _INNER_LOG[_n] = math.log(_n)

_STEPWISE_RANGE_MESSAGE = "exceptional point requires stepwise path beyond |t|<=20"


@dataclass(frozen=True)
class ExceptionalProximity:
    """Distance from s to the nearest point 1 +/- 2 pi n i / ln 2."""

    nearest_n: int
    distance: float


def exceptional_proximity(s: ComplexPoint) -> ExceptionalProximity:
    n = max(1, round(abs(s.t) * LN2 / (2.0 * math.pi)))
    t_exc = math.copysign(n * EXCEPTIONAL_SPACING, s.t) if s.t != 0.0 \
        else n * EXCEPTIONAL_SPACING
    return ExceptionalProximity(nearest_n=n,
                                distance=math.hypot(s.sigma - 1.0, s.t - t_exc))


def check_sigma(sigma: float) -> None:
    """Raise DomainError unless SIGMA_MIN <= sigma <= SIGMA_MAX."""
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise DomainError(
            f"outside supported sigma range [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")


def _one_minus_two_pow(w: complex) -> complex:
    """1 - 2^w."""
    return 1.0 - cmath.exp(w * LN2)


def _fe_parts(z: complex) -> tuple[complex, complex]:
    """Numerator pi (1 - 2^z) and denominator Gamma(1-z) sin(pi z/2) (2 pi)^z
    of the multiplier G(s) with eta(1-s) = G(s) * zeta(s)."""
    return (math.pi * _one_minus_two_pow(z),
            gamma_reflected(1.0 - z) * cmath.sin(0.5 * math.pi * z)
            * cmath.exp(z * math.log(2.0 * math.pi)))


def _fe_factor(s: ComplexPoint) -> complex:
    """Multiplier F(s) with eta(1-s) = F(s) * eta(s): G(s) with the
    conversion denominator 1 - 2^(1-s) divided out."""
    z = s.z
    if z == 1.0:
        raise PoleError("pole at s=1")
    denom_gap = _one_minus_two_pow(1.0 - z)
    if abs(denom_gap) < FE_DENOMINATOR_THRESHOLD:
        raise IndeterminateFormError(
            "0/0 in the functional equation near an exceptional point; "
            "use the stepwise route")
    numerator, denominator = _fe_parts(z)
    return numerator / (denominator * denom_gap)


def eta_functional_equation(eta_s: complex, s: ComplexPoint) -> complex:
    """Map eta(s) to eta(1-s).

    Raises IndeterminateFormError inside the 0/0 zone around exceptional
    points (callers switch to the stepwise route) and PoleError at s = 1.
    """
    return eta_s * _fe_factor(s)


def _zeta_dirichlet_tail(z: complex) -> complex:
    """zeta(z) for Re(z) >= 1.5 by direct summation to N with a two-term
    integral tail: sum_{n<=N} n^(-z) + N^(1-z)/(z-1) - N^(-z)/2."""
    sigma, t = z.real, z.imag
    sum_re = sum_im = carry_re = carry_im = 0.0
    for n in range(1, _INNER_N + 1):
        ln_n = _INNER_LOG[n]
        mag = math.exp(-sigma * ln_n)
        angle = t * ln_n
        term_re = mag * math.cos(angle)
        term_im = -mag * math.sin(angle)
        y = term_re - carry_re
        tmp = sum_re + y
        carry_re = (tmp - sum_re) - y
        sum_re = tmp
        y = term_im - carry_im
        tmp = sum_im + y
        carry_im = (tmp - sum_im) - y
        sum_im = tmp
    big_n = complex(_INNER_N, 0.0)
    tail = big_n ** (1.0 - z) / (z - 1.0) - 0.5 * big_n ** (-z)
    return complex(sum_re, sum_im) + tail


def zeta_em_stepwise(s: ComplexPoint) -> complex:
    """zeta(s) by stepping to the right:

        zeta(s) = 1 + (2/3)^(s-1) / (s-1) - sum_{k>=1} C_k(s) [zeta(s+2k) - 1]

    The inner zeta values sit at Re >= sigma + 2 and come from the direct
    series with an integral tail.  Terms are added until two consecutive ones
    fall below STEPWISE_TOL relative to the running value, for at most
    STEPWISE_K_MAX terms.
    """
    z = s.z
    if z == 1.0:
        raise PoleError("pole at s=1")
    if abs(s.t) > STEPWISE_T_MAX:
        raise DomainError(
            f"stepwise path supports |t| <= {STEPWISE_T_MAX:g} "
            f"(cancellation grows like e^(e|t|/4)); got t = {s.t:g}")
    acc = 1.0 + cmath.exp((z - 1.0) * math.log(2.0 / 3.0)) / (z - 1.0)
    consecutive_small = 0
    for k in range(1, STEPWISE_K_MAX + 1):
        term = (c_coefficient(k, s)
                * (_zeta_dirichlet_tail(z + 2.0 * k) - 1.0))
        acc -= term
        if abs(term) < STEPWISE_TOL * abs(acc):
            consecutive_small += 1
            if consecutive_small >= 2:
                return acc
        else:
            consecutive_small = 0
    raise NonConvergentTailError(
        f"non-convergent tail: stopping criterion not met within "
        f"{STEPWISE_K_MAX} terms")


def _stepwise_eta_image(sp: ComplexPoint) -> EvalResult:
    # eta at conj(1 - sp) through zeta(sp): the 0/0 of the functional
    # equation cancels once the conversion denominator is folded into zeta.
    if abs(sp.t) > STEPWISE_T_MAX:
        raise DomainError(_STEPWISE_RANGE_MESSAGE)
    zeta_sp = zeta_em_stepwise(sp)
    numerator, denominator = _fe_parts(sp.z)
    factor = numerator / denominator
    value = (zeta_sp * factor).conjugate()
    budget = ErrorBudget.assemble(0.0, STEPWISE_ERR_ENVELOPE * abs(factor), 0.0)
    return EvalResult(value=value, budget=budget, method=MethodTag.STEPWISE3,
                      params=None)


def eta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """eta(s) on -0.5 <= sigma <= 3.

    sigma >= 1/2 evaluates directly; sigma < 1/2 reflects sigma' = 1 - sigma
    through the functional equation at s' = conj(1-s) and conjugates back.
    s = 0 and s = 1 return their closed-form values.  An explicit m overrides
    the automatic cutoff selection.
    """
    check_sigma(s.sigma)
    z = s.z
    if z == 1.0:
        return EvalResult(complex(LN2, 0.0), ErrorBudget.exact(),
                          MethodTag.SPECIAL_VALUE, None)
    if z == 0.0:
        return EvalResult(complex(0.5, 0.0), ErrorBudget.exact(),
                          MethodTag.SPECIAL_VALUE, None)
    if s.sigma >= 0.5:
        return eta_raw(s, m)

    s_prime = ComplexPoint(1.0 - s.sigma, s.t)  # conj(1 - s)
    try:
        factor = _fe_factor(s_prime)
    except IndeterminateFormError:
        return _stepwise_eta_image(s_prime)
    inner = eta_raw(s_prime, m)
    value = (inner.value * factor).conjugate()
    return EvalResult(value=value, budget=inner.budget.scaled(abs(factor)),
                      method=MethodTag.REFLECTION27, params=inner.params)


def zeta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """zeta(s) on -0.5 <= sigma <= 3, s != 1.

    Away from exceptional points: eta(s) / (1 - 2^(1-s)), budget scaled by
    the reciprocal denominator magnitude.  Within the exceptional threshold
    the stepwise continuation is used instead (supported for |t| <= 20).
    """
    check_sigma(s.sigma)
    z = s.z
    if z == 1.0:
        raise PoleError("pole at s=1")
    if z == 0.0:
        return EvalResult(complex(-0.5, 0.0), ErrorBudget.exact(),
                          MethodTag.SPECIAL_VALUE, None)
    if exceptional_proximity(s).distance >= EXCEPTIONAL_DISTANCE_THRESHOLD:
        eta_result = eta(s, m=m)
        denominator = _one_minus_two_pow(1.0 - z)
        return EvalResult(value=eta_result.value / denominator,
                          budget=eta_result.budget.scaled(1.0 / abs(denominator)),
                          method=eta_result.method,
                          params=eta_result.params)
    if abs(s.t) > STEPWISE_T_MAX:
        raise DomainError(_STEPWISE_RANGE_MESSAGE)
    value = zeta_em_stepwise(s)
    budget = ErrorBudget.assemble(0.0, STEPWISE_ERR_ENVELOPE, 0.0)
    return EvalResult(value=value, budget=budget, method=MethodTag.STEPWISE3,
                      params=None)
