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
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

from .coefficients import c_coefficient
from .errors import (DomainError, GammaOverflowError, NonConvergentTailError,
                     PoleError)
from .eta_core import DirectLine, dirichlet_sum, log_table
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
POLE_GAP = 1.0 / sys.float_info.max  # |1 - 2^(1-s)| below it: s = 1 for zeta

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
_INNER_N = 2000  # at most TERMS_KEPT: its ln n are read from log_table


@dataclass(frozen=True)
class ExceptionalProximity:
    """Distance from s to the nearest point 1 +/- 2 pi n i / ln 2."""

    nearest_n: int
    distance: float


def exceptional_proximity(s: ComplexPoint) -> ExceptionalProximity:
    n = max(1, round(abs(s.t) * LN2 / (2.0 * math.pi)))
    t_exc = math.copysign(n * EXCEPTIONAL_SPACING, s.t)
    return ExceptionalProximity(nearest_n=n,
                                distance=math.hypot(s.sigma - 1.0, s.t - t_exc))


def check_sigma(sigma: float) -> None:
    """Raise DomainError unless SIGMA_MIN <= sigma <= SIGMA_MAX."""
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise DomainError(
            f"outside supported sigma range [{SIGMA_MIN:g}, {SIGMA_MAX:g}]")


def _one_minus_two_pow(w: complex) -> complex:
    """1 - 2^w = -expm1(w ln 2), without cancelling near w = 0: with
    w ln 2 = a + ib, 1 - e^a e^(ib) = 2 sin^2(b/2) - expm1(a) cos b
    - i e^a sin b."""
    a, b = w.real * LN2, w.imag * LN2
    half_sin = math.sin(0.5 * b)
    return complex(2.0 * half_sin * half_sin - math.expm1(a) * math.cos(b),
                   -math.exp(a) * math.sin(b))


def _fe_parts(z: complex) -> tuple[complex, complex]:
    """Numerator pi (1 - 2^z) and denominator Gamma(1-z) sin(pi z/2) (2 pi)^z
    of the multiplier G(s) with eta(1-s) = G(s) * zeta(s)."""
    try:  # sin overflows past |t| ~ 452, reachable only with an explicit m
        sine = cmath.sin(0.5 * math.pi * z)
    except OverflowError:
        raise GammaOverflowError(f"sin(pi s/2) overflows at s = {z}") from None
    return (math.pi * _one_minus_two_pow(z),
            gamma_reflected(1.0 - z) * sine
            * cmath.exp(z * math.log(2.0 * math.pi)))


def _zeta_dirichlet_tail(z: complex) -> complex:
    """zeta(z) for Re(z) >= 1.5 by direct summation to N with a two-term
    integral tail: sum_{n<=N} n^(-z) + N^(1-z)/(z-1) - N^(-z)/2."""
    mags = map(math.exp, map(operator.mul, repeat(-z.real, _INNER_N), log_table()))
    big_n = complex(_INNER_N, 0.0)
    tail = big_n ** (1.0 - z) / (z - 1.0) - 0.5 * big_n ** (-z)
    return dirichlet_sum(mags, log_table(), z.imag) + tail


def zeta_em_stepwise(s: ComplexPoint) -> EvalResult:
    """zeta(s) for |t| <= STEPWISE_T_MAX by stepping to the right:

        zeta(s) = 1 + (2/3)^(s-1) / (s-1) - sum_{k>=1} C_k(s) [zeta(s+2k) - 1]

    The inner zeta values sit at Re >= sigma + 2 and come from the direct
    series with an integral tail.  Terms are added until two consecutive ones
    fall below STEPWISE_TOL relative to the running value, for at most
    STEPWISE_K_MAX terms.  The budget is the flat STEPWISE_ERR_ENVELOPE.
    """
    z = s.z
    if z == 1.0:
        raise PoleError("pole at s=1")
    if abs(s.t) > STEPWISE_T_MAX:
        raise DomainError("exceptional point requires stepwise path beyond "
                          f"|t|<={STEPWISE_T_MAX:g}")
    acc = 1.0 + cmath.exp((z - 1.0) * math.log(2.0 / 3.0)) / (z - 1.0)
    consecutive_small = 0
    for k in range(1, STEPWISE_K_MAX + 1):
        term = (c_coefficient(k, s)
                * (_zeta_dirichlet_tail(z + 2.0 * k) - 1.0))
        acc -= term
        if abs(term) < STEPWISE_TOL * abs(acc):
            consecutive_small += 1
            if consecutive_small >= 2:
                budget = ErrorBudget.assemble(0.0, STEPWISE_ERR_ENVELOPE, 0.0)
                return EvalResult(acc, budget, MethodTag.STEPWISE3, None)
        else:
            consecutive_small = 0
    raise NonConvergentTailError(
        f"non-convergent tail: stopping criterion not met within "
        f"{STEPWISE_K_MAX} terms")


class Line:
    """eta and zeta along the vertical line Re s = sigma, each point routed
    here, once.  All points share one DirectLine at max(sigma, 1 - sigma),
    where the direct route evaluates and from where the reflection route
    reflects; m = None selects the cutoff per point.  Mutable: create one per
    caller, do not share between threads."""

    def __init__(self, sigma: float, m: int | None = None) -> None:
        check_sigma(sigma)
        self.sigma, self.m = sigma, m

    @cached_property
    def direct(self) -> DirectLine:
        # built on first use: a call refused before the direct route makes none
        return DirectLine(max(self.sigma, 1.0 - self.sigma))

    def eta(self, t: float) -> EvalResult:
        """eta(sigma + i t): direct for sigma >= 1/2, else reflected through
        the functional equation from eta(s'), s' = conj(1 - s), or from the
        stepwise zeta(s') inside its 0/0 zone; closed forms at s = 0, 1."""
        return self._eta(ComplexPoint(self.sigma, t))

    def _eta(self, s: ComplexPoint) -> EvalResult:
        z = s.z
        if z == 1.0:
            return EvalResult(complex(LN2, 0.0), ErrorBudget.exact(),
                              MethodTag.SPECIAL_VALUE, None)
        if z == 0.0:
            return EvalResult(complex(0.5, 0.0), ErrorBudget.exact(),
                              MethodTag.SPECIAL_VALUE, None)
        if s.sigma >= 0.5:
            return self.direct.eval(s.t, self.m)

        # eta(s') with s' = conj(1 - s), or inside the 0/0 zone of the
        # functional equation zeta(s'), whose conversion gap then cancels
        s_prime = ComplexPoint(1.0 - s.sigma, s.t)
        gap = _one_minus_two_pow(1.0 - s_prime.z)
        if abs(gap) < FE_DENOMINATOR_THRESHOLD:
            inner, gap, method = zeta_em_stepwise(s_prime), 1.0, MethodTag.STEPWISE3
        else:
            inner, method = self.direct.eval(s.t, self.m), MethodTag.REFLECTION27
        numerator, denominator = _fe_parts(s_prime.z)
        factor = numerator / (denominator * gap)
        return EvalResult(value=(inner.value * factor).conjugate(),
                          budget=inner.budget.scaled(abs(factor)),
                          method=method, params=inner.params)

    def zeta(self, t: float) -> EvalResult:
        """zeta(sigma + i t): eta(s) / (1 - 2^(1-s)), budget scaled alike, or
        the stepwise continuation (|t| <= 20 only) within
        EXCEPTIONAL_DISTANCE_THRESHOLD of an exceptional point."""
        s = ComplexPoint(self.sigma, t)
        z = s.z
        if z == 0.0:
            return EvalResult(complex(-0.5, 0.0), ErrorBudget.exact(),
                              MethodTag.SPECIAL_VALUE, None)
        if exceptional_proximity(s).distance < EXCEPTIONAL_DISTANCE_THRESHOLD:
            return zeta_em_stepwise(s)
        denominator = _one_minus_two_pow(1.0 - z)
        if abs(denominator) < POLE_GAP:
            raise PoleError("pole at s=1")
        eta_result = self._eta(s)
        return EvalResult(eta_result.value / denominator,
                          eta_result.budget.scaled(1.0 / abs(denominator)),
                          eta_result.method, eta_result.params)


def eta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """eta(s) on -0.5 <= sigma <= 3 (see Line.eta); m overrides the cutoff."""
    return Line(s.sigma, m).eta(s.t)


def zeta(s: ComplexPoint, m: int | None = None) -> EvalResult:
    """zeta(s) on -0.5 <= sigma <= 3, s != 1 (see Line.zeta); m overrides
    the cutoff."""
    return Line(s.sigma, m).zeta(s.t)
