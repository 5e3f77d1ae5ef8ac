"""Shared value types, as immutable named tuples: points, results, budgets."""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import DomainError, ParameterExhaustionError


class MethodTag(str, enum.Enum):
    """Which code path produced a result."""

    DIRECT26 = "Direct26"          # partial sum plus correction term
    REFLECTION27 = "Reflection27"  # functional-equation image of a direct result
    SPECIAL_VALUE = "SpecialValue"  # closed-form value at s = 0
    STEPWISE3 = "Stepwise3"        # stepwise continuation through s + 2k

    def __str__(self) -> str:
        return self.value


def _checked_make(cls, fields):
    # namedtuple's _make (and with it _replace) skips __new__; keep the checks
    return cls(*fields)


class ComplexPoint(namedtuple("ComplexPoint", "sigma t")):
    """An evaluation point s = sigma + i*t, held as two doubles."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, sigma: float, t: float) -> ComplexPoint:
        sigma, t = float(sigma), float(t)
        if not (math.isfinite(sigma) and math.isfinite(t)):
            raise DomainError("evaluation point must be finite")
        return tuple.__new__(cls, (sigma, t))

    @property
    def z(self) -> complex:
        return complex(self.sigma, self.t)


class ErrorBudget(namedtuple("ErrorBudget", "kernel_tail series_truncation total "
                             "extrapolated reflection_factor")):
    """A-priori error bound, decomposed by approximation.

    kernel_tail        : bound on the kernel integral dropped past y = b
                         (eta_core.kernel_tail)
    series_truncation  : envelope for cutting the correction series at r = 7
    total              : sum of the three components, finite
    extrapolated       : True when sigma is outside [1/2, 1], where the
                         series envelope was calibrated
    reflection_factor  : rounding error of the functional-equation factor
                         times |value|; 0 where no reflection ran
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, kernel_tail: float, series_truncation: float, total: float,
                extrapolated: bool = False, reflection_factor: float = 0.0) -> ErrorBudget:
        self = tuple.__new__(cls, (kernel_tail, series_truncation, total,
                                   extrapolated, reflection_factor))
        for name in ("kernel_tail", "series_truncation", "reflection_factor"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative")
        if not total < math.inf:  # past the schedule with an explicit m
            raise ParameterExhaustionError(
                "parameter exhaustion: the error budget exceeds double range")
        return self

    @classmethod
    def assemble(cls, kernel_tail: float, series_truncation: float,
                 extrapolated: bool = False, reflection_factor: float = 0.0) -> ErrorBudget:
        total = kernel_tail + series_truncation + reflection_factor
        return cls(kernel_tail, series_truncation, total, extrapolated, reflection_factor)

    @classmethod
    def exact(cls) -> ErrorBudget:
        return cls(0.0, 0.0, 0.0)

    def scaled(self, factor: float, factor_error: float = 0.0) -> ErrorBudget:
        """Budget after the value is multiplied by a factor of magnitude
        |factor|, plus factor_error for the factor's own rounding."""
        f = abs(factor)
        return ErrorBudget.assemble(self.kernel_tail * f, self.series_truncation * f,
                                    self.extrapolated,
                                    self.reflection_factor * f + factor_error)


class EvalResult(namedtuple("EvalResult", "value budget method m")):
    """Complex value, its budget, the code path that produced it, and the
    cutoff m of its 2m-term direct sum (None where no direct sum ran)."""

    __slots__ = ()
