"""Shared value types: evaluation points, results, budgets."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, ParameterExhaustionError


class MethodTag(str, enum.Enum):
    """Which code path produced a result."""

    DIRECT26 = "Direct26"          # partial sum plus correction term
    REFLECTION27 = "Reflection27"  # functional-equation image of a direct result
    SPECIAL_VALUE = "SpecialValue"  # closed-form value (s = 0 or s = 1)
    STEPWISE3 = "Stepwise3"        # stepwise continuation through s + 2k

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ComplexPoint:
    """An evaluation point s = sigma + i*t, held as two doubles."""

    sigma: float
    t: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "t", float(self.t))
        if not (math.isfinite(self.sigma) and math.isfinite(self.t)):
            raise DomainError("evaluation point must be finite")

    @property
    def z(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class ErrorBudget:
    """A-priori error bound, decomposed by approximation.

    integral_tail      : bound exp(-b) on the kernel integral dropped past y = b
    series_truncation  : envelope for cutting the correction series at r = 7
    dropped_gamma_tail : worst tail-to-gamma ratio times the correction size
    total              : sum of the four components, finite
    extrapolated       : True when sigma is outside [1/2, 1], where the
                         underlying error analysis was calibrated
    reflection_factor  : rounding error of the functional-equation factor
                         times |value|; 0 where no reflection ran
    """

    integral_tail: float
    series_truncation: float
    dropped_gamma_tail: float
    total: float
    extrapolated: bool = False
    reflection_factor: float = 0.0

    def __post_init__(self) -> None:
        for name in ("integral_tail", "series_truncation", "dropped_gamma_tail",
                     "reflection_factor"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative")
        if not self.total < math.inf:  # past the schedule with an explicit m
            raise ParameterExhaustionError(
                "parameter exhaustion: the error budget exceeds double range")

    @classmethod
    def assemble(cls, integral_tail: float, series_truncation: float,
                 dropped_gamma_tail: float, extrapolated: bool = False,
                 reflection_factor: float = 0.0) -> "ErrorBudget":
        total = (integral_tail + series_truncation + dropped_gamma_tail
                 + reflection_factor)
        return cls(integral_tail, series_truncation, dropped_gamma_tail, total,
                   extrapolated, reflection_factor)

    @classmethod
    def exact(cls) -> "ErrorBudget":
        return cls(0.0, 0.0, 0.0, 0.0)

    def scaled(self, factor: float, factor_error: float = 0.0) -> "ErrorBudget":
        """Budget after the value is multiplied by a factor of magnitude
        |factor|, plus factor_error for the factor's own rounding."""
        f = abs(factor)
        return ErrorBudget.assemble(self.integral_tail * f,
                                    self.series_truncation * f,
                                    self.dropped_gamma_tail * f,
                                    self.extrapolated,
                                    self.reflection_factor * f + factor_error)


@dataclass(frozen=True)
class EvalResult:
    """Complex value, its budget, the code path that produced it, and the
    cutoff m of its 2m-term direct sum (None where no direct sum ran)."""

    value: complex
    budget: ErrorBudget
    method: MethodTag
    m: int | None
