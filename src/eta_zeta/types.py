"""Shared value types: evaluation points, method parameters, results, budgets."""

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
class EvalParams:
    """Method parameters: 2*m directly summed terms, cutoff b = 2m+1."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError("m must be a positive integer")

    @property
    def b(self) -> int:
        return 2 * self.m + 1

    @property
    def beta(self) -> float:
        return 1.0 / self.b


@dataclass(frozen=True)
class ErrorBudget:
    """A-priori error bound, decomposed by approximation.

    integral_tail      : bound exp(-b) on the kernel integral dropped past y = b
    series_truncation  : envelope for cutting the correction series at r = 7
    dropped_gamma_tail : worst tail-to-gamma ratio times the correction size
    total              : sum of the three components, finite
    extrapolated       : True when sigma is outside [1/2, 1], where the
                         underlying error analysis was calibrated
    """

    integral_tail: float
    series_truncation: float
    dropped_gamma_tail: float
    total: float
    extrapolated: bool = False

    def __post_init__(self) -> None:
        for name in ("integral_tail", "series_truncation", "dropped_gamma_tail"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be nonnegative")
        if not self.total < math.inf:  # past the schedule with an explicit m
            raise ParameterExhaustionError(
                "parameter exhaustion: the error budget exceeds double range")

    @classmethod
    def assemble(cls, integral_tail: float, series_truncation: float,
                 dropped_gamma_tail: float, extrapolated: bool = False) -> "ErrorBudget":
        total = integral_tail + series_truncation + dropped_gamma_tail
        return cls(integral_tail, series_truncation, dropped_gamma_tail, total,
                   extrapolated)

    @classmethod
    def exact(cls) -> "ErrorBudget":
        return cls(0.0, 0.0, 0.0, 0.0)

    def scaled(self, factor: float) -> "ErrorBudget":
        """Budget after the value is multiplied by a factor of magnitude |factor|."""
        f = abs(factor)
        return ErrorBudget.assemble(self.integral_tail * f,
                                    self.series_truncation * f,
                                    self.dropped_gamma_tail * f,
                                    self.extrapolated)


@dataclass(frozen=True)
class EvalResult:
    """Complex value, its budget, and the code path that produced it."""

    value: complex
    budget: ErrorBudget
    method: MethodTag
    params: EvalParams | None
