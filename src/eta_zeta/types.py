"""Shared value types, as immutable named tuples: points, results, budgets."""

import enum
import math
from collections import namedtuple

from .errors import DomainError, ParameterExhaustionError


class MethodTag(str, enum.Enum):
    """Which code path produced a result."""

    DIRECT26 = "Direct26"    # partial sum plus correction term
    STEPWISE3 = "Stepwise3"  # stepwise continuation through s + 2k

    def __str__(self) -> str:
        return self.value


def _checked_make(cls, fields):
    # namedtuple's _make (and with it _replace) skips __new__; keep the checks
    return cls(*fields)


class ComplexPoint(namedtuple("ComplexPoint", "sigma t")):
    """An evaluation point s = sigma + i*t, held as two doubles."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, sigma: float, t: float) -> "ComplexPoint":
        sigma, t = float(sigma), float(t)
        if not (math.isfinite(sigma) and math.isfinite(t)):
            raise DomainError("evaluation point must be finite")
        return tuple.__new__(cls, (sigma, t))

    @property
    def z(self) -> complex:
        return complex(self.sigma, self.t)


class ErrorBudget(namedtuple("ErrorBudget", "truncation rounding total")):
    """A-priori error bound, in two parts.

    truncation : bound on what the formula leaves out: Boole's remainder on
                 the direct route (eta_core.correction_term), the flat
                 envelope on the stepwise route
    rounding   : bound on the floating-point error of the value as computed
    total      : truncation + rounding, finite
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, truncation: float, rounding: float, total: float) -> "ErrorBudget":
        if truncation < 0.0:
            raise DomainError("truncation must be nonnegative")
        if rounding < 0.0:
            raise DomainError("rounding must be nonnegative")
        if not total < math.inf:  # far past T_MAX with an explicit m
            raise ParameterExhaustionError(
                "parameter exhaustion: the error budget exceeds double range")
        return tuple.__new__(cls, (truncation, rounding, total))

    @classmethod
    def assemble(cls, truncation: float, rounding: float) -> "ErrorBudget":
        return cls(truncation, rounding, truncation + rounding)


class EvalResult(namedtuple("EvalResult", "value budget method m")):
    """Complex value, its budget, the code path that produced it, and the
    cutoff m of its 2m-term direct sum (None where no direct sum ran)."""

    __slots__ = ()
