"""Shared types: the exceptions eta and zeta refuse with, never a bare one,
and the values they return, as immutable named tuples: points, results,
budgets."""

import math
from collections import namedtuple


class EtaZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EtaZetaError, ValueError):
    """Input lies outside the supported region or parameter range."""


class PoleError(EtaZetaError, ArithmeticError):
    """A pole was hit: s = 1, or |s - 1| or |1 - 2^(1-s)| below 1/DBL_MAX
    where it divides."""


class ParameterExhaustionError(EtaZetaError, RuntimeError):
    """t is too large to bound the error: |t| > T_MAX where the cutoff is
    selected, or at an explicit m the truncation bound or the budget exceeds
    the double range."""


class NonConvergentTailError(EtaZetaError, RuntimeError):
    """The stepwise series did not meet its stopping criterion within
    STEPWISE_K_MAX terms."""


class _Members(type):
    """Iterating the class gives its members, in the order they were set."""

    def __iter__(cls):
        return filter(cls.__instancecheck__, vars(cls).values())


class MethodTag(str, metaclass=_Members):
    """Which code path produced a result: a str equal to its value, one
    instance per member, each named after its value in upper case."""

    __slots__ = ()

    def __reduce__(self) -> str:  # pickled by name, so it loads as the member
        return "MethodTag." + self.upper()


MethodTag.DIRECT26 = MethodTag("Direct26")    # partial sum plus correction term
MethodTag.STEPWISE3 = MethodTag("Stepwise3")  # stepwise continuation through s + 2k


def _checked_make(cls, fields):
    # namedtuple's _make (and with it _replace) skips __new__; keep the checks
    return cls(*fields)


class ComplexPoint(namedtuple("ComplexPoint", "sigma t")):
    """An evaluation point s = sigma + i*t, held as two doubles."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, sigma: float, t: float) -> "ComplexPoint":
        try:
            sigma, t = float(sigma), float(t)
        except (TypeError, ValueError, OverflowError):  # float() refuses it
            raise DomainError(f"evaluation point must be numbers: {sigma!r}, {t!r}") from None
        if not (math.isfinite(sigma) and math.isfinite(t)):
            raise DomainError("evaluation point must be finite")
        return tuple.__new__(cls, (sigma, t))

    @property
    def z(self) -> complex:
        return complex(self.sigma, self.t)


class ErrorBudget(namedtuple("ErrorBudget", "truncation rounding total")):
    """A-priori error bound, in two parts.

    truncation : bound on what the formula leaves out: Boole's remainder on
                 the direct route (zeta_bridge.correction_term), the flat
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


EvalResult = namedtuple("EvalResult", "value budget method m")
EvalResult.__doc__ = """Complex value, its budget, the code path that produced it, and the
cutoff m of its 2m-term direct sum (None where no direct sum ran)."""
