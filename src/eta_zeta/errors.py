"""Exception types: eta and zeta refuse with these, never with a bare one."""


class EtaZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EtaZetaError, ValueError):
    """Input lies outside the supported region or parameter range."""


class PoleError(EtaZetaError, ArithmeticError):
    """A pole was hit: s = 1, or 1 - 2^(1-s) rounded to 0 where it divides."""


class ParameterExhaustionError(EtaZetaError, RuntimeError):
    """t is too large to bound the error: no scheduled cutoff meets the target
    tail ratio, or at an explicit m the ratio or the budget is not finite."""


class NonConvergentTailError(EtaZetaError, RuntimeError):
    """The stepwise series did not meet its stopping criterion within
    STEPWISE_K_MAX terms."""


class GammaOverflowError(EtaZetaError, OverflowError):
    """|Gamma(z)| or the reflection's sin(pi s/2) exceeds the double range."""
