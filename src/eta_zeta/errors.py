"""Exception types: eta and zeta refuse with these, never with a bare one."""


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
