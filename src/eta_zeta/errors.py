"""Exception types raised by the evaluation routines."""


class EtaZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EtaZetaError, ValueError):
    """Input lies outside the supported region or parameter range."""


class PoleError(EtaZetaError, ArithmeticError):
    """Evaluation was requested exactly at a pole."""


class IndeterminateFormError(EtaZetaError, ArithmeticError):
    """A 0/0 combination; the caller must switch to the stepwise route."""


class ParameterExhaustionError(EtaZetaError, RuntimeError):
    """No cutoff in the schedule meets the target tail ratio (t too large)."""


class NonConvergentTailError(EtaZetaError, RuntimeError):
    """The stepwise series did not meet its stopping criterion within
    STEPWISE_K_MAX terms."""


class GammaOverflowError(EtaZetaError, OverflowError):
    """|Gamma(z)| exceeds the double-precision range."""
