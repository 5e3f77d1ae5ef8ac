"""Dirichlet eta and Riemann zeta on and around the critical strip.

Evaluation combines a 2m-term alternating partial sum with a closed-form
correction term and reports an a-priori error budget alongside every value.
See eta() and zeta() in this namespace for the user-facing entry points;
the building blocks stay importable from their own modules.
"""

from .types import (ComplexPoint, DomainError, ErrorBudget, EtaZetaError, EvalResult,
                    MethodTag, NonConvergentTailError, ParameterExhaustionError,
                    PoleError)
from .zeta_bridge import eta, exceptional_distance, zeta

__version__ = "0.1.0"

__all__ = [
    "ComplexPoint",
    "DomainError",
    "ErrorBudget",
    "EtaZetaError",
    "EvalResult",
    "MethodTag",
    "NonConvergentTailError",
    "ParameterExhaustionError",
    "PoleError",
    "eta",
    "exceptional_distance",
    "zeta",
]
