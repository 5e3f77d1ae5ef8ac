"""Dirichlet eta and Riemann zeta on and around the critical strip.

eta sums 2m terms of its alternating series and closes the tail with the
paper's correction term (Boole's summation formula); zeta sums 2m terms of
its own series and closes the tail by Euler-Maclaurin summation, pole term
included.  Every value comes with an a-priori error budget.
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
