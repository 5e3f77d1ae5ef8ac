"""mpmath reference values for the benchmark's correctness gate.

Only imported after the timed region, so neither its import time nor its
memory shows in the measured numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

DPS = 30

# A value farther than this from the reference, relative to max(1, |ref|), is
# not a double-precision eta or zeta value at all and fails the run.  The
# known budget defects (zeta within 1e-10 of s = 1 loses about 1e-6 relative
# to cancellation) stay an order of magnitude below it; they are counted by
# the budget check instead.
GROSS_TOLERANCE = 1e-5


@dataclass(frozen=True)
class Sample:
    function: str
    sigma: float
    t: float
    value: complex
    budget: float


@dataclass
class Report:
    checked: int = 0
    outside_budget: int = 0
    gross: list = field(default_factory=list)

    @property
    def wrong_share(self) -> float:
        return self.outside_budget / self.checked if self.checked else 0.0


def reference(function: str, sigma: float, t: float) -> mpmath.mpc:
    with mpmath.workdps(DPS):
        evaluate = mpmath.altzeta if function == "eta" else mpmath.zeta
        return evaluate(mpmath.mpc(sigma, t))


def check(samples: list[Sample]) -> Report:
    """Compare each value with the reference: count those whose error
    exceeds their own budget, and collect those that are grossly wrong."""
    report = Report()
    for sample in samples:
        ref = reference(sample.function, sample.sigma, sample.t)
        err = float(abs(mpmath.mpc(sample.value.real, sample.value.imag) - ref))
        report.checked += 1
        if not err <= sample.budget:
            report.outside_budget += 1
        if not err <= GROSS_TOLERANCE * max(1.0, float(abs(ref))):
            report.gross.append((sample, err))
    return report
