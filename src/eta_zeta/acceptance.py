"""Built-in verification suite.

Each check compares a computed quantity against an independently sourced
reference (closed forms, published reference values, or 30+ digit values
precomputed with an accelerated alternating-series oracle and frozen here)
at a fixed tolerance.  `eta-zeta verify` prints one line per check.

Known exception: row 7 of the upstream six-decimal reference table is a
misprint; the printed number reproduces the evaluation at sigma = 0 instead
of sigma = 1 (verified against the 30-digit oracle at both points).  The
check is kept as printed so the discrepancy is recorded rather than hidden,
and it is expected to fail.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .coefficients import p_coefficients
from .types import ComplexPoint, DomainError, EvalResult
from .zeta_bridge import LN2, R_MAX, eta, zeta, zeta_em_stepwise

EPS = sys.float_info.epsilon

# Names of checks that cannot pass because the published value they mirror
# is wrong; kept red on purpose.
KNOWN_REFERENCE_MISPRINTS = frozenset({"table2 row n=7 vs printed reference"})

# Six-decimal reference values for the half-way rows of the on-line table
# (t = n pi / ln 2).  Row 7 as printed equals the sigma = 0 value, see the
# module docstring.
_TABLE2_ODD_REFERENCE = {
    1: (1.437551, 0.249393),
    3: (0.803791, -0.442143),
    5: (2.111898, 0.441761),
    7: (4.893007, -0.100872),
    9: (0.973771, -0.301917),
    11: (0.855469, 0.382103),
}

# Published exact rationals behind the kernel-series coefficient table:
# p[0] and P_{2r-1} for r = 1..7.
_P_REFERENCE_RATIONALS = (
    Fraction(1, 2), Fraction(1, 4), Fraction(-1, 48), Fraction(1, 480),
    Fraction(-17, 80640), Fraction(31, 1451520), Fraction(-691, 319334400),
    Fraction(5461, 24908083200),
)

# Published decimals with a finite digit count, as (r, value, unit of the
# last printed digit).
_P_REFERENCE_DECIMALS = (
    (4, -2.10813492e-4, 1e-12),
    (5, 2.1356922e-5, 1e-12),
    (6, -2.163876e-6, 1e-12),
    (7, 2.19246e-7, 1e-12),
)

# eta on the acceptance grid, 32 significant digits, computed with a
# 40-digit convergence-accelerated alternating-series oracle and frozen.
# tests/test_oracle_agreement.py regenerates these live.
_ORACLE_GRID = {
    (0.5, 0.0): ("0.60489864342163037024726591423596", "0.0"),
    (0.5, 5.0): ("1.746703512574577404092393107521", "0.22464786828496985849555735576121"),
    (0.5, 14.1): ("-0.0021276667015221725181442527421741", "-0.065292508265972508003051676379095"),
    (0.5, 25.0): ("-0.015158861364383459548459820628625", "-0.020063978275386475119673992261572"),
    (0.5, 40.0): ("2.5178406066241159070673145223019", "-1.7131571873745603839048061868769"),
    (0.75, 0.0): ("0.65111567996492825401228975569078", "0.0"),
    (0.75, 5.0): ("1.6348073691644520144852157682645", "0.15619307374126690874640108354531"),
    (0.75, 14.1): ("0.38379397676513764337809657412242", "-0.068085656556783142939041838004641"),
    (0.75, 25.0): ("0.35365446827167823834506425858922", "-0.26045391520568256282107937324365"),
    (0.75, 40.0): ("2.1064129070322874273677056106638", "-0.91125341487658476757742681787281"),
    (1.0, 0.0): ("0.69314718055994530941723212145818", "0.0"),
    (1.0, 5.0): ("1.5377133718709160008583632394411", "0.10567276644830150123479767816481"),
    (1.0, 14.1): ("0.6387443066702982340102406906529", "-0.070277877743553614680179020797537"),
    (1.0, 25.0): ("0.58050712361326987274452899318233", "-0.35847817975315507459193511966841"),
    (1.0, 40.0): ("1.8313496827155480972920831185899", "-0.46837504447979935249717937179228"),
}

_CONJUGATION_POINTS = (
    (-0.5, 3.7), (-0.25, 12.3), (0.1, 7.7), (0.5, 14.134725), (0.75, 21.3),
    (1.0, 33.0), (1.5, 8.5), (2.5, 41.0), (0.6, 0.37), (0.9, 48.2),
)

_CONVERSION_POINTS = (
    (0.5, 0.0), (0.75, 10.0), (1.0, 4.0), (2.0, 17.5), (0.6, 25.0),
)

_CROSS_METHOD_POINTS = ((0.8, 3.0), (1.0, 9.0), (0.6, 12.0))


class CheckResult(namedtuple("CheckResult", "name passed measured allowed detail",
                             defaults=("",))):
    __slots__ = ()


def _check(name: str, measured: float, allowed: float,
           detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=measured <= allowed,
                       measured=measured, allowed=allowed, detail=detail)


def _eta_value(sigma: float, t: float, m: int | None = None) -> EvalResult:
    return eta(ComplexPoint(sigma, t), m=m)


def _ulp_scale(delta: float, reference: float) -> float:
    return delta / (EPS * max(reference, sys.float_info.min))


def _special_value_checks() -> list[CheckResult]:
    checks = []
    ln2 = math.log(2.0)
    for m, allowed in ((50, 1e-11), (40, 1.5e-9)):
        v = _eta_value(1.0, 0.0, m=m).value
        checks.append(_check(f"eta(1) m={m} vs ln 2", abs(v - ln2), allowed))
    for m in (40, 50):
        v = _eta_value(0.5, 0.0, m=m).value
        printed = f"{v.real:.12g}"
        diff = abs(v - 0.604898643422)
        ok = printed == "0.604898643422" and diff <= 5e-13
        checks.append(CheckResult(
            name=f"eta(0.5) m={m} prints 0.604898643422",
            passed=ok, measured=diff, allowed=5e-13,
            detail=f"printed {printed}"))
    z = zeta(ComplexPoint(0.5, 0.0)).value
    checks.append(_check("zeta(0.5) vs -1.4603545", abs(z - (-1.4603545)), 5e-8))
    checks.append(_check("eta(0) = 1/2",
                         abs(_eta_value(0.0, 0.0).value - 0.5), 1e-9))
    checks.append(_check("zeta(0) = -1/2",
                         abs(zeta(ComplexPoint(0.0, 0.0)).value + 0.5), 1e-9))
    return checks


def _table2_checks() -> list[CheckResult]:
    checks = []
    worst_even = 0.0
    for n in range(2, 12, 2):
        v = _eta_value(1.0, n * math.pi / LN2, m=50).value
        worst_even = max(worst_even, abs(v))
    checks.append(_check("table2 even rows max |eta| (m=50)", worst_even, 1e-11))
    for n, (re_ref, im_ref) in _TABLE2_ODD_REFERENCE.items():
        v = _eta_value(1.0, n * math.pi / LN2, m=50).value
        measured = max(abs(v.real - re_ref), abs(v.imag - im_ref))
        detail = ""
        if n == 7:
            detail = ("printed reference is a misprint: it equals the "
                      "sigma=0 value; kept red on purpose")
        checks.append(_check(f"table2 row n={n} vs printed reference",
                             measured, 5e-7, detail))
    return checks


def _critical_zero_checks() -> list[CheckResult]:
    s1 = abs(_eta_value(0.5, 14.134725, m=40).value)
    s10 = abs(_eta_value(0.5, 49.773832, m=40).value)
    return [
        _check("critical zero s1 residual (m=40)", s1, 5e-7),
        _check("critical zero s10 residual (m=40)", s10, 5e-6),
    ]


def _cutoff_checks() -> list[CheckResult]:
    # the selected cutoff at the paper's design points on sigma = 1 agrees with
    # m = 1100, far past it, within the sum of the two budgets
    pairs = [(t, _eta_value(1.0, t), _eta_value(1.0, t, m=1100)) for t in (36, 50)]
    return [_check(f"selected cutoff sigma=1 t={t} vs m=1100", abs(a.value - b.value),
                   a.budget.total + b.budget.total) for t, a, b in pairs]


def p_coefficient_asymptotic(r: int) -> float:
    """Large-r form of p[r]: 2 (-1)^(r+1) / pi^(2r)."""
    if r < 1:
        raise DomainError("r must be >= 1")
    return 2.0 * (-1.0) ** (r + 1) / math.pi ** (2 * r)


def _coefficient_checks() -> list[CheckResult]:
    # the process's one table, which zeta_bridge bound at import
    p = p_coefficients(R_MAX + 1)
    worst_rel = 0.0
    for r, ref in enumerate(_P_REFERENCE_RATIONALS):
        rel = abs(p[r] - float(ref)) / abs(float(ref))
        worst_rel = max(worst_rel, rel)
    worst_ulp = 0.0
    for r, ref, unit in _P_REFERENCE_DECIMALS:
        worst_ulp = max(worst_ulp, abs(p[r] - ref) / unit)
    asym_rel = abs(p_coefficient_asymptotic(7) - p[7]) / abs(p[7])
    return [
        _check("coefficients vs published rationals", worst_rel, 1e-12),
        _check("coefficients vs published decimals", worst_ulp, 1.0,
               "units of the last printed digit"),
        _check("asymptotic coefficient form at r=7", asym_rel, 1e-4),
    ]


def _conjugation_checks() -> list[CheckResult]:
    worst = 0.0
    for evaluate in (eta, zeta):
        for sigma, t in _CONJUGATION_POINTS:
            plus = evaluate(ComplexPoint(sigma, t)).value
            minus = evaluate(ComplexPoint(sigma, -t)).value
            worst = max(worst,
                        _ulp_scale(abs(minus - plus.conjugate()), abs(plus)))
    return [_check("conjugation symmetry eta/zeta (20 pts)", worst, 2.0,
                   "ulp-scale")]


def _conversion_checks() -> list[CheckResult]:
    worst = 0.0
    for sigma, t in _CONVERSION_POINTS:
        s = ComplexPoint(sigma, t)
        eta_v = eta(s).value
        zeta_v = zeta(s).value
        recon = zeta_v * (1.0 - (2.0 + 0.0j) ** (1.0 - s.z))
        worst = max(worst, _ulp_scale(abs(recon - eta_v), abs(eta_v)))
    return [_check("conversion identity zeta*(1-2^(1-s)) = eta", worst, 4.0,
                   "ulp-scale")]


def _cross_method_checks() -> list[CheckResult]:
    worst = 0.0
    for sigma, t in _CROSS_METHOD_POINTS:
        s = ComplexPoint(sigma, t)
        direct = zeta(s).value
        stepwise = zeta_em_stepwise(s).value
        worst = max(worst, abs(direct - stepwise))
    return [_check("cross-method agreement (3 pts)", worst, 1e-8)]


def _oracle_checks() -> list[CheckResult]:
    worst = 0.0
    for (sigma, t), (re_str, im_str) in _ORACLE_GRID.items():
        result = _eta_value(sigma, t)
        ref = complex(float(re_str), float(im_str))
        worst = max(worst, abs(result.value - ref) / result.budget.total)
    return [_check("oracle agreement (15-pt grid)", worst, 1.0,
                   "fraction of the budget")]


def _determinism_checks() -> list[CheckResult]:
    from .cli import scan_lines

    args = ("csv", "eta", 0.5, 0.0, 2.0, 0.01)
    first = "".join(scan_lines(*args))
    second = "".join(scan_lines(*args))
    parallel = "".join(scan_lines(*args, jobs=2))
    return [
        _check("determinism: repeated scan bytes", float(first != second), 0.0),
        _check("determinism: parallel scan bytes", float(first != parallel), 0.0),
    ]


def run_checks() -> list[CheckResult]:
    """Run every verification check and return the results in print order."""
    groups = (_special_value_checks, _table2_checks, _critical_zero_checks,
              _cutoff_checks, _coefficient_checks, _conjugation_checks,
              _conversion_checks, _cross_method_checks, _oracle_checks,
              _determinism_checks)
    return [check for group in groups for check in group()]
