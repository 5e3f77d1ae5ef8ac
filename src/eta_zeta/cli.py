"""Command-line front end: single evaluations, line scans, the table of
values on the sigma = 1 line, and the built-in verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import EtaZetaError
from .types import ComplexPoint, EvalResult
from .zeta_bridge import LN2, Line, check_sigma, eta, zeta

CSV_HEADER = "sigma,t,re,im,abs,method,err_bound,m_used"
MAX_SCAN_POINTS = 10 ** 6
# Index ranges per job of a pooled scan, so records come back while workers run.
RANGES_PER_JOB = 4
TABLE2_HALF_SPACING = math.pi / LN2  # imaginary gap between table rows
ZERO_MARKER_THRESHOLD = 1e-9


@dataclass(frozen=True)
class OutputRecord:
    """One evaluated point; numeric fields are None for an error record."""

    sigma: float
    t: float
    re: float | None
    im: float | None
    abs: float | None
    method: str
    err_bound: float | None
    m_used: int | None


def _record(sigma: float, t: float, result: EvalResult) -> OutputRecord:
    value = result.value
    return OutputRecord(sigma=sigma, t=t, re=value.real, im=value.imag,
                        abs=abs(value), method=str(result.method),
                        err_bound=result.budget.total,
                        m_used=result.params.m if result.params else 0)


def _scan_range(function: str, sigma: float, t_min: float, step: float,
                m: int | None, start: int, stop: int) -> list[OutputRecord]:
    """Records for grid indices start..stop-1, evaluated on one Line."""
    line = Line(sigma, m)
    evaluate = line.eta if function == "eta" else line.zeta
    records = []
    for i in range(start, stop):
        t = t_min + i * step
        try:
            records.append(_record(sigma, t, evaluate(t)))
        except EtaZetaError:
            records.append(OutputRecord(sigma, t, None, None, None, "error",
                                        None, None))
    return records


def grid_count(t_min: float, t_max: float, step: float) -> int:
    """floor((t_max - t_min) / step) + 1, with a relative epsilon so an
    endpoint that divides evenly is not lost to float rounding."""
    ratio = (t_max - t_min) / step
    return math.floor(ratio + 1e-9 * (1.0 + abs(ratio))) + 1


def scan_records(function: str, sigma: float, t_min: float, t_max: float,
                 step: float, m: int | None = None,
                 jobs: int = 1) -> list[OutputRecord]:
    """Records for the grid t_min, t_min+step, ... (ascending, inclusive),
    evaluated on one Line.  With jobs > 1 a process pool evaluates contiguous
    index ranges, each on a line of its own, and the records come back in
    grid order: the output is identical either way."""
    count = grid_count(t_min, t_max, step)
    if jobs <= 1 or count <= 1:
        return _scan_range(function, sigma, t_min, step, m, 0, count)
    n_ranges = min(count, jobs * RANGES_PER_JOB)
    bounds = [count * k // n_ranges for k in range(n_ranges + 1)]
    scan_range = functools.partial(_scan_range, function, sigma, t_min, step, m)
    workers = min(jobs, n_ranges, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunks = pool.map(scan_range, bounds[:-1], bounds[1:])
        return [rec for chunk in chunks for rec in chunk]


def record_to_csv(rec: OutputRecord) -> str:
    # Shortest round-trip decimals; empty numeric fields on an error record.
    if rec.method == "error":
        return f"{rec.sigma!r},{rec.t!r},,,,error,,"
    return (f"{rec.sigma!r},{rec.t!r},{rec.re!r},{rec.im!r},{rec.abs!r},"
            f"{rec.method},{rec.err_bound!r},{rec.m_used}")


def record_to_json(rec: OutputRecord) -> str:
    def num(x: float | None) -> str:
        return "null" if x is None else f"{x:.17g}"

    m_used = "null" if rec.m_used is None else str(rec.m_used)
    return (f'{{"sigma": {num(rec.sigma)}, "t": {num(rec.t)}, '
            f'"re": {num(rec.re)}, "im": {num(rec.im)}, '
            f'"abs": {num(rec.abs)}, "method": "{rec.method}", '
            f'"err_bound": {num(rec.err_bound)}, "m_used": {m_used}}}')


def records_to_csv(records: list[OutputRecord]) -> str:
    lines = [CSV_HEADER]
    lines.extend(record_to_csv(rec) for rec in records)
    return "\n".join(lines) + "\n"


def _fmt_value(re: float, im: float) -> str:
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{re:.12g} {sign} {abs(im):.12g}i"


def _cmd_eval(args: argparse.Namespace) -> int:
    evaluate = eta if args.function == "eta" else zeta
    try:
        rec = _record(args.sigma, args.t,
                      evaluate(ComplexPoint(args.sigma, args.t), m=args.m))
    except EtaZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        print(CSV_HEADER)
        print(record_to_csv(rec))
    elif args.format == "json":
        print(record_to_json(rec))
    else:
        point = _fmt_value(rec.sigma, rec.t)
        print(f"{args.function}({point}) = {_fmt_value(rec.re, rec.im)}")
        print(f"  |value|   = {rec.abs:.12g}")
        print(f"  method    = {rec.method}")
        print(f"  err_bound = {rec.err_bound:.12g}")
        print(f"  m_used    = {rec.m_used}")
    return 0


def _cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if not all(map(math.isfinite, (args.t_min, args.t_max, args.step))):
        parser.error("--t-min, --t-max and --step must be finite")
    if args.step <= 0:
        parser.error("--step must be positive")
    if args.t_max < args.t_min:
        parser.error("--t-max must be >= --t-min")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    # the span can overflow a double (-1e308 to 1e308), leaving no count
    if (not (args.t_max - args.t_min) / args.step < MAX_SCAN_POINTS
            or grid_count(args.t_min, args.t_max, args.step) > MAX_SCAN_POINTS):
        parser.error(f"grid has more than {MAX_SCAN_POINTS} points")
    try:
        check_sigma(args.sigma)
    except EtaZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = scan_records(args.function, args.sigma, args.t_min, args.t_max,
                           args.step, m=args.m, jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(records_to_csv(records))
    else:
        for rec in records:
            print(record_to_json(rec))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(" n   t            eta(1 + t i)                                zero")
    line = Line(1.0, args.m)
    for n in range(12):
        t = n * TABLE2_HALF_SPACING
        rec = _record(1.0, t, line.eta(t))
        marker = "X" if rec.abs < ZERO_MARKER_THRESHOLD else ""
        value = _fmt_value(rec.re, rec.im)
        print(f"{n:2d}  {t:10.6f}   {value:<42s}  {marker}")
    return 0


def _cmd_verify(_args: argparse.Namespace) -> int:
    from .acceptance import run_checks

    checks = run_checks()
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failures += 1
        line = (f"{status}  {check.name:<44s} measured {check.measured:.3e}  "
                f"allowed {check.allowed:.3e}")
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eta-zeta",
        description="Evaluate the alternating zeta function eta(s) and "
                    "Riemann's zeta(s) in and around the critical strip.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one point")
    p_eval.add_argument("function", choices=("eta", "zeta"))
    p_eval.add_argument("sigma", type=float)
    p_eval.add_argument("t", type=float)
    p_eval.add_argument("--m", type=int, default=None,
                        help="override the automatic cutoff selection")
    p_eval.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")

    p_scan = sub.add_parser("scan", help="evaluate along a vertical line")
    p_scan.add_argument("function", choices=("eta", "zeta"))
    p_scan.add_argument("--sigma", type=float, required=True)
    p_scan.add_argument("--t-min", type=float, required=True)
    p_scan.add_argument("--t-max", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--m", type=int, default=None)
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="evaluate points in N processes (same output)")

    p_table = sub.add_parser("table2",
                             help="eta at 1 + n pi i / ln 2 for n = 0..11")
    p_table.add_argument("--m", type=int, default=50)

    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "m", None) is not None and args.m < 1:
        parser.error("--m must be >= 1")
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "scan":
        return _cmd_scan(args, parser)
    if args.command == "table2":
        return _cmd_table2(args)
    return _cmd_verify(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
