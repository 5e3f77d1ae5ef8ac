"""Command-line front end: single evaluations, line scans, the table of
values on the sigma = 1 line, and the built-in verification suite.

Each evaluated point is formatted once, from its EvalResult, by one row
function per format (_csv_row, _json_row; an error row where the point was
refused).  eval prints one row, and scan_lines yields a scan's rows, which
pool workers format where they evaluate them.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterator

from .errors import EtaZetaError
from .types import ComplexPoint, EvalResult
from .eta_core import check_sigma
from .zeta_bridge import LN2, Line, eta, zeta

CSV_HEADER = "sigma,t,re,im,abs,method,err_bound,m_used"
MAX_SCAN_POINTS = 10 ** 6
# Index ranges per job of a pooled scan, so rows come back while workers
# run, and the most points in one range, so the parent holds a few ranges of
# rows at a time however large the grid.
RANGES_PER_JOB = 4
MAX_RANGE = 1000
TABLE2_HALF_SPACING = math.pi / LN2  # imaginary gap between table rows
ZERO_MARKER_THRESHOLD = 1e-9


def _csv_row(sigma: float, t: float, result: EvalResult | None) -> str:
    """One CSV row, newline-terminated, in shortest round-trip decimals;
    result None is an error row, with empty numeric fields."""
    if result is None:
        return f"{sigma!r},{t!r},,,,error,,\n"
    value = result.value
    return (f"{sigma!r},{t!r},{value.real!r},{value.imag!r},{abs(value)!r},"
            f"{result.method},{result.budget.total!r},{result.m or 0}\n")


def _json_row(sigma: float, t: float, result: EvalResult | None) -> str:
    """One JSON object, newline-terminated, in 17 significant digits;
    result None is an error row, with null numeric fields."""
    if result is None:
        return (f'{{"sigma": {sigma:.17g}, "t": {t:.17g}, "re": null, "im": null, '
                f'"abs": null, "method": "error", "err_bound": null, "m_used": null}}\n')
    value = result.value
    return (f'{{"sigma": {sigma:.17g}, "t": {t:.17g}, '
            f'"re": {value.real:.17g}, "im": {value.imag:.17g}, '
            f'"abs": {abs(value):.17g}, "method": "{result.method}", '
            f'"err_bound": {result.budget.total:.17g}, "m_used": {result.m or 0}}}\n')


def _scan_lines(row, function: str, sigma: float, t_min: float, step: float,
                m: int | None, start: int, stop: int) -> Iterator[str]:
    """Rows, formatted by row, for grid indices start..stop-1, evaluated on
    one Line."""
    line = Line(sigma, m)
    evaluate = line.eta if function == "eta" else line.zeta
    for i in range(start, stop):
        t = t_min + i * step
        try:
            result = evaluate(t)
        except EtaZetaError:
            result = None
        yield row(sigma, t, result)


def _scan_range(*args) -> list[str]:
    """_scan_lines as a list, the unit a pool worker sends back."""
    return list(_scan_lines(*args))


def grid_count(t_min: float, t_max: float, step: float) -> int:
    """floor((t_max - t_min) / step) + 1, with a relative epsilon so an
    endpoint that divides evenly is not lost to float rounding."""
    ratio = (t_max - t_min) / step
    return math.floor(ratio + 1e-9 * (1.0 + abs(ratio))) + 1


def _pool(workers: int):
    from concurrent.futures import ProcessPoolExecutor  # loaded by pooled scans only
    return ProcessPoolExecutor(max_workers=workers)


def scan_lines(fmt: str, function: str, sigma: float, t_min: float, t_max: float,
               step: float, m: int | None = None, jobs: int = 1) -> Iterator[str]:
    """A scan's output in format fmt ("csv" or "json") as newline-terminated
    lines: the CSV header, then one row per point of the grid t_min,
    t_min+step, ... (ascending, inclusive), yielded in grid order as they
    are evaluated, on one Line.  With jobs > 1 a process pool evaluates and
    formats contiguous index ranges of at most MAX_RANGE points, each on a
    line of its own, and they are yielded in order as they arrive: the
    output is identical either way, and only the ranges in flight are held,
    never the whole grid.  Any other fmt raises KeyError."""
    row = {"csv": _csv_row, "json": _json_row}[fmt]
    if row is _csv_row:
        yield CSV_HEADER + "\n"
    count = grid_count(t_min, t_max, step)
    if jobs <= 1 or count <= 1:
        yield from _scan_lines(row, function, sigma, t_min, step, m, 0, count)
        return
    n_ranges = min(count, max(jobs * RANGES_PER_JOB, math.ceil(count / MAX_RANGE)))
    bounds = [count * k // n_ranges for k in range(n_ranges + 1)]
    scan_range = functools.partial(_scan_range, row, function, sigma, t_min, step, m)
    workers = min(jobs, n_ranges, os.cpu_count() or 1)
    with _pool(workers) as pool:
        for chunk in pool.map(scan_range, bounds[:-1], bounds[1:]):
            yield from chunk


def _fmt_value(z: complex) -> str:
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{z.real:.12g} {sign} {abs(im):.12g}i"


def _cmd_eval(args: argparse.Namespace) -> int:
    evaluate = eta if args.function == "eta" else zeta
    try:
        result = evaluate(ComplexPoint(args.sigma, args.t), m=args.m)
    except EtaZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(CSV_HEADER + "\n" + _csv_row(args.sigma, args.t, result))
    elif args.format == "json":
        sys.stdout.write(_json_row(args.sigma, args.t, result))
    else:
        value = result.value
        print(f"{args.function}({_fmt_value(complex(args.sigma, args.t))}) = "
              f"{_fmt_value(value)}")
        print(f"  |value|   = {abs(value):.12g}")
        print(f"  method    = {result.method}")
        print(f"  err_bound = {result.budget.total:.12g}")
        print(f"  m_used    = {result.m or 0}")
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
    sys.stdout.writelines(scan_lines(args.format, args.function, args.sigma, args.t_min,
                                     args.t_max, args.step, m=args.m, jobs=args.jobs))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    print(" n   t            eta(1 + t i)                                zero")
    line = Line(1.0, args.m)
    for n in range(12):
        t = n * TABLE2_HALF_SPACING
        value = line.eta(t).value
        marker = "X" if abs(value) < ZERO_MARKER_THRESHOLD else ""
        print(f"{n:2d}  {t:10.6f}   {_fmt_value(value):<42s}  {marker}")
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
