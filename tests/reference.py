"""Run the reference point sets and scans, and hash them or compare them
record by record with another source tree.

Run from the repository root:

    python tests/reference.py
    python tests/reference.py --against OTHER/src

The references are the benchmark's point sets (bench/workloads.py's
strip_points and exceptional at seeds 11 and 23, 12640 eta and zeta calls)
and the eleven SCANS.  Each runs in a fresh interpreter on the package under
src/ of this tree (and under OTHER/src), whatever PYTHONPATH says.  Each
point or scan row is one record: grid key, value, budget, method and m.  A
point's key is its index in the set and a scan row's its (sigma, t); a
refused point's method is the type of its refusal, a scan's error row's is
"error", and neither has a value, budget or m.

Without --against, each reference prints the first eight hex digits of the
sha256 of its output (a point set's JSON records, a scan's stdout), then its
name; a point set also prints its calls per route (method, or "refused").
These 15 lines are tests/reference_hashes.txt.  Every scan also runs with
--jobs 2, and the script exits 1 if that changes a byte.

With --against, each reference prints how many records differ in value,
budget, method and m, and the largest value change in units of the smaller
of the two budgets.  Records compare by repr, so a signed zero counts.  The
script exits 1 if a grid, a method or an m differs.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCANS = (
    "zeta --sigma 0.5 --t-min 0 --t-max 50 --step 0.01",
    "eta --sigma 0.25 --t-min -30 --t-max 30 --step 0.05",
    "zeta --sigma -0.4 --t-min 0 --t-max 170 --step 0.25",
    "eta --sigma 1 --t-min 0 --t-max 60 --step 0.1 --m 50",
    "zeta --sigma 2.5 --t-min -170 --t-max 170 --step 0.5 --format json",
    "zeta --sigma 1 --t-min 9 --t-max 9.2 --step 0.00001",
    "eta --sigma 0 --t-min -20 --t-max 20 --step 0.01",
    "zeta --sigma 0.75 --t-min -100 --t-max 100 --step 0.1 --m 1100",
    "eta --sigma -0.5 --t-min -177 --t-max 177 --step 0.5",
    "zeta --sigma 3 --t-min -5 --t-max 5 --step 0.001",
    "eta --sigma 0.5 --t-min 0 --t-max 2 --step 0.5 --m 2100",
)
# (name, arguments of RUN after src and the bench directory), points first.
REFERENCES = ([(f"{name} seed {seed}", [name, str(seed)])
               for name in ("strip_points", "exceptional") for seed in (11, 23)]
              + [(f"scan {scan}", ["scan", *shlex.split(scan)]) for scan in SCANS])

# argv: src, bench directory, then "scan" and its arguments, or a workload
# name and seed: one JSON line per point, [re, im, budget total, method, m]
# or [refusal type].
RUN = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
from eta_zeta import ComplexPoint, EtaZetaError, cli, eta, zeta
if sys.argv[3] == "scan":
    sys.exit(cli.main(sys.argv[3:]))
import workloads
functions = {"eta": eta, "zeta": zeta}
for p in workloads.points_for(sys.argv[3], int(sys.argv[4])):
    try:
        r = functions[p.function](ComplexPoint(p.sigma, p.t))
    except EtaZetaError as exc:
        print(json.dumps([type(exc).__name__]))
        continue
    print(json.dumps([r.value.real, r.value.imag, r.budget.total, str(r.method), r.m]))
"""
FIELDS = ("value", "budget", "method", "m")
SCAN_FIELDS = ("sigma", "t", "re", "im", "abs", "method", "err_bound", "m_used")


def run(src: str, args: list[str]) -> str:
    """What RUN writes to stdout with the package under src; its stderr
    passes through."""
    return subprocess.run([sys.executable, "-c", RUN, src, str(ROOT / "bench"), *args],
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def records(args: list[str], out: str) -> list[tuple]:
    """The (grid key, value, budget, method, m) records of RUN's output."""
    if args[0] != "scan":
        rows = map(json.loads, out.splitlines())
        return [(i, None, None, row[0], None) if len(row) == 1
                else (i, complex(*row[:2]), *row[2:]) for i, row in enumerate(rows)]
    if "json" in args:
        rows = [map(json.loads(line).get, SCAN_FIELDS) for line in out.splitlines()]
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
    return [((sigma, t), None, None, method, None) if method == "error"
            else ((sigma, t), complex(float(re), float(im)), float(budget), method, int(m))
            for sigma, t, re, im, _, method, budget, m in rows]


def compare(ours: list[tuple], theirs: list[tuple]) -> tuple[dict[str, int], float, str]:
    """Per field, how many records differ; the largest value change over the
    smaller budget; and what makes the difference fatal ("" if nothing):
    the grid, or a method or an m, a refusal's or error row's included."""
    if [r[0] for r in ours] != [r[0] for r in theirs]:
        return {}, math.nan, "grid differs"
    counts, share = dict.fromkeys(FIELDS, 0), 0.0
    for a, b in zip(ours, theirs):
        for field, x, y in zip(FIELDS, a[1:], b[1:]):
            counts[field] += repr(x) != repr(y)
        if a[1] is not None and b[1] is not None and a[1] != b[1]:
            budget = min(a[2], b[2])
            share = max(share, abs(a[1] - b[1]) / budget if budget else math.inf)
    return counts, share, " and ".join(f"{f} differs" for f in ("method", "m") if counts[f])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare record by record with the package under OTHER_SRC")
    options = parser.parse_args()
    here = str(ROOT / "src")
    failed = False
    for name, args in REFERENCES:
        out = run(here, args)
        ours = records(args, out)
        if options.against:
            counts, share, fatal = compare(ours, records(args, run(options.against, args)))
            failed |= bool(fatal)
            print(f"{len(ours)} records, "
                  + "".join(f"{field} {n}, " for field, n in counts.items())
                  + f"largest value change {share:.3g} budgets  {name}"
                  + (f"  {fatal.upper()}" if fatal else ""))
            continue
        note = ""
        if args[0] != "scan":
            routes = Counter("refused" if r[1] is None else r[3] for r in ours)
            note = ": " + ", ".join(f"{key} {routes[key]}" for key in sorted(routes))
        elif (pooled := run(here, [*args, "--jobs", "2"])) != out:
            failed = True
            note = f"  MISMATCH: --jobs 2 gives {hashlib.sha256(pooled.encode()).hexdigest()[:8]}"
        print(f"{hashlib.sha256(out.encode()).hexdigest()[:8]}  {name}{note}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
