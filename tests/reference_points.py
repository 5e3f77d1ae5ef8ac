"""Evaluate the benchmark's point sets, and hash them or compare them point by
point with another source tree.

Run from the repository root:

    python tests/reference_points.py
    python tests/reference_points.py --against OTHER/src

The point sets are the strip_points and exceptional generators of
bench/workloads.py at seeds 11 and 23: 12640 eta and zeta calls.  Each set
runs in a fresh interpreter, which records per point the value, the budget
total, the method and m, or the type of the refusal.

Without --against, each set prints the first eight hex digits of the sha256
of those records, then its calls per route (method, or "refused").  Compare
the prefixes with the ones recorded in CHANGES.md to see whether a change
moved any of them.

With --against, the sets also run on the package under OTHER/src, and each
route of this tree prints how many of its points differ in value, budget,
method, m and refusal type, and the largest value difference in units of
the last place of |value|.  The script exits 1 if a method, an m or the set
of refusals differs.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = [(name, seed) for name in ("strip_points", "exceptional") for seed in (11, 23)]

# argv: src, bench directory, workload name, seed.  One JSON line per point:
# [re, im, budget total, method, m] or [refusal type].
EVALUATE = """\
import json, sys
sys.path[:0] = sys.argv[1:3]
import workloads
from eta_zeta import ComplexPoint, EtaZetaError, eta, zeta
functions = {"eta": eta, "zeta": zeta}
for p in workloads.points_for(sys.argv[3], int(sys.argv[4])):
    try:
        r = functions[p.function](ComplexPoint(p.sigma, p.t))
    except EtaZetaError as exc:
        print(json.dumps([type(exc).__name__]))
        continue
    print(json.dumps([r.value.real, r.value.imag, r.budget.total, str(r.method), r.m]))
"""
FIELDS = ("value", "budget", "method", "m", "refusal")


def evaluate(src: str, name: str, seed: int) -> str:
    """The records of one point set, evaluated with the package under src."""
    return subprocess.run(
        [sys.executable, "-c", EVALUATE, src, str(ROOT / "bench"), name, str(seed)],
        capture_output=True, text=True, check=True).stdout


def route(record: list) -> str:
    return record[3] if len(record) > 1 else "refused"


def value_ulps(ours: list, theirs: list) -> float:
    a, b = complex(*ours[:2]), complex(*theirs[:2])
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def differences(ours: list, theirs: list) -> dict[str, bool]:
    if len(ours) == 1 or len(theirs) == 1:
        return {"refusal": ours != theirs}
    return {"value": ours[:2] != theirs[:2], "budget": ours[2] != theirs[2],
            "method": ours[3] != theirs[3], "m": ours[4] != theirs[4]}


def compare(name: str, seed: int, here: str, other: str) -> bool:
    """Print the differences of one set per route; True if a method, an m
    or a refusal differs."""
    ours, theirs = ([json.loads(line) for line in evaluate(src, name, seed).splitlines()]
                    for src in (here, other))
    counts: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(
        ("points", *FIELDS, "ulps"), 0))
    for a, b in zip(ours, theirs, strict=True):
        row = counts[route(a)]
        row["points"] += 1
        for field, differs in differences(a, b).items():
            row[field] += differs
        if len(a) > 1 and len(b) > 1:
            row["ulps"] = max(row["ulps"], value_ulps(a, b))
    print(f"{name} seed {seed}: {len(ours)} calls")
    print(f"  {'route':<13}{'points':>7}" + "".join(f"{f:>9}" for f in FIELDS)
          + f"{'max ulps':>11}")
    for key in sorted(counts):
        row = counts[key]
        print(f"  {key:<13}{row['points']:>7}"
              + "".join(f"{row[f]:>9}" for f in FIELDS) + f"{row['ulps']:>11.3g}")
    return any(row[f] for row in counts.values() for f in ("method", "m", "refusal"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare point by point with the package under OTHER_SRC")
    args = parser.parse_args()
    here = str(ROOT / "src")
    if args.against:
        differs = [compare(name, seed, here, args.against) for name, seed in SETS]
        return 1 if any(differs) else 0
    for name, seed in SETS:
        out = evaluate(here, name, seed)
        routes: dict[str, int] = defaultdict(int)
        for line in out.splitlines():
            routes[route(json.loads(line))] += 1
        digest = hashlib.sha256(out.encode()).hexdigest()[:8]
        print(f"{digest}  {name} seed {seed}: "
              + ", ".join(f"{key} {routes[key]}" for key in sorted(routes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
