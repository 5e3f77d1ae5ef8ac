"""Hash the reference scans, once with --jobs 1 and once with --jobs 2, or
compare them row by row with another source tree.

Run from the repository root:

    PYTHONPATH=src python tests/reference_scans.py
    PYTHONPATH=src python tests/reference_scans.py --against OTHER/src

Without --against, each line prints the first eight hex digits of the
sha256 of the scan's stdout, then the command.  The script exits 1 if a
scan's bytes differ between the two job counts.  Compare the printed
prefixes with the ones recorded in CHANGES.md to see whether a change moved
any scan byte.

With --against, each scan runs in a fresh interpreter on this tree and on
OTHER/src, and each line prints how many rows differ in m_used, in value
(re, im or abs), in err_bound and in method.  The script exits 1 if the two
trees give a different grid or different error records.  pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

from eta_zeta import cli

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


def scan_digest(args: list[str]) -> str:
    """sha256 of what `eta-zeta scan ARGS` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["scan", *args])
    if status != 0:
        raise SystemExit(f"scan {shlex.join(args)} exited {status}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


FIELDS = ("sigma", "t", "re", "im", "abs", "method", "err_bound", "m_used")
RUN_SCAN = ("import sys; sys.path.insert(0, sys.argv[1]); from eta_zeta import cli; "
            "sys.exit(cli.main(sys.argv[2:]))")


def scan_rows(src: str, args: list[str]) -> list[tuple]:
    """The records `eta-zeta scan ARGS` writes with the package under src,
    as tuples in FIELDS order."""
    out = subprocess.run([sys.executable, "-c", RUN_SCAN, src, "scan", *args],
                         capture_output=True, text=True, check=True).stdout
    if "json" in args:
        return [tuple(map(json.loads(line).get, FIELDS)) for line in out.splitlines()]
    return [tuple(line.split(",")) for line in out.splitlines()[1:]]


def compare(other: str) -> int:
    here = str(Path(cli.__file__).resolve().parents[1])
    differs = 0
    for scan in SCANS:
        ours, theirs = (scan_rows(src, shlex.split(scan)) for src in (here, other))
        grid = [row[:2] for row in ours] != [row[:2] for row in theirs]
        errors = not grid and any((a[5] == "error") != (b[5] == "error")
                                  for a, b in zip(ours, theirs))
        pairs = list(zip(ours, theirs))
        counts = {name: sum(a[i] != b[i] for a, b in pairs) for name, i in
                  (("m_used", 7), ("err_bound", 6), ("method", 5))}
        counts["value"] = sum(a[2:5] != b[2:5] for a, b in pairs)
        note = "  GRID DIFFERS" if grid else "  ERROR RECORDS DIFFER" if errors else ""
        differs += grid or errors
        print(f"{len(ours)} rows, m_used {counts['m_used']}, value {counts['value']}, "
              f"err_bound {counts['err_bound']}, method {counts['method']}  "
              f"scan {scan}{note}")
    return 1 if differs else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare row by row with the package under OTHER_SRC")
    args = parser.parse_args()
    if args.against:
        return compare(args.against)
    mismatches = 0
    for scan in SCANS:
        args = shlex.split(scan)
        serial = scan_digest([*args, "--jobs", "1"])
        pooled = scan_digest([*args, "--jobs", "2"])
        note = "" if serial == pooled else f"  MISMATCH: --jobs 2 gives {pooled[:8]}"
        mismatches += serial != pooled
        print(f"{serial[:8]}  scan {scan}{note}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
