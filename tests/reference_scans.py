"""Hash the reference scans, once with --jobs 1 and once with --jobs 2.

Run from the repository root:

    PYTHONPATH=src python tests/reference_scans.py

Each line prints the first eight hex digits of the sha256 of the scan's
stdout, then the command.  The script exits 1 if a scan's bytes differ
between the two job counts.  Compare the printed prefixes with the ones
recorded in CHANGES.md to see whether a change moved any scan byte.  pytest
does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys

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
)


def scan_digest(args: list[str]) -> str:
    """sha256 of what `eta-zeta scan ARGS` writes to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["scan", *args])
    if status != 0:
        raise SystemExit(f"scan {shlex.join(args)} exited {status}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
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
