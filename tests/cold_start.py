"""Time the cold start of eta_zeta in fresh interpreters.

Run from the repository root, naming one or more source directories:

    python tests/cold_start.py [-n RUNS] SRC [SRC ...]

For each directory it starts RUNS fresh `python -I` interpreters for each of
four measurements, alternating directories and measurements, and prints the
median and interquartile range of each in milliseconds:

- setup: wall time from `import eta_zeta` to the first value of
  eta(0.73 + 100i), the definition bench/run.py uses for `setup_s`;
- scan_setup: the same to zeta(0.5 + 0i), the set-up point of the
  benchmark's line_scan workload;
- cli: wall time from `import eta_zeta.cli` to the end of
  `eta-zeta eval zeta 0.5 14.13` run through `cli.main`, output discarded;
- scan: wall time of the 20001-point `eta-zeta scan zeta --sigma 0.5
  --t-min 0 --t-max 100 --step 0.005` run through `cli.main` after
  `import eta_zeta.cli`, output discarded: scan throughput without bench/.
  The same interpreters' max RSS is printed as scan_rss, median in MB.

Give the parent's and the change's `src/` in one run to compare them under
the same load.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

# argv: src dir, function, sigma, t
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import eta_zeta
getattr(eta_zeta, sys.argv[2])(eta_zeta.ComplexPoint(float(sys.argv[3]), float(sys.argv[4])))
print(repr(time.perf_counter() - start), eta_zeta.__file__)
"""

CLI_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from eta_zeta import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(["eval", "zeta", "0.5", "14.13"])
elapsed = time.perf_counter() - start
assert status == 0, status
print(repr(elapsed), cli.__file__)
"""

# prints the scan's wall time and the max RSS in MB (ru_maxrss is in kB on Linux)
SCAN_CODE = """
import contextlib, os, resource, sys, time
sys.path.insert(0, sys.argv[1])
from eta_zeta import cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    start = time.perf_counter()
    status = cli.main(["scan", "zeta", "--sigma", "0.5", "--t-min", "0",
                       "--t-max", "100", "--step", "0.005"])
    elapsed = time.perf_counter() - start
assert status == 0, status
print(repr(elapsed), repr(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
      cli.__file__)
"""

MEASUREMENTS = {"setup": (SETUP_CODE, "eta", "0.73", "100"),
                "scan_setup": (SETUP_CODE, "zeta", "0.5", "0"),
                "cli": (CLI_CODE,),
                "scan": (SCAN_CODE,)}


def sample(src: Path, code: str, *argv: str) -> list[float]:
    """One cold run: the numbers the child interpreter reports."""
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(src), *argv],
                          capture_output=True, text=True, timeout=120, check=True)
    *values, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(src):
        raise SystemExit(f"{src}: the interpreter loaded {path}")
    return list(map(float, values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", type=Path,
                        help="a directory holding the eta_zeta package")
    parser.add_argument("-n", "--runs", type=int, default=25,
                        help="cold runs per directory and measurement")
    args = parser.parse_args()
    srcs = [src.resolve() for src in args.src]
    times = {(src, name): [] for src in srcs for name in MEASUREMENTS}
    scan_rss = {src: [] for src in srcs}
    for i in range(args.runs):
        order = srcs[i % len(srcs):] + srcs[:i % len(srcs)]
        for name, (code, *argv) in MEASUREMENTS.items():
            for src in order:
                elapsed, *rss = sample(src, code, *argv)
                times[src, name].append(elapsed)
                scan_rss[src] += rss
    for (src, name), values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name:10s}  median {median * 1e3:7.2f} ms  "
              f"[IQR {q1 * 1e3:7.2f} - {q3 * 1e3:7.2f}]  n={len(values)}  {src}")
    for src, values in scan_rss.items():
        print(f"{'scan_rss':10s}  max RSS median {statistics.median(values):6.2f} MB  "
              f"n={len(values)}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
