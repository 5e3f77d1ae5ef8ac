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

For setup and scan_setup it also prints, per directory, the garbage
collections that run inside the timed region, the net GC-tracked
allocations from `import eta_zeta` to the first value, and the gen-0 count
when the region ends.  CPython collects gen 0 once its count passes 700
(`gc.get_threshold()`), so an end count near 700 means a few more objects
at import or in the first value cost a collection in every cold start.
Reading these counters needs `import gc` before the region, which bench/run.py
does not do, so it also prints the headroom of bench/run.py's own region: how
many more tracked objects (function objects made just before it) it takes
before a collection runs inside it, bisected with a cyclic sentinel that
only a collection frees; -1 means it collects with none.  The sentinel and
the padding take a few objects themselves: compare trees, not the numbers
with 700.

Give the parent's and the change's `src/` in one run to compare them under
the same load.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import subprocess
import sys
from pathlib import Path

# argv: src dir, function, sigma, t.  Prints the wall time, the collections
# in the region, the net GC-tracked allocations (the gen-0 count's growth plus
# the threshold + 1 it reached before each collection reset it) and the gen-0
# count at the end.  Reading the counters allocates nothing that survives.
SETUP_CODE = """
import gc, sys, time
sys.path.insert(0, sys.argv[1])
done = sum(gen["collections"] for gen in gc.get_stats())
first = gc.get_count()[0]
start = time.perf_counter()
import eta_zeta
getattr(eta_zeta, sys.argv[2])(eta_zeta.ComplexPoint(float(sys.argv[3]), float(sys.argv[4])))
elapsed = time.perf_counter() - start
last = gc.get_count()[0]
runs = sum(gen["collections"] for gen in gc.get_stats()) - done
print(repr(elapsed), runs, last - first + runs * (gc.get_threshold()[0] + 1), last,
      eta_zeta.__file__)
"""

# argv: src dir, function, sigma, t, padding.  bench/run.py's set-up region
# after `padding` function objects; prints 1 if a collection ran in it
HEADROOM_CODE = """
import sys, time
freed = []
class Sentinel:
    def __del__(self): freed.append(1)
pad = [(lambda: None) for _ in range(int(sys.argv[5]))]
sentinel = Sentinel(); sentinel.cycle = sentinel; del sentinel
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import eta_zeta
getattr(eta_zeta, sys.argv[2])(eta_zeta.ComplexPoint(float(sys.argv[3]), float(sys.argv[4])))
print(len(freed), eta_zeta.__file__)
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


def headroom(src: Path, *argv: str) -> int:
    """The most padding objects with no collection in the set-up region,
    bisected over 0..700; -1 if it collects with none."""
    low, high = -1, 700
    while low < high:
        mid = (low + high + 1) // 2
        collected, = sample(src, HEADROOM_CODE, *argv, str(max(mid, 0)))
        low, high = (mid, high) if not collected else (low, mid - 1)
    return low


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", type=Path,
                        help="a directory holding the eta_zeta package")
    parser.add_argument("-n", "--runs", type=int, default=25,
                        help="cold runs per directory and measurement, at least 2")
    args = parser.parse_args()
    if args.runs < 2:  # the interquartile range needs two
        parser.error("--runs must be at least 2")
    srcs = [src.resolve() for src in args.src]
    times = {(src, name): [] for src in srcs for name in MEASUREMENTS}
    extras = {(src, name): [] for src in srcs for name in MEASUREMENTS}
    for i in range(args.runs):
        order = srcs[i % len(srcs):] + srcs[:i % len(srcs)]
        for name, (code, *argv) in MEASUREMENTS.items():
            for src in order:
                elapsed, *extra = sample(src, code, *argv)
                times[src, name].append(elapsed)
                extras[src, name].append(extra)
    for (src, name), values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{name:10s}  median {median * 1e3:7.2f} ms  "
              f"[IQR {q1 * 1e3:7.2f} - {q3 * 1e3:7.2f}]  n={len(values)}  {src}")
    for (src, name), values in extras.items():
        if name == "scan":
            rss = statistics.median(rss for rss, in values)
            print(f"{'scan_rss':10s}  max RSS median {rss:6.2f} MB  "
                  f"n={len(values)}  {src}")
        elif MEASUREMENTS[name][0] is SETUP_CODE:
            collections, allocated, last = (statistics.median(v) for v in zip(*values))
            print(f"{name + '_gc':10s}  collections {collections:g}  net tracked "
                  f"allocations {allocated:g}  gen-0 count at the end {last:g} of "
                  f"{gc.get_threshold()[0]}  (medians, n={len(values)})  "
                  f"headroom {headroom(src, *MEASUREMENTS[name][1:])}  {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
