#!/usr/bin/env python3
"""Benchmark of the eta-zeta library, driven through its public entry points
(`eta`, `zeta` and the CLI's `main`).

    python3 bench/run.py --workload strip_points --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1 --trace 1   # every workload, run_seconds each

One workload per run.  `--trace 0` measures the end-to-end metrics with no
tracing; `--trace 1` measures the per-layer metrics from spans recorded
around the calls between the library's modules.  Both check the outputs:
values against mpmath, scan bytes against a --jobs 1 scan, repeated passes
against the first.  Human-readable lines start with `#`; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Full results (with run metadata) and the traced spans go to
`.bench_out/` at the root of the checkout.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
library cannot be loaded from `src/` of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# Set-up samples are spread over the timed region, one every
# seconds / SETUP_SAMPLES, so a slow phase of the host hits only some.
SETUP_SAMPLES = 12
# Values checked against mpmath per route; None checks every returned value
# (the exceptional workload's budget defects need the full count to be steady).
ORACLE_PER_ROUTE = {"strip_points": 200, "exceptional": None}
SCAN_ORACLE_ROWS = 100
# Pooled scans timed in a traced scan run, for cli.pool_efficiency.
POOL_SCANS = 3
# Interference from other processes only adds time, so a repeated unit of
# work (one point's call, or one whole scan) is timed by its fastest
# repetition; every point is called in at least MIN_PASSES passes.
MIN_PASSES = 3
CHUNKS = 8
P_TABLE_REPEATS = 7
P_TABLE_R_MAX = 7
# Layer self times must cover this share of the traced wall time; the rest
# is the benchmark's own loop and the wrappers' bookkeeping outside spans.
SELF_SUM_MIN = 0.9

# Measures wall time in a fresh interpreter from `import eta_zeta` to the
# first returned value; argv: src dir, function, sigma, t.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import eta_zeta
getattr(eta_zeta, sys.argv[2])(eta_zeta.ComplexPoint(float(sys.argv[3]), float(sys.argv[4])))
print(repr(time.perf_counter() - start), eta_zeta.__file__)
"""

clock = time.perf_counter


class BenchError(Exception):
    """The library could not be loaded or run as the benchmark expects."""


def load_library():
    if not (SRC / "eta_zeta" / "__init__.py").is_file():
        raise BenchError(f"no eta_zeta package under {SRC}")
    sys.path.insert(0, str(SRC))
    import eta_zeta
    if not Path(eta_zeta.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"eta_zeta was loaded from {eta_zeta.__file__}, not {SRC}")
    return eta_zeta


# ------------------------------------------------------------ measurements --

class SetupSampler:
    """Wall time in a fresh interpreter from `import eta_zeta` to the first
    value at `point`, sampled at most once per `interval` seconds."""

    def __init__(self, point: workloads.Point, seconds: float):
        self.argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), point.function,
                     repr(point.sigma), repr(point.t)]
        self.interval = seconds / SETUP_SAMPLES
        self.times: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed:\n{proc.stderr}")
        elapsed, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up interpreter loaded {path}")
        self.times.append(float(elapsed))
        self.last = clock()

    def maybe_sample(self) -> None:
        if clock() - self.last >= self.interval:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES // 2:
            self.sample()
        return statistics.median(self.times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p_table_build_ms(tracer: spans.Tracer) -> float:
    """Fastest time to build the correction-coefficient table uncached."""
    from eta_zeta import coefficients
    build = getattr(getattr(coefficients, "p_coefficients", None), "__wrapped__", None)
    times = []
    try:
        for _ in range(P_TABLE_REPEATS):
            start = clock()
            build(P_TABLE_R_MAX)
            times.append(clock() - start)
    except TypeError:
        tracer.warn("coefficients.p_coefficients is not a cached f(r_max); "
                    "p_table_build_ms reads 0")
        return 0.0
    return min(times) * 1e3


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, n=100)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


# --------------------------------------------------------- point workloads --

def point_pass(points, args, indices, results) -> tuple[float, int]:
    """Evaluate points[i] for i in indices through the package's eta/zeta as
    looked up now; store each result or error.  Returns the wall time and the
    number of errors where a value is promised."""
    import eta_zeta
    fns = {"eta": eta_zeta.eta, "zeta": eta_zeta.zeta}
    failed = 0
    start = clock()
    for i in indices:
        try:
            results[i] = fns[points[i].function](args[i])
        except eta_zeta.EtaZetaError as exc:
            results[i] = exc
            failed += points[i].promised
    return clock() - start, failed


def timed_point_loop(points, args, seconds, results, setup: SetupSampler):
    """Closed loop, one caller: whole passes over the points until `seconds`
    have passed and at least MIN_PASSES passes are done.  Every call is timed
    on its own; returns each point's call times, the passes made and the
    errors where a value is promised."""
    import eta_zeta
    fns = {"eta": eta_zeta.eta, "zeta": eta_zeta.zeta}
    calls = [(fns[p.function], a, p.promised) for p, a in zip(points, args)]
    error = eta_zeta.EtaZetaError
    n = len(calls)
    chunks = [range(k * n // CHUNKS, (k + 1) * n // CHUNKS) for k in range(CHUNKS)]
    times = [[] for _ in calls]
    failed = passes = 0
    start = clock()
    while passes < MIN_PASSES or clock() - start < seconds:
        for chunk in chunks:
            for i in chunk:
                fn, arg, promised = calls[i]
                t0 = clock()
                try:
                    results[i] = fn(arg)
                except error as exc:
                    results[i] = exc
                    failed += promised
                times[i].append(clock() - t0)
            setup.maybe_sample()
        passes += 1
    return times, passes, failed


def same_outcome(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def oracle_samples(points, results, seed, per_route):
    """Up to `per_route` returned values per route (all if None), seeded."""
    from oracle import Sample
    by_route: dict[str, list[int]] = {}
    for i, r in enumerate(results):
        if not isinstance(r, Exception):
            by_route.setdefault(str(r.method), []).append(i)
    rng = random.Random(seed)
    chosen = []
    for route in sorted(by_route):
        indices = by_route[route]
        chosen += sorted(rng.sample(indices, min(len(indices), per_route or len(indices))))
    return [Sample(points[i].function, points[i].sigma, points[i].t,
                   results[i].value, results[i].budget.total) for i in chosen]


def run_points(name, seed, seconds, trace, tiny, run):
    from eta_zeta import ComplexPoint
    points = workloads.points_for(name, seed, tiny)
    args = [ComplexPoint(p.sigma, p.t) for p in points]
    n = len(points)
    reference = [None] * n
    _, failed = point_pass(points, args, range(n), reference)
    attempted = n
    returned = [r for r in reference if not isinstance(r, Exception)]
    run.routes = Counter(str(r.method) if not isinstance(r, Exception) else "error"
                         for r in reference)
    run.meta["distinct_points"] = n
    results = list(reference)

    if not trace:
        first = next(p for p, r in zip(points, reference) if not isinstance(r, Exception))
        setup = SetupSampler(first, seconds)
        times, passes, loop_failed = timed_point_loop(points, args, seconds, results, setup)
        best = [min(ts) for ts in times]
        latencies = [best[i] for i, r in enumerate(reference) if not isinstance(r, Exception)]
        run.metrics.update({
            "points_per_s": n / sum(best),
            "latency_p50_us": quantile(latencies, 50) * 1e6,
            "latency_p99_us": quantile(latencies, 99) * 1e6,
            "returned_share": len(returned) / n,
            "budget_p50": statistics.median(r.budget.total for r in returned),
            "setup_s": setup.median(),
            "peak_rss_mb": peak_rss_mb(),
        })
        run.meta.update(passes=passes, latency_samples=len(latencies),
                        setup_samples=len(setup.times))
        attempted += n * passes
        failed += loop_failed
    else:
        tracer, summary = spans.Tracer(), spans.Summary()
        chunks = [range(k * n // CHUNKS, (k + 1) * n // CHUNKS) for k in range(CHUNKS)]
        untraced, traced = [], []
        traced_points = 0
        start = clock()
        while not traced or clock() - start < seconds:
            chunk = chunks[len(traced) % CHUNKS]
            dt, f = point_pass(points, args, chunk, results)
            untraced.append(dt)
            failed += f
            tracer.spans.clear()
            with tracer.installed():
                dt, f = point_pass(points, args, chunk, results)
            traced.append(dt)
            failed += f
            attempted += 2 * len(chunk)
            traced_points += len(chunk)
            summary.add(tracer.spans)
            if run.first_spans is None:
                run.first_spans = list(tracer.spans)
        run.add_layer_metrics(tracer, summary, traced_points, traced, untraced)
        run.metrics["cli.pool_efficiency"] = 0.0

    if not all(same_outcome(a, b) for a, b in zip(results, reference)):
        run.problems.append("a repeated call returned a different result")
    run.attempted, run.failed = attempted, failed
    run.samples = oracle_samples(points, reference, seed, ORACLE_PER_ROUTE[name])


# ---------------------------------------------------------- scan workloads --

def scan_once(argv: list[str]) -> tuple[str, float]:
    from eta_zeta import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = clock()
        code = cli.main(argv)
        elapsed = clock() - start
    if code != 0:
        raise BenchError(f"eta-zeta {' '.join(argv)} exited with {code}")
    return buf.getvalue(), elapsed


def run_scan(name, seed, seconds, trace, tiny, run):
    t_max = workloads.TINY_SCAN_T_MAX if tiny else workloads.SCAN_T_MAX
    argv = workloads.scan_argv(1, t_max)
    pool_argv = workloads.scan_argv(workloads.POOL_JOBS, t_max)
    # The first scan is the reference bytes and a warm-up; a pooled scan
    # must reproduce it.
    reference, _ = scan_once(argv)
    pooled, _ = scan_once(pool_argv)
    outputs_match = pooled == reference
    rows = [line.split(",") for line in reference.splitlines()[1:]]
    n = len(rows)
    errors = sum(row[5] == "error" for row in rows)
    run.routes = Counter(row[5] for row in rows)
    run.meta.update(distinct_points=n, scan_sha256=hashlib.sha256(reference.encode()).hexdigest())

    if not trace:
        setup = SetupSampler(workloads.Point("zeta", workloads.SCAN_SIGMA, 0.0), seconds)
        times = []
        start = clock()
        while len(times) < MIN_PASSES or clock() - start < seconds:
            out, dt = scan_once(argv)
            times.append(dt)
            outputs_match &= out == reference
            setup.maybe_sample()
        budgets = [float(row[6]) for row in rows if row[5] != "error"]
        # Every scan has the same input, so their spread is interference
        # alone: both latencies report the fastest scan.
        best = min(times)
        run.metrics.update({
            "points_per_s": n / best,
            "latency_p50_us": best * 1e6,
            "latency_p99_us": best * 1e6,
            "returned_share": (n - errors) / n,
            "budget_p50": statistics.median(budgets),
            "setup_s": setup.median(),
            "peak_rss_mb": peak_rss_mb(),
        })
        run.meta.update(scans_timed=len(times), setup_samples=len(setup.times))
        scans = len(times)
    else:
        # Pooled scans first, while the heap the workers inherit is small.
        pool_times = []
        for _ in range(POOL_SCANS):
            out, dt = scan_once(pool_argv)
            pool_times.append(dt)
            outputs_match &= out == reference
        tracer, summary = spans.Tracer(), spans.Summary()
        untraced, traced = [], []
        start = clock()
        while not traced or clock() - start < seconds:
            out, dt = scan_once(argv)
            untraced.append(dt)
            outputs_match &= out == reference
            tracer.spans.clear()
            with tracer.installed():
                out, dt = scan_once(argv)
            traced.append(dt)
            outputs_match &= out == reference
            summary.add(tracer.spans)
            if run.first_spans is None:
                run.first_spans = list(tracer.spans)
        run.add_layer_metrics(tracer, summary, n * len(traced), traced, untraced)
        run.metrics["cli.pool_efficiency"] = min(untraced) / (
            workloads.POOL_JOBS * min(pool_times))
        scans = len(untraced) + len(traced) + POOL_SCANS

    if not outputs_match:
        run.problems.append(f"scan bytes with --jobs {workloads.POOL_JOBS} or a repeated "
                            "scan differ from the first --jobs 1 scan")
    run.attempted, run.failed = n * (scans + 2), errors * (scans + 2)
    from oracle import Sample
    picked = sorted(random.Random(seed).sample(range(n), min(n, SCAN_ORACLE_ROWS)))
    run.samples = [Sample("zeta", float(r[0]), float(r[1]), complex(float(r[2]), float(r[3])),
                          float(r[6])) for r in (rows[i] for i in picked) if r[5] != "error"]


# ------------------------------------------------------------------ a run --

class Run:
    """What one workload run measured and found."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.meta: dict = {}
        self.problems: list[str] = []
        self.routes = Counter()
        self.first_spans = None
        self.samples = []
        self.attempted = self.failed = 0

    def add_layer_metrics(self, tracer, summary, points, traced, untraced):
        """Per-layer metrics; `traced` and `untraced` are the wall times of
        paired passes over the same inputs."""
        self.metrics.update(spans.layer_metrics(summary, points))
        self.metrics["coefficients.p_table_build_ms"] = p_table_build_ms(tracer)
        self.metrics["trace.overhead_share"] = statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1.0
        self_sum = summary.root_total / 1e9 / sum(traced)
        self.metrics["trace.self_sum_share"] = self_sum
        if not SELF_SUM_MIN <= self_sum <= 1.0:
            self.problems.append(f"layer self times cover {self_sum:.3f} of the traced wall time")
        for route in ("Direct26", "Reflection27", "Stepwise3", "SpecialValue", "error"):
            self.metrics[f"zeta_bridge.routes.{route}"] = self.routes[route]
        self.meta["traced_points"] = points
        self.meta["trace_warnings"] = tracer.warnings


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    run = Run()
    run.meta.update(run_metadata(workload, seed, seconds, trace))
    measure = run_scan if workload in workloads.SCAN_WORKLOADS else run_points
    measure(workload, seed, seconds, trace, tiny, run)

    import oracle
    report = oracle.check(run.samples)
    run.metrics["within_budget_share"] = 1.0 - report.wrong_share
    for sample, err in report.gross:
        run.problems.append(f"{sample.function}({sample.sigma!r}+{sample.t!r}i) is off "
                            f"by {err:.3g} from mpmath")
    if run.failed:
        run.problems.append(f"{run.failed} calls raised where a value is promised")
    returned = run.routes.total() - run.routes["error"]
    run.meta.update(
        routes=dict(sorted(run.routes.items())),
        failed_share=run.routes["error"] / run.routes.total(),
        wrong_share=report.wrong_share, oracle_checked=report.checked,
        oracle_outside_budget=report.outside_budget, returned_values=returned)

    names = [m["name"] for m in wanted]
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {**result, "meta": run.meta, "problems": run.problems}, indent=1) + "\n")
    if run.first_spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(
            json.dumps(spans.spans_document(run.first_spans)) + "\n")

    print(f"# {workload} seed={seed} trace={trace}: {'correct' if result['correct'] else 'NOT CORRECT'}")
    for name in names:
        print(f"#   {name:<40} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    if not trace:
        print(f"#   {'failed_share':<40} {run.meta['failed_share']:>14.6g} ratio (1 - returned_share)")
        print(f"#   {'wrong_share':<40} {report.wrong_share:>14.6g} ratio (1 - within_budget_share)")
    print("# meta " + json.dumps(run.meta, sort_keys=True))
    for problem in run.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    return result


def run_all(args) -> int:
    """Every workload in its own interpreter, as a table."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        print("\n".join(line for line in proc.stdout.splitlines() if line.startswith("#")))
        status = max(status, proc.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(SPEC.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few points per workload")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        load_library()
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
