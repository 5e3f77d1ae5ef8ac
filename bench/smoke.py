"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that a fixed seed reproduces the same inputs, that a traced
name missing from the library is tolerated, and that the benchmark refuses
to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.POINT_WORKLOADS))
def test_fixed_seed_reproduces_inputs(name):
    assert workloads.points_for(name, 7) == workloads.points_for(name, 7)
    assert workloads.points_for(name, 7) != workloads.points_for(name, 8)
    assert workloads.points_for(name, 7, tiny=True) == workloads.points_for(name, 7, tiny=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_emitted(name, trace):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_traced_name_is_tolerated():
    sys.path.insert(0, str(ROOT / "src"))
    import eta_zeta

    tracer = spans.Tracer(sites=(("eta_zeta.zeta_bridge", "no_such_function"),
                                 ("eta_zeta.no_such_module", "eta"),
                                 ("eta_zeta", "zeta")))
    with tracer.installed():
        eta_zeta.zeta(eta_zeta.ComplexPoint(0.5, 14.0))
    assert len(tracer.warnings) == 2
    assert [span[spans.NAME] for span in tracer.spans] == ["zeta_bridge.zeta"]
    summary = spans.Summary()
    summary.add(tracer.spans)
    assert spans.layer_metrics(summary, 1)["zeta_bridge.stepwise_us_per_call"] == 0.0


def test_refuses_without_sources():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "strip_points", "--seconds", "1", cwd=bare)
    assert proc.returncode not in (0, 1)
    assert proc.stdout == ""
