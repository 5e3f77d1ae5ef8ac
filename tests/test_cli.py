import json
import math

import pytest

from eta_zeta.cli import (CSV_HEADER, main, record_to_csv, records_to_csv,
                          scan_records)
from eta_zeta.zeta_bridge import EXCEPTIONAL_DISTANCE_THRESHOLD

T1 = 2.0 * math.pi / math.log(2.0)
T3 = 3.0 * T1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- eval ---

def test_eval_text_zeta_half(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta", "0.5", "0")
    assert code == 0
    assert "-1.46035450881" in out
    assert "method    = Direct26" in out


def test_eval_text_eta_one_m50(capsys):
    code, out, _ = run_cli(capsys, "eval", "eta", "1", "0", "--m", "50")
    assert code == 0
    assert "0.69314718056" in out


def test_eval_json_fields(capsys):
    code, out, _ = run_cli(capsys, "eval", "eta", "0.5", "14.134725",
                           "--m", "40", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["sigma", "t", "re", "im", "abs", "method",
                            "err_bound", "m_used"]
    assert record["m_used"] == 40
    assert record["method"] == "Direct26"
    assert record["abs"] == pytest.approx(math.hypot(record["re"],
                                                     record["im"]), rel=1e-15)


def test_eval_csv(capsys):
    code, out, _ = run_cli(capsys, "eval", "zeta", "0.75", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.75
    assert fields[5] == "Direct26"


def test_eval_pole_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "zeta", "1", "0")
    assert code == 2
    assert "pole at s=1" in err


def test_eval_sigma_out_of_range(capsys):
    code, _, err = run_cli(capsys, "eval", "eta", "5", "0")
    assert code == 2
    assert "outside supported sigma range" in err


def test_eval_exceptional_beyond_stepwise(capsys):
    code, _, err = run_cli(capsys, "eval", "zeta", "1", f"{T3!r}")
    assert code == 2
    assert "stepwise path beyond |t|<=20" in err


def test_eval_parameter_exhaustion(capsys):
    code, _, err = run_cli(capsys, "eval", "eta", "0.75", "1000")
    assert code == 2
    assert "parameter exhaustion" in err


# -------------------------------------------------------------------- scan ---

def test_scan_record_count_and_header(capsys):
    code, out, _ = run_cli(capsys, "scan", "zeta", "--sigma", "0.5",
                           "--t-min", "0", "--t-max", "1", "--step", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    t_values = [float(line.split(",")[1]) for line in lines[1:]]
    assert t_values == sorted(t_values)
    assert all(line.split(",")[5] == "Direct26" for line in lines[1:])


def test_scan_minimum_near_first_critical_zero(capsys):
    code, out, _ = run_cli(capsys, "scan", "eta", "--sigma", "0.5",
                           "--t-min", "14.13", "--t-max", "14.14",
                           "--step", "0.001")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    abs_values = [float(r[4]) for r in rows]
    t_at_min = float(rows[abs_values.index(min(abs_values))][1])
    assert 14.133 < t_at_min < 14.136


def test_scan_small_near_first_on_line_zero(capsys):
    code, out, _ = run_cli(capsys, "scan", "eta", "--sigma", "1",
                           "--t-min", "9.064", "--t-max", "9.065",
                           "--step", "0.0005")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert float(line.split(",")[4]) < 1e-3


def test_scan_emits_error_records_at_unreachable_exceptional(capsys):
    code, out, _ = run_cli(capsys, "scan", "zeta", "--sigma", "1",
                           "--t-min", "27.1940", "--t-max", "27.1943",
                           "--step", "0.0001")
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 4
    n_errors = 0
    for i, line in enumerate(lines):
        fields = line.split(",")
        t = 27.1940 + i * 0.0001
        near = math.hypot(0.0, t - T3) < EXCEPTIONAL_DISTANCE_THRESHOLD
        if near:
            n_errors += 1
            assert fields[5] == "error"
            assert fields[2] == fields[3] == fields[4] == ""
            assert fields[6] == fields[7] == ""
        else:
            assert fields[5] != "error"
            float(fields[2])
    assert n_errors >= 1


def test_scan_json_lines(capsys):
    code, out, _ = run_cli(capsys, "scan", "eta", "--sigma", "0.75",
                           "--t-min", "0", "--t-max", "0.2", "--step", "0.1",
                           "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert list(record) == ["sigma", "t", "re", "im", "abs", "method",
                                "err_bound", "m_used"]


def test_scan_round_trip_is_bit_identical(capsys):
    code, out, _ = run_cli(capsys, "scan", "eta", "--sigma", "0.6",
                           "--t-min", "0", "--t-max", "3", "--step", "0.25")
    assert code == 0
    for line in out.splitlines()[1:]:
        sigma, t, re, im = line.split(",")[:4]
        m_used = int(line.split(",")[7])
        again = scan_records("eta", float(sigma), float(t), float(t), 1.0,
                             m=m_used)[0]
        assert repr(again.re) == re
        assert repr(again.im) == im


def test_scan_repeated_and_parallel_bytes_identical():
    args = ("eta", 0.5, 0.0, 1.0, 0.02)
    first = records_to_csv(scan_records(*args))
    second = records_to_csv(scan_records(*args))
    parallel = records_to_csv(scan_records(*args, jobs=2))
    assert first == second
    assert first == parallel


def test_scan_usage_errors(capsys):
    for t_min, t_max, step, jobs in (
            ("0", "1", "-0.1", "1"),
            ("2", "1", "0.1", "1"),
            ("0", "1e6", "1e-6", "1"),
            ("-1e308", "1e308", "1", "1"),  # the span overflows a double
            ("0", "inf", "0.5", "1"),
            ("-inf", "1", "0.5", "1"),
            ("nan", "1", "0.5", "1"),
            ("0", "1", "nan", "1"),
            ("0", "1", "inf", "1"),
            ("0", "1", "0.5", "0"),
            ("0", "1", "0.5", "-3")):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "eta", "--sigma", "0.5", "--t-min", t_min,
                  "--t-max", t_max, "--step", step, "--jobs", jobs])
        assert exc.value.code == 2, (t_min, t_max, step, jobs)
        assert capsys.readouterr().out == ""


def test_m_below_one_is_a_usage_error(capsys):
    # refused before any point is evaluated: no error records, no traceback
    scan = ["scan", "eta", "--sigma", "0.5", "--t-min", "0", "--t-max", "1",
            "--step", "0.5"]
    for argv in (scan + ["--m", "0"], scan + ["--m", "-2"],
                 ["table2", "--m", "0"], ["eval", "eta", "0.5", "1", "--m", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "--m must be >= 1" in captured.err, argv


def test_scan_pool_is_capped_and_keeps_grid_order(monkeypatch):
    # an in-process stand-in for the pool records the worker count it is
    # given, so no process is started
    from eta_zeta import cli
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    args = ("zeta", 0.5, 0.0, 2.0, 0.25)  # 9 points
    serial = records_to_csv(scan_records(*args))
    for jobs in (2, 5, 10 ** 6):
        assert records_to_csv(scan_records(*args, jobs=jobs)) == serial
    assert sizes == [2, 3, 3]  # min(jobs, ranges, cpu count)
    sizes.clear()
    few = ("eta", 0.5, 0.0, 0.5, 0.5)  # 2 points, so 2 ranges
    assert records_to_csv(scan_records(*few, jobs=64)) \
        == records_to_csv(scan_records(*few))
    assert sizes == [2]
    sizes.clear()
    # an empty or one-point grid starts no pool
    for empty in ((1.0, 0.5, 1.0), (1.0, 0.0, 0.25)):
        assert scan_records("eta", 0.5, *empty, jobs=4) == []
    assert len(scan_records("eta", 0.5, 1.0, 1.0, 1.0, jobs=4)) == 1
    assert sizes == []


def test_scan_computes_each_tail_bound_once(monkeypatch):
    # the scan crosses m = 40 -> 50: E(n, b) is computed once per n and b
    # in the process, 28 times, not at every point (574 times); a second
    # scan, on a fresh line, computes none
    from eta_zeta import eta_core
    from eta_zeta.gamma import gamma_tail_bound
    calls = []

    def counting(n, b):
        calls.append(b)
        return gamma_tail_bound(n, b)

    monkeypatch.setattr(eta_core, "gamma_tail_bound", counting)
    eta_core.tail_bounds.cache_clear()
    records = scan_records("zeta", 0.5, 35.0, 45.0, 0.5)
    assert {rec.m_used for rec in records} == {40, 50}
    assert sorted(calls) == [81.0] * 14 + [101.0] * 14
    calls.clear()
    assert {rec.m_used for rec in scan_records("eta", 0.75, 35.0, 45.0, 0.5)} \
        == {40, 50}
    assert calls == []


def test_scan_sigma_out_of_range(capsys):
    for function, sigma in (("eta", "4"), ("zeta", "3.5")):
        code, out, err = run_cli(capsys, "scan", function, "--sigma", sigma,
                                 "--t-min", "0", "--t-max", "1",
                                 "--step", "0.5")
        assert code == 2
        assert out == ""
        assert err == "error: outside supported sigma range [-0.5, 3]\n"


# ------------------------------------------------------------------ table2 ---

def test_table2_rows_and_markers(capsys):
    code, out, _ = run_cli(capsys, "table2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13  # header + rows n = 0..11
    for n in range(12):
        row = lines[n + 1]
        assert row.strip().startswith(str(n))
        marked = row.rstrip().endswith("X")
        assert marked == (n % 2 == 0 and n > 0)
    assert "0.69314718056" in lines[1]


# ------------------------------------------------------------------ verify ---

def test_verify_reports_only_the_known_misprint(capsys):
    from eta_zeta.acceptance import KNOWN_REFERENCE_MISPRINTS

    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == len(KNOWN_REFERENCE_MISPRINTS) == 1
    assert "table2 row n=7" in failing[0]
    assert "26/27 checks passed" in out


# -------------------------------------------------------------- formatting ---

def test_csv_uses_shortest_round_trip_floats():
    rec = scan_records("eta", 0.5, 0.1, 0.1, 1.0)[0]
    line = record_to_csv(rec)
    assert line.split(",")[1] == "0.1"
    assert float(line.split(",")[2]) == rec.re
