import contextlib
import io
import json
import math
import tracemalloc

import pytest

from eta_zeta import ComplexPoint, eta
from eta_zeta.cli import CSV_HEADER, main, scan_lines
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
    assert "method    = EulerMaclaurin" in out


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
    assert fields[5] == "EulerMaclaurin"


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
    assert all(line.split(",")[5] == "EulerMaclaurin" for line in lines[1:])


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
        _, again = scan_lines("csv", "eta", float(sigma), float(t), float(t), 1.0,
                              m=m_used)
        assert again.split(",")[2:4] == [re, im]


def test_scan_repeated_and_parallel_bytes_identical():
    args = ("csv", "eta", 0.5, 0.0, 1.0, 0.02)
    first = "".join(scan_lines(*args))
    second = "".join(scan_lines(*args))
    parallel = "".join(scan_lines(*args, jobs=2))
    assert first == second
    assert first == parallel


# zeta on sigma = 1 at n pi i / ln 2, n = 0..8: the pole, Euler-Maclaurin
# rows between the exceptional points, stepwise rows at the first two and error
# rows past the stepwise reach, pinned byte for byte
PINNED_SCAN = ("scan", "zeta", "--sigma", "1", "--t-min", "0", "--t-max", "36.26",
               "--step", "4.532360141827194")
PINNED_CSV = """\
sigma,t,re,im,abs,method,err_bound,m_used
1.0,0.0,,,,error,,
1.0,4.532360141827194,0.7187753347212901,0.12469648368369368,0.7295116139217938,EulerMaclaurin,1.0679514681614715e-14,6
1.0,9.064720283654388,1.3465795428362433,0.10988313679611028,1.3510554277812656,Stepwise3,1.0000011999782748e-09,0
1.0,13.597080425481582,0.40189531652479876,-0.22107154305595406,0.45868559231101724,EulerMaclaurin,2.5193594988101706e-14,9
1.0,18.129440567308777,1.824744877857094,-0.21603521606809142,1.837488798291649,Stepwise3,1.000001632017897e-09,0
1.0,22.66180070913597,1.0559490390610495,0.2208804125800799,1.078803285940259,EulerMaclaurin,4.694313511201758e-14,13
1.0,27.194160850963165,,,,error,,
1.0,31.72652099279036,0.7259397335718161,0.007785273939039718,0.7259814785988863,EulerMaclaurin,6.90296079340788e-14,18
1.0,36.25888113461755,,,,error,,
"""
PINNED_JSON = """\
{"sigma": 1, "t": 0, "re": null, "im": null, "abs": null, "method": "error", "err_bound": null, "m_used": null}
{"sigma": 1, "t": 4.5323601418271942, "re": 0.71877533472129007, "im": 0.12469648368369368, "abs": 0.72951161392179376, "method": "EulerMaclaurin", "err_bound": 1.0679514681614715e-14, "m_used": 6}
{"sigma": 1, "t": 9.0647202836543883, "re": 1.3465795428362433, "im": 0.10988313679611028, "abs": 1.3510554277812656, "method": "Stepwise3", "err_bound": 1.0000011999782748e-09, "m_used": 0}
{"sigma": 1, "t": 13.597080425481582, "re": 0.40189531652479876, "im": -0.22107154305595406, "abs": 0.45868559231101724, "method": "EulerMaclaurin", "err_bound": 2.5193594988101706e-14, "m_used": 9}
{"sigma": 1, "t": 18.129440567308777, "re": 1.824744877857094, "im": -0.21603521606809142, "abs": 1.837488798291649, "method": "Stepwise3", "err_bound": 1.0000016320178971e-09, "m_used": 0}
{"sigma": 1, "t": 22.661800709135971, "re": 1.0559490390610495, "im": 0.2208804125800799, "abs": 1.078803285940259, "method": "EulerMaclaurin", "err_bound": 4.6943135112017583e-14, "m_used": 13}
{"sigma": 1, "t": 27.194160850963165, "re": null, "im": null, "abs": null, "method": "error", "err_bound": null, "m_used": null}
{"sigma": 1, "t": 31.726520992790359, "re": 0.72593973357181607, "im": 0.0077852739390397181, "abs": 0.72598147859888629, "method": "EulerMaclaurin", "err_bound": 6.9029607934078799e-14, "m_used": 18}
{"sigma": 1, "t": 36.258881134617553, "re": null, "im": null, "abs": null, "method": "error", "err_bound": null, "m_used": null}
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_bytes_are_pinned(capsys, jobs):
    for fmt, expected in (("csv", PINNED_CSV), ("json", PINNED_JSON)):
        code, out, _ = run_cli(capsys, *PINNED_SCAN, "--format", fmt, "--jobs", jobs)
        assert code == 0
        assert out == expected, fmt


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


class InlinePool:
    """An in-process stand-in for the scan's process pool: it records the
    worker count it is given in `sizes`, and starts no process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_scan_pool_is_capped_and_keeps_grid_order(monkeypatch):
    from eta_zeta import cli
    sizes = InlinePool.sizes
    sizes.clear()
    monkeypatch.setattr(cli, "_pool", InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    for fmt in ("csv", "json"):
        args = (fmt, "zeta", 0.5, 0.0, 2.0, 0.25)  # 9 points
        serial = list(scan_lines(*args))
        for jobs in (2, 5, 10 ** 6):
            assert list(scan_lines(*args, jobs=jobs)) == serial
        assert sizes == [2, 3, 3]  # min(jobs, ranges, cpu count)
        sizes.clear()
    few = ("csv", "eta", 0.5, 0.0, 0.5, 0.5)  # 2 points, so 2 ranges
    assert list(scan_lines(*few, jobs=64)) == list(scan_lines(*few))
    assert sizes == [2]
    sizes.clear()
    # an empty or one-point grid starts no pool
    for empty in ((1.0, 0.5, 1.0), (1.0, 0.0, 0.25)):
        assert list(scan_lines("csv", "eta", 0.5, *empty, jobs=4)) == [CSV_HEADER + "\n"]
        assert list(scan_lines("json", "eta", 0.5, *empty, jobs=4)) == []
    assert len(list(scan_lines("json", "eta", 0.5, 1.0, 1.0, 1.0, jobs=4))) == 1
    assert sizes == []


@pytest.mark.parametrize("fmt", ["text", "JSON", ""])
def test_scan_lines_refuses_an_unknown_format(fmt):
    with pytest.raises(KeyError):
        next(scan_lines(fmt, "eta", 0.5, 0.0, 1.0, 0.5))


class LineCounter(io.TextIOBase):
    """A stdout sink that keeps only the number of lines written."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def traced_scan_peak(step, jobs):
    """Traced peak bytes and output lines of an eta scan on 0 <= t <= 2."""
    sink = LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["scan", "eta", "--sigma", "0.5", "--t-min", "0", "--t-max", "2",
                         "--step", step, "--m", "4", "--jobs", str(jobs)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sink.lines


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_memory_does_not_grow_with_the_grid(monkeypatch, jobs):
    # records stream to stdout in grid order: a serial scan holds one, a
    # pooled one the ranges in flight (in process here, so one range).  With
    # ranges capped at 50 points, both grids below span many ranges, as a
    # grid past jobs * RANGES_PER_JOB * MAX_RANGE points does.  Holding every
    # record and CSV line grew the peak by about 600 bytes a point, and
    # uncapped ranges by 60; the scan may grow by 10 bytes a point at most
    from eta_zeta import cli
    monkeypatch.setattr(cli, "_pool", InlinePool)
    monkeypatch.setattr(cli, "MAX_RANGE", 50)
    traced_scan_peak("1", jobs)  # fills the process's caches first
    small, small_lines = traced_scan_peak("0.004", jobs)
    large, large_lines = traced_scan_peak("0.0005", jobs)
    assert (small_lines, large_lines) == (502, 4002)
    assert large < small + 10 * (4001 - 501), (small, large)


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
    _, line = scan_lines("csv", "eta", 0.5, 0.1, 0.1, 1.0)
    assert line.split(",")[1] == "0.1"
    assert float(line.split(",")[2]) == eta(ComplexPoint(0.5, 0.1)).value.real
