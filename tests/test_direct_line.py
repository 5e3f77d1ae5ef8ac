"""The line evaluator against the per-point loops it replaced
(reference_loops) and against per-point eta/zeta: equal to the last bit,
including when a line is reused out of order and when 2m passes 2000."""

import math
import sys
import threading
import tracemalloc

import pytest

from eta_zeta import (ComplexPoint, EtaZetaError, MethodTag, ParameterExhaustionError,
                      eta, zeta)
from eta_zeta.cli import record_to_csv, scan_records
from eta_zeta.eta_core import (M_SCHEDULE, TARGET_RATIO, TERMS_KEPT, DirectLine,
                               log_table, tail_bounds)

import reference_loops as ref

SIGMAS = (0.5, 0.6, 0.75, 1.0, 1.4, 2.5, 3.0)
# negative t, t = -0 and 0 (signed zeros: cmath.rect has its own branch for
# a zero angle), the first critical zero and exceptional point, and the top
# of the schedule
TS = (-150.0, -37.5, -1e-3, -0.0, 0.0, 9.0647202836, 14.134725, 45.0, 120.0,
      176.0)
# out of order on purpose, so a line is reused after growing; 1001 needs
# more than 2000 terms, 2100 more than the TERMS_KEPT a line keeps
MS = (50, 40, 65, 1, 2100, 1001, 150)


def bits(z):
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("sigma", SIGMAS)
def test_partial_sum_matches_reference(sigma):
    line = DirectLine(sigma)
    for m in MS:
        for t in TS:
            assert bits(line.partial_sum(t, m)) \
                == bits(ref.alternating_partial_sum(sigma, t, m)), (m, t)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_tail_ratio_matches_reference(sigma):
    line = DirectLine(sigma)
    for m in MS:
        for t in TS + (600.0, -600.0):
            assert line.tail_ratio(t, m).hex() \
                == ref.max_tail_ratio(sigma, t, float(2 * m + 1)).hex(), (m, t)


def test_tail_ratio_is_infinite_where_stirling_underflows():
    assert DirectLine(0.5).tail_ratio(600.0, 40) == math.inf
    with pytest.raises(ParameterExhaustionError):
        DirectLine(0.5).select(600.0)
    # at t = 1e150 the Stirling power alone would overflow a double
    assert DirectLine(3.0).tail_ratio(1e150, 40) == math.inf
    for sigma in (0.5, 3.0):
        with pytest.raises(ParameterExhaustionError):
            eta(ComplexPoint(sigma, 1e150))


def assert_select_matches_reference(line, t):
    expected = next(((m, r) for m in M_SCHEDULE
                     if (r := ref.max_tail_ratio(line.sigma, t, float(2 * m + 1)))
                     <= TARGET_RATIO), None)
    if expected is None:
        with pytest.raises(ParameterExhaustionError):
            line.select(t)
    else:
        assert line.select(t) == expected


@pytest.mark.parametrize("sigma", SIGMAS)
def test_select_matches_reference(sigma):
    line = DirectLine(sigma)
    for t in TS + (178.0, -300.0):
        assert_select_matches_reference(line, t)


def test_tail_bounds_shared_across_sigmas():
    # one line fills the process's tail bounds; lines on other sigmas read
    # them, compute none, and still match the per-point loops bit for bit
    cutoffs = set(M_SCHEDULE + MS)
    tail_bounds.cache_clear()
    warm = DirectLine(SIGMAS[-1])
    for m in cutoffs:
        warm.tail_ratio(14.134725, m)
    assert tail_bounds.cache_info().misses == len(cutoffs)
    for sigma in SIGMAS[:-1]:
        line = DirectLine(sigma)
        for t in TS + (178.0,):
            for m in MS:
                assert line.tail_ratio(t, m).hex() \
                    == ref.max_tail_ratio(sigma, t, float(2 * m + 1)).hex(), (m, t)
            assert_select_matches_reference(line, t)
    assert tail_bounds.cache_info().misses == len(cutoffs)


def test_tail_bounds_shared_by_threads():
    # lines on eight threads fill the shared tail bounds and ln n table
    # concurrently, with a short switch interval; every value equals the
    # serial one bit for bit
    points = [(sigma, t) for sigma in SIGMAS for t in (14.134725, 45.0, 120.0)]
    serial = [bits(DirectLine(sigma).eval(t).value) for sigma, t in points]
    results = [None] * 8

    def work(i):
        results[i] = [bits(DirectLine(sigma).eval(t).value) for sigma, t in points]

    tail_bounds.cache_clear()
    log_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 8


def test_log_table_shared_across_routes():
    # the first direct call fills the process's ln n table; calls on other
    # sigmas, a reflected call, a stepwise call and a scan each read it and
    # compute none
    log_table.cache_clear()
    for sigma in SIGMAS:
        line = DirectLine(sigma)
        for t in (14.134725, 120.0):
            assert bits(line.partial_sum(t, 65)) \
                == bits(ref.alternating_partial_sum(sigma, t, 65)), (sigma, t)
    routes = (
        (lambda: eta(ComplexPoint(-0.3, 20.0)).method, MethodTag.REFLECTION27),
        (lambda: zeta(ComplexPoint(1.0, 9.0647202836)).method, MethodTag.STEPWISE3),
        (lambda: {rec.method for rec in scan_records("zeta", 0.25, 0.0, 30.0, 0.5)},
         {"Reflection27"}))
    for route, methods in routes:
        hits = log_table.cache_info().hits
        assert route() == methods
        assert log_table.cache_info().hits > hits
    assert log_table.cache_info().misses == 1
    assert len(log_table()) == TERMS_KEPT


def test_large_m_values_unchanged():
    assert eta(ComplexPoint(0.75, 3.0), m=1001).value \
        == (1.0162861704465986 + 0.452895642561893j)
    assert zeta(ComplexPoint(0.3, 3.0), m=1200).value \
        == (0.4946903197798194 - 0.06320843421162001j)


def test_large_m_runs_in_bounded_memory():
    # 60000 terms: kept as lists they would take about 4 MB; a line keeps
    # TERMS_KEPT of them and recomputes the rest.  The ln n table is filled
    # inside the traced region and counts against the same limit
    assert 2 * 30000 > 10 * TERMS_KEPT
    log_table.cache_clear()
    tracemalloc.start()
    try:
        eta(ComplexPoint(0.75, 3.0), m=30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("function", ["eta", "zeta"])
@pytest.mark.parametrize("sigma,t_min,t_max,step,m", [
    (-0.4, -60.0, 60.0, 0.5, None),
    (0.25, -60.0, 60.0, 0.5, None),
    (1.0, -60.0, 60.0, 0.5, None),
    (2.5, -60.0, 60.0, 0.5, None),
    (0.25, -60.0, 60.0, 1.5, 65),
    # the stepwise region around 1 + 9.0647i
    (1.0, 9.0640, 9.0655, 0.00001, None),
])
def test_scan_matches_pointwise_calls(function, sigma, t_min, t_max, step, m):
    evaluate = eta if function == "eta" else zeta
    records = scan_records(function, sigma, t_min, t_max, step, m=m)
    assert records
    for rec in records:
        try:
            result = evaluate(ComplexPoint(sigma, rec.t), m=m)
        except EtaZetaError:
            assert rec.method == "error"
            continue
        value = result.value
        expected = (f"{sigma!r},{rec.t!r},{value.real!r},{value.imag!r},"
                    f"{abs(value)!r},{result.method},{result.budget.total!r},"
                    f"{result.params.m if result.params else 0}")
        assert record_to_csv(rec) == expected
