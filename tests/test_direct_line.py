"""The line evaluator against the per-point loops it replaced and the plain
cutoff loop (reference_loops), against the per-point budget and against
per-point eta/zeta: equal to the last bit, including when a line is reused
out of order and when 2m passes 2000.  It also pins the paper's cutoff
design pairs."""

import math
import operator
import random
import sys
import threading
import tracemalloc

import mpmath
import pytest

from eta_zeta import (ComplexPoint, DomainError, EtaZetaError, MethodTag,
                      ParameterExhaustionError, eta, zeta)
from eta_zeta import zeta_bridge
from eta_zeta.cli import scan_lines
from eta_zeta.zeta_bridge import (EXCEPTIONAL_DISTANCE_THRESHOLD, EXCEPTIONAL_SPACING,
                                  T_MAX, TERMS_KEPT, Line, exceptional_distance, log_table)

import reference_loops as ref

SIGMAS = (0.5, 0.6, 0.75, 1.0, 1.4, 2.5, 3.0)
# negative t, t = -0 and 0 (signed zeros: cmath.rect has its own branch for
# a zero angle), the first critical zero and exceptional point, and a point
# near the reach T_MAX
TS = (-150.0, -37.5, -1e-3, -0.0, 0.0, 9.0647202836, 14.134725, 45.0, 120.0,
      176.0)
# out of order on purpose, so a line is reused after growing; 1001 needs
# more than 2000 terms, 2100 more than the TERMS_KEPT a line keeps
MS = (50, 40, 65, 1, 2100, 1001, 150)


def bits(z):
    return (z.real.hex(), z.imag.hex())


@pytest.mark.parametrize("sigma", SIGMAS)
def test_partial_sum_matches_reference(sigma):
    line = Line(sigma)
    for m in MS:
        for t in TS:
            assert bits(line.partial_sum(t, m)) \
                == bits(ref.alternating_partial_sum(sigma, t, m)), (m, t)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_truncation_matches_pointwise(sigma):
    # an explicit m's truncation bound is the per-point one, bit for bit, on
    # a line reused over t that keeps its factors at N = 2m + 1
    for m in MS:
        line = Line(sigma, m)
        for t in TS:
            assert line.eta(t).budget.truncation.hex() \
                == ref.truncation_bound(sigma, t, m).hex(), (m, t)


_RNG = random.Random(31)
# the lines above, the strip below sigma = 1/2, and seeded lines
SELECT_SIGMAS = (-0.5, -0.3, 0.0, 0.25, *SIGMAS,
                 *(_RNG.uniform(-0.5, 3.0) for _ in range(4)))


@pytest.mark.parametrize("sigma", SELECT_SIGMAS)
def test_select_matches_reference(sigma):
    # one line reused at seeded t out of order, with t = 0 and the reach
    # +/- T_MAX: select steps to the m of the plain loop over m
    rng = random.Random(repr(sigma))
    ts = [0.0, T_MAX, -T_MAX, *(rng.uniform(-T_MAX, T_MAX) for _ in range(13))]
    rng.shuffle(ts)
    line = Line(sigma)
    for t in ts:
        assert line.select(t) == ref.smallest_cutoff(sigma, t), t


@pytest.fixture
def calls(monkeypatch):
    """The arguments of each zeta_bridge.boole_bound call, as they happen."""
    calls = []
    boole_bound = zeta_bridge.boole_bound

    def counted(*args):
        calls.append(args)
        return boole_bound(*args)

    monkeypatch.setattr(zeta_bridge, "boole_bound", counted)
    return calls


def test_select_continues_from_the_last_cutoff(calls):
    # a fresh line starts from N >= 2|t| + 3, a reused one from its last
    # cutoff: at a nearby t with the same m it reads the bound at m and m - 1.
    # Walked up and down the reach, and after a refusal, which leaves the
    # kept cutoff alone, the line's cutoff is the plain loop's at every t
    line = Line(0.5)
    assert line.select(14.134725) == 20 and len(calls) >= 4
    calls.clear()
    assert line.select(14.2) == 20 and len(calls) == 2
    for sigma in (-0.3, 2.5):
        line = Line(sigma)
        ts = [k * 2.0 for k in range(94)] + [T_MAX]
        for t in ts + ts[::-1]:
            assert line.select(t) == ref.smallest_cutoff(sigma, t), (sigma, t)
        kept = line.select(45.0)
        for refuse in (line.eta, line.select):
            for t in (math.nextafter(T_MAX, math.inf), -600.0):
                with pytest.raises(ParameterExhaustionError, match="T_MAX"):
                    refuse(t)
        with pytest.raises(DomainError, match="finite"):
            line.select(math.nan)
        calls.clear()
        assert line.select(45.0) == kept and len(calls) == 2
        for t in (-T_MAX, 60.0, 0.0):
            assert line.select(t) == ref.smallest_cutoff(sigma, t), (sigma, t)


def test_far_jump_costs_no_more_than_fresh_lines(calls):
    # t = 0 then t = 186 on one line reads the bound at most twice more than
    # the same two selections on fresh lines: the search jumps from a kept
    # cutoff by the bound's power law as from a fresh start, instead of one
    # step of m per unit of t
    line = Line(-0.5)
    reused = [line.select(0.0), line.select(186.0)]
    reused_calls = len(calls)
    calls.clear()
    assert [Line(-0.5).select(0.0), Line(-0.5).select(186.0)] == reused
    assert reused_calls <= len(calls) + 2, (reused_calls, len(calls))


def _record(monkeypatch, name):
    """Each call of zeta_bridge's name as (arguments, result), as it happens."""
    calls = []
    fn = getattr(zeta_bridge, name)

    def recorded(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(zeta_bridge, name, recorded)
    return calls


# (sigma, t, selected m, bound reads of a fresh line's selection)
PINNED_READS = [(0.5, 14.134725, 20, 4), (-0.5, 186.0, 197, 4), (0.5, 0.0, 8, 4),
                (3.0, 100.0, 58, 4), (-0.3, 20.0, 27, 4), (2.5, 170.0, 103, 5)]


@pytest.mark.parametrize("sigma, t, m, reads", PINNED_READS)
def test_each_bound_is_read_once_per_check(monkeypatch, sigma, t, m, reads):
    # a point reads Boole's bound and the partial sum's share only in its
    # cutoff's search, a fresh line as often as its selection alone, a
    # reused one at m and m - 1; the budget's truncation is the search's one
    # read at the selected m, so the cutoff's share holds by construction,
    # and nothing is read after the selection.  An explicit m reads each once
    bounds = _record(monkeypatch, "boole_bound")
    shares = _record(monkeypatch, "sum_rounding")
    line = Line(sigma)
    result = line.eta(t)
    assert result.m == m and len(bounds) == len(shares) == reads
    at_m = [bound for (*_, factors), bound in bounds if factors is line._factors[m]]
    assert [bound.hex() for bound in at_m] == [result.budget.truncation.hex()]
    assert Line(sigma).select(t) == m and bounds[reads:] == bounds[:reads]
    for point in (line.eta, line.zeta):
        bounds.clear()
        shares.clear()
        result = point(math.nextafter(t, 0.0))
        assert result.m == m and len(bounds) == len(shares) == 2
    bounds.clear()
    shares.clear()
    result = Line(sigma, 40).eta(t)
    assert len(bounds) == len(shares) == 1
    assert result.budget.truncation.hex() == bounds[0][1].hex()


def test_factors_are_built_once_per_m_on_the_scan_grid(monkeypatch):
    # over line_scan's 5001-point grid every build of the factors is one at
    # N = 2m + 1 for an m read, kept, once per m
    builds = _record(monkeypatch, "tail_factors")
    line = Line(0.5)
    for k in range(5001):
        line.zeta(k * 0.01)
    assert sorted(b for (sigma, b), _ in builds) \
        == sorted(2.0 * m + 1.0 for m in line._factors)
    assert len(builds) == len(line._factors) > 40
    assert all(factors is line._factors[(b - 1.0) / 2.0] for (_, b), factors in builds)


def test_no_scan_grid_point_reads_more_than_three_bounds(calls):
    # along line_scan's grid a moved cutoff is stepped to from the kept one,
    # never searched for afresh: after the fresh first point, each point
    # reads the bound at most three times, and in fact twice
    line = Line(0.5)
    reads = []
    for k in range(5001):
        before = len(calls)
        line.zeta(k * 0.01)
        reads.append(len(calls) - before)
    assert max(reads[1:]) <= 3
    assert reads == [4] + [2] * 5000


EXCEPTIONAL_SIGMAS = [x for d in (-1e-4, 1e-4)
                      for x in (math.nextafter(1.0 + d, 0.0), 1.0 + d,
                                math.nextafter(1.0 + d, 2.0))] + [1.0 - 0.5e-4, 1.0 + 0.5e-4]


@pytest.mark.parametrize("sigma", EXCEPTIONAL_SIGMAS)
def test_stepwise_route_exactly_within_the_threshold(sigma):
    # a line skips the distance test when |sigma - 1| alone reaches the
    # threshold; the route must still be stepwise exactly where the distance
    # is below it.  Pointwise zeta runs through a Line too, so this checks
    # the route against exceptional_distance itself
    line = Line(sigma)
    routes = set()
    for n in (1, 2):
        for d in (0.0, 0.5e-4, -0.5e-4, 0.99e-4, -0.99e-4, 1.01e-4, -1.01e-4):
            t = n * EXCEPTIONAL_SPACING + d
            near = exceptional_distance(ComplexPoint(sigma, t)) < EXCEPTIONAL_DISTANCE_THRESHOLD
            assert (line.zeta(t).method is MethodTag.STEPWISE3) == near, (sigma, t)
            routes.add(near)
    assert routes == {True, False} or abs(sigma - 1.0) >= EXCEPTIONAL_DISTANCE_THRESHOLD


def test_paper_design_pairs():
    # the paper chose its cutoffs b from the dropped-tail ratio
    # E(n, b) / |Gamma(n + s)| at its worst over n = 0..13, with
    # E(n, b) = int_b^inf y^n e^-y dy (mpmath's upper incomplete gamma) and
    # |Gamma(x + it)| by the calculator's leading-order Stirling estimate.
    # Its pairs at sigma = 1: b = 81 reaches ratio 1e-5 at t = 40, b = 101
    # ratio 1e-7 at t = 50
    def tail_ratio(sigma, t, b):
        ratios = []
        for n in range(14):
            x = n + sigma
            stirling = (math.sqrt(2.0 * math.pi) * math.exp(-x)
                        * (x * x + t * t) ** ((2.0 * x - 1.0) / 4.0)
                        * math.exp(-t * math.atan2(t, x)))
            ratios.append(float(mpmath.gammainc(n + 1, b)) / stirling)
        return max(ratios)

    assert tail_ratio(1.0, 40.0, 81.0) == pytest.approx(7.25e-6, rel=1e-3)
    assert tail_ratio(1.0, 40.0, 81.0) <= 1e-5
    assert tail_ratio(1.0, 50.0, 101.0) == pytest.approx(9.04e-8, rel=1e-3)
    assert tail_ratio(1.0, 50.0, 101.0) <= 1e-7


def test_refuses_past_t_max_and_past_double_range():
    # the selected cutoff reaches |t| = T_MAX and no further
    for sigma in (-0.5, 0.5, 3.0):
        assert Line(sigma).eta(-T_MAX).m > 1
        for t in (math.nextafter(T_MAX, math.inf), -600.0, 1e150):
            with pytest.raises(ParameterExhaustionError, match="T_MAX"):
                Line(sigma).select(t)
        with pytest.raises(DomainError, match="finite"):  # a nan t is no |t| > T_MAX
            Line(sigma).select(math.nan)
        with pytest.raises(ParameterExhaustionError, match="T_MAX"):
            eta(ComplexPoint(sigma, 600.0))
    # an explicit m has no reach: its truncation bound is finite at t = 600
    # and refused once |(s)_15| leaves the double range
    assert math.isfinite(Line(3.0, 40).eta(600.0).budget.total)
    for t in (1e150, 1.7e308):
        with pytest.raises(ParameterExhaustionError, match="truncation bound"):
            Line(3.0, 40).eta(t)
    # the smallest cutoffs still get a finite bound
    for m in (1, 2):
        assert math.isfinite(Line(3.0, m).eta(10.0).budget.total)


def test_lines_on_threads_match_serial(monkeypatch):
    # lines on eight threads fill the shared ln n table concurrently from
    # empty, with a short switch interval, up to TERMS_KEPT (m = 2100); every
    # value equals the serial one bit for bit, and the table stays exact
    points = [(sigma, t, m) for sigma in SIGMAS for t in (14.134725, 45.0, 120.0)
              for m in (None, 2100)]
    serial = [bits(Line(sigma, m).eta(t).value) for sigma, t, m in points]
    results = [None] * 8

    def work(i):
        results[i] = [bits(Line(sigma, m).eta(t).value) for sigma, t, m in points]

    monkeypatch.setattr(zeta_bridge, "_lns", ())
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
    assert log_table(TERMS_KEPT) == tuple(map(math.log, range(1, TERMS_KEPT + 1)))


def test_log_table_shared_across_routes(monkeypatch):
    # the ln n table fills on demand: a first value at m fills 2m entries;
    # later calls on other sigmas, at sigma < 1/2, on the stepwise route and
    # in a scan grow it where they read further and recompute no entry (a
    # recomputed ln n would be a new float object)
    monkeypatch.setattr(zeta_bridge, "_lns", ())
    first = eta(ComplexPoint(0.5, 14.134725))
    assert first.m < 30 and len(log_table(0)) == 2 * first.m
    for sigma in SIGMAS:
        line = Line(sigma)
        for t in (14.134725, 120.0):
            assert bits(line.partial_sum(t, 65)) \
                == bits(ref.alternating_partial_sum(sigma, t, 65)), (sigma, t)
    assert len(log_table(0)) == 130
    routes = (
        (lambda: eta(ComplexPoint(-0.3, 20.0)).method, MethodTag.DIRECT26),
        (lambda: zeta(ComplexPoint(1.0, 9.0647202836)).method, MethodTag.STEPWISE3),
        (lambda: {row.split(",")[5]
                  for row in list(scan_lines("csv", "zeta", 0.25, 0.0, 30.0, 0.5))[1:]},
         {"Direct26"}),
        (lambda: Line(2.5, 2100).eta(3.0).method, MethodTag.DIRECT26))
    sizes = []
    for route, methods in routes:
        before = log_table(0)
        assert route() == methods
        after = log_table(0)
        assert all(map(operator.is_, before, after))
        sizes.append(len(after))
    assert sizes == [130, 2000, 2000, TERMS_KEPT]
    assert log_table(0) == tuple(map(math.log, range(1, TERMS_KEPT + 1)))


def test_large_m_values_unchanged():
    assert eta(ComplexPoint(0.75, 3.0), m=1001).value \
        == (1.0162861704465986 + 0.452895642561893j)
    # sigma = 0.3 on the direct route too, with 2400 terms
    assert zeta(ComplexPoint(0.3, 3.0), m=1200).value \
        == (0.4946903197798155 - 0.0632084342116146j)


def test_large_m_runs_in_bounded_memory(monkeypatch):
    # 60000 terms: kept as lists they would take about 4 MB; a line keeps
    # TERMS_KEPT of them and recomputes the rest.  The ln n table is filled
    # inside the traced region and counts against the same limit
    assert 2 * 30000 > 10 * TERMS_KEPT
    monkeypatch.setattr(zeta_bridge, "_lns", ())
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
    rows = list(scan_lines("csv", function, sigma, t_min, t_max, step, m=m))[1:]
    assert rows
    for row in rows:
        t = float(row.split(",")[1])
        try:
            result = evaluate(ComplexPoint(sigma, t), m=m)
        except EtaZetaError:
            assert row == f"{sigma!r},{t!r},,,,error,,\n"
            continue
        value = result.value
        expected = (f"{sigma!r},{t!r},{value.real!r},{value.imag!r},"
                    f"{abs(value)!r},{result.method},{result.budget.total!r},"
                    f"{0 if result.m is None else result.m}\n")
        assert row == expected
