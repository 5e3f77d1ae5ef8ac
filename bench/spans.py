"""Span tracing for the benchmark's traced run.

The tracer replaces public names in the library's module namespaces, at the
places where one module calls another, with wrappers that record a span:
name, start, end and the index of the enclosing span.  Each span is named
after the module that defines the callee, so `cli.zeta` and the package's
`zeta` both record `zeta_bridge.zeta`.  Spans stay in memory; the caller
aggregates them and writes them out at the end.

A name that a later version of the library deletes or renames is skipped
with a warning and simply records no spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

# (namespace, attribute) pairs as the caller looks them up at call time.
CALL_SITES = (
    ("eta_zeta", "eta"),
    ("eta_zeta", "zeta"),
    ("eta_zeta.cli", "main"),
    ("eta_zeta.cli", "eta"),
    ("eta_zeta.cli", "zeta"),
    ("eta_zeta.cli", "record_to_csv"),
    ("eta_zeta.zeta_bridge", "eta"),
    ("eta_zeta.zeta_bridge", "select_params"),
    ("eta_zeta.zeta_bridge", "eta_raw"),
    ("eta_zeta.zeta_bridge", "gamma_reflected"),
    ("eta_zeta.zeta_bridge", "zeta_em_stepwise"),
    ("eta_zeta.zeta_bridge", "c_coefficient"),
    ("eta_zeta.eta_core", "alternating_partial_sum"),
    ("eta_zeta.eta_core", "correction_term"),
    ("eta_zeta.eta_core", "tail_ratio_report"),
)

PARTIAL_SUM = "eta_core.alternating_partial_sum"

# Span record fields, kept as a plain list for speed.
NAME, START, END, PARENT, TERMS = range(5)


def _partial_sum_terms(args: tuple, kwargs: dict) -> int:
    m = args[1] if len(args) > 1 else kwargs.get("m", 0)
    return 2 * m if isinstance(m, int) else 0


class Tracer:
    """Records spans while installed; `spans` is cleared by the caller."""

    def __init__(self, sites=CALL_SITES):
        self.sites = sites
        self.spans: list[list] = []
        self.warnings: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_terms = name == PARTIAL_SUM

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    _partial_sum_terms(args, kwargs) if count_terms else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def warn(self, message: str) -> None:
        if message not in self.warnings:
            self.warnings.append(message)
            print(f"bench: warning: {message}", file=sys.stderr)

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module_name, attr in self.sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.warn(f"module {module_name} not found; no spans for {attr}")
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.warn(f"{module_name}.{attr} not found; it records no spans")
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)


class Summary:
    """Span totals accumulated over traced passes (all times in ns)."""

    def __init__(self):
        self.count = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.terms = Counter()
        self.edge_count = Counter()   # (parent name, child name)
        self.edge_total = Counter()
        self.root_total = 0

    def add(self, spans: list[list]) -> None:
        child_time = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            self.count[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child_time[i]
            self.terms[name] += span[TERMS]
            if span[PARENT] < 0:
                self.root_total += dur
            else:
                edge = (spans[span[PARENT]][NAME], name)
                self.edge_count[edge] += 1
                self.edge_total[edge] += dur

    def layer_self(self, layer: str) -> int:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] == layer)

    def per_call_us(self, name: str) -> float:
        return self.total[name] / 1e3 / self.count[name] if self.count[name] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Summary, points: int) -> dict[str, float]:
    """Per-layer numbers from accumulated spans; `points` is the number of
    evaluation points (scan rows or eta/zeta calls) in the traced passes.
    A metric whose spans never occurred reads 0."""
    s = summary
    cli_eval = sum(t for (parent, child), t in s.edge_total.items()
                   if parent.startswith("cli.") and child.startswith("zeta_bridge."))
    stepwise = "zeta_bridge.zeta_em_stepwise"
    select = "eta_core.select_params"
    tail = "gamma.tail_ratio_report"
    metrics = {
        "cli.eval_us_per_point": _ratio(cli_eval / 1e3, points),
        "cli.format_us_per_point": _ratio(s.total["cli.record_to_csv"] / 1e3, points),
        "cli.self_us_per_point": _ratio(s.layer_self("cli") / 1e3, points),
        "zeta_bridge.self_us_per_call": _ratio(s.layer_self("zeta_bridge") / 1e3, points),
        "zeta_bridge.stepwise_us_per_call": s.per_call_us(stepwise),
        "zeta_bridge.stepwise_k_per_call": _ratio(s.count["coefficients.c_coefficient"],
                                                  s.count[stepwise]),
        "eta_core.select_us_per_call": s.per_call_us(select),
        "eta_core.m_tried_per_select": _ratio(s.edge_count[(select, tail)], s.count[select]),
        "eta_core.tail_ratio_calls_per_eval": _ratio(s.count[tail],
                                                     s.count["eta_core.eta_raw"]),
        "eta_core.partial_sum_us_per_call": s.per_call_us(PARTIAL_SUM),
        "eta_core.partial_sum_ns_per_term": _ratio(s.total[PARTIAL_SUM], s.terms[PARTIAL_SUM]),
        "eta_core.terms_per_eval": _ratio(s.terms[PARTIAL_SUM], s.count[PARTIAL_SUM]),
        "eta_core.correction_us_per_call": s.per_call_us("eta_core.correction_term"),
        "eta_core.eta_raw_self_us_per_call": _ratio(s.self_time["eta_core.eta_raw"] / 1e3,
                                                    s.count["eta_core.eta_raw"]),
        "eta_core.self_us_per_point": _ratio(s.layer_self("eta_core") / 1e3, points),
        "gamma.tail_ratio_us_per_call": s.per_call_us(tail),
        "gamma.gamma_reflected_us_per_call": s.per_call_us("gamma.gamma_reflected"),
        "gamma.self_us_per_point": _ratio(s.layer_self("gamma") / 1e3, points),
        "coefficients.c_coefficient_us_per_call": s.per_call_us("coefficients.c_coefficient"),
        "coefficients.self_us_per_point": _ratio(s.layer_self("coefficients") / 1e3, points),
    }
    return metrics


def spans_document(spans: list[list]) -> dict:
    """A JSON-ready copy of one pass's spans.  Times are ns from the first
    span; `request` is the index of the root span a span belongs to."""
    names = sorted({span[NAME] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][START] if spans else 0
    request = []
    rows = []
    for i, span in enumerate(spans):
        parent = span[PARENT]
        request.append(i if parent < 0 else request[parent])
        rows.append([index[span[NAME]], span[START] - origin, span[END] - origin,
                     parent, request[i]])
    return {"fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "names": names, "spans": rows}
