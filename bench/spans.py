"""Span tracing of obci's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
obci module that holds a reference to it (modules import each other's
functions by name), and puts the originals back on exit.  A wrapper records
one span (name, start, end, parent) in memory; a few also count work from
their arguments or results.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import logging
import re
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Everything a layer's self time should
# exclude needs its own span, even when no metric reports it on its own.
FUNCTIONS = [
    ("obci.paths", "wiener_block", "paths.wiener_block"),
    ("obci.limits", "draw_limit_samples", "limits.draw_limit_samples"),
    ("obci.limits", "critical_value", "limits.critical_value"),
    ("obci.experiments", "generate", "experiments.generate"),
    ("obci.experiments", "coverage_experiment", "experiments.coverage_experiment"),
    ("obci.series", "batch_estimates", "series.batch_estimates"),
    ("obci.series", "load_series", "series.load_series"),
    ("obci.cip", "var_ob1", "cip.var_ob1"),
    ("obci.cip", "var_ob2", "cip.var_ob2"),
    ("obci.cip", "var_ob3", "cip.var_ob3"),
    ("obci.subsampling", "subsampling_interval", "subsampling.subsampling_interval"),
    ("obci.cli", "main", "cli.main"),
]
TABLE_METHODS = ("to_csv", "from_csv", "lookup")
ESTIMATOR_SPANS = {"sliding_estimates": "functionals.sliding", "prefix_estimates": "functionals.prefix"}

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "paths.wiener_block_s": "paths.wiener_block",
    "limits.evaluate_s": "limits.draw_limit_samples",
    "limits.quantile_s": "limits.critical_value",
    "limits.table_io_s": "limits.table_io",
    "experiments.generate_s": "experiments.generate",
    "experiments.harness_s": "experiments.coverage_experiment",
    "series.batch_estimates_s": "series.batch_estimates",
    "series.load_series_s": "series.load_series",
    "functionals.sliding_s": "functionals.sliding",
    "functionals.prefix_s": "functionals.prefix",
    "cip.var_ob1_s": "cip.var_ob1",
    "cip.var_ob2_s": "cip.var_ob2",
    "cip.var_ob3_s": "cip.var_ob3",
    "subsampling.interval_s": "subsampling.subsampling_interval",
    "cli.main_s": "cli.main",
}
COUNT_METRICS = {
    "paths.normals": "count",
    "paths.bytes_computed": "bytes",
    "limits.draw_rows": "count",
    "limits.redraws": "count",
    "experiments.na_count": "count",
    "functionals.estimate_calls": "count",
}
_REDREW = re.compile(r"redrew (\d+)")


class _RedrawHandler(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__()
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        match = _REDREW.search(record.getMessage())
        if match:
            self.counts["limits.redraws"] += int(match.group(1))


def _count_wiener(counts: Counter, bound: inspect.BoundArguments, result) -> None:
    rows, cells = bound.arguments["rows"], bound.arguments["grid_count"]
    counts["paths.normals"] += rows * cells
    counts["paths.bytes_computed"] += rows * (cells + 1) * 8
    counts["limits.draw_rows"] += rows


def _count_na(counts: Counter, bound, result) -> None:
    counts["experiments.na_count"] += result.na_count


COUNTERS = {"paths.wiener_block": _count_wiener, "experiments.coverage_experiment": _count_na}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _count_calls(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def install(self):
        import obci.functionals
        import obci.limits

        undo = []
        modules = [m for k, m in list(sys.modules.items()) if k == "obci" or k.startswith("obci.")]
        for module_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, value))
                        setattr(module, key, wrapper)

        def patch_class(cls, key, make):
            raw = cls.__dict__[key]
            undo.append((cls, key, raw))
            if isinstance(raw, classmethod):
                setattr(cls, key, classmethod(make(raw.__func__)))
            else:
                setattr(cls, key, make(raw))

        for key in TABLE_METHODS:
            patch_class(obci.limits.CriticalValueTable, key, lambda f: self._wrap("limits.table_io", f))
        base = obci.functionals.FunctionalEstimator
        for cls in [base, *_subclasses(base)]:
            for key, span in ESTIMATOR_SPANS.items():
                if key in cls.__dict__:
                    patch_class(cls, key, lambda f, s=span: self._wrap(s, f))
            if "estimate" in cls.__dict__:
                patch_class(cls, "estimate", lambda f: self._count_calls("functionals.estimate_calls", f))
        handler = _RedrawHandler(self.counts)
        logging.getLogger("obci.limits").addHandler(handler)
        try:
            yield self
        finally:
            logging.getLogger("obci.limits").removeHandler(handler)
            for owner, key, value in reversed(undo):
                setattr(owner, key, value)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
        return totals

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round: self times in seconds, counts exact."""
        totals = self.self_times()
        out = {metric: totals.get(span, 0.0) / rounds for metric, span in SELF_TIME_METRICS.items()}
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0) / rounds
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
