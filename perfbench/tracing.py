"""In-memory span tracing around the isatraits layers, from outside the package.

The program binds most layer functions with ``from ... import``, so a span
has to wrap each name where its caller looks it up (``isatraits.evaluate.fit``,
``isatraits.cli.load_model``, ...). ``Tracer.install``
swaps those names for timing wrappers and ``Tracer.uninstall`` puts the
originals back; nothing under ``src/`` is edited.

A span records its name, start, end, parent span and op id, plus counts
taken at the boundary (bytes loaded, rows predicted, n*l autocorrelation
work). The first component of a span name is its layer. A span's self time
is its duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from typing import Any, Callable

LAYERS = ("corpus", "features", "classify", "evaluate", "cli")
SUITE_NAMES = ("knn1", "knn3", "knn5", "gnb", "dtree", "logreg", "rforest")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: int | None, op: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, Any] = {}

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(args, kwargs, result) -> dict:
    return {"bytes": len(result.data), "key": result.source_path}


def _count_autocorr(args, kwargs, result) -> dict:
    sample = _arg(args, kwargs, 0, "sample")
    n = len(sample.data)
    return {"n": n, "lag_bytes": n * int(_arg(args, kwargs, 1, "l")), "key": sample.source_path}


def _count_fit(args, kwargs, result) -> dict:
    from isatraits.classify import name_of_spec

    return {"kind": name_of_spec(_arg(args, kwargs, 0, "spec")),
            "rows": len(_arg(args, kwargs, 1, "X"))}


def _count_predict(args, kwargs, result) -> dict:
    return {"rows": len(_arg(args, kwargs, 1, "X"))}


def _count_model_load(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_plan(args, kwargs, result) -> dict:
    return {"folds": len(result.folds)}


# (module, attribute path where the caller looks the name up, span name, counter)
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("isatraits.cli", "scan_corpus", "corpus.scan", None),
    ("isatraits.corpus", "SampleRef.load", "corpus.load", _count_load),
    ("isatraits.evaluate", "autocorrelation_feature", "features.autocorr", _count_autocorr),
    ("isatraits.evaluate", "bigram_histogram", "features.bigram", None),
    ("isatraits.evaluate", "endianness_signatures", "features.bigram", None),
    ("isatraits.evaluate", "fit", "classify.fit", _count_fit),
    ("isatraits.evaluate", "predict", "classify.predict", _count_predict),
    ("isatraits.cli", "load_model", "classify.serialize.load", _count_model_load),
    ("isatraits.evaluate", "plan_logocv", "evaluate.plan", _count_plan),
    ("isatraits.cli", "run_evaluation", "evaluate.run", None),
    ("isatraits.evaluate", "run_evaluation", "evaluate.run", None),
    ("isatraits.cli", "grid_search_lag", "evaluate.grid_lag", None),
    ("isatraits.cli", "predict_unknown", "evaluate.predict_unknown", None),
    # Private, so optional: a fold's span feeds evaluate.fold.max_s only.
    ("isatraits.evaluate", "_run_fold", "evaluate.fold", None),
)


class Tracer:
    """Spans and boundary counts kept in memory until the run writes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, counter in PATCHES:
            owner: object = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# Metrics whose names differ from the span sums they report.
ALIASES = {
    "evaluate.folds": "evaluate.plan.folds",
    "trace.op_s": "bench.op.s",
    "trace.unaccounted_s": "bench.op.self_s",
}


def layer_metrics(tracer: Tracer, op_ids: list[int], overhead_s: float) -> dict[str, float]:
    """Per-op means of the per-layer metrics over the traced ops in op_ids.

    Every span adds to <name>.calls, <name>.s, <name>.self_s, <layer>.self_s
    and <name>.<count> for each numeric count. Times are seconds per op,
    counts are per op; ratios are taken over the sums of all traced ops.
    """
    ops = set(op_ids)
    total: dict[str, float] = {}
    useful: dict[tuple, int] = {}  # (op, sample) -> n*l of its largest-lag extraction
    distinct: dict[tuple, int] = {}  # (op, path) -> bytes
    fold_max = 0.0
    for span, own in zip(tracer.spans, _self_times(tracer.spans)):
        if span.op not in ops:
            continue
        duration = span.end - span.start
        counts = span.counts
        sums = [(f"{span.layer}.self_s", own), (f"{span.name}.self_s", own),
                (f"{span.name}.calls", 1), (f"{span.name}.s", duration)]
        sums += [(f"{span.name}.{k}", v) for k, v in counts.items() if not isinstance(v, str)]
        if span.name == "classify.fit":
            sums.append((f"classify.fit.s.{counts['kind']}", duration))
        for key, value in sums:
            total[key] = total.get(key, 0.0) + value
        if span.name == "corpus.load":
            distinct[(span.op, counts["key"])] = counts["bytes"]
        elif span.name == "features.autocorr":
            sample = (span.op, counts["key"], counts["n"])
            useful[sample] = max(useful.get(sample, 0), counts["lag_bytes"])
        elif span.name == "evaluate.fold":
            fold_max = max(fold_max, duration)

    n_ops = max(len(ops), 1)
    metrics = {name: total.get(ALIASES.get(name, name), 0.0) / n_ops for name in PER_LAYER_UNITS}
    lag_bytes = total.get("features.autocorr.lag_bytes", 0.0)
    if lag_bytes:
        metrics["features.autocorr.ns_per_lag_byte"] = (
            1e9 * total["features.autocorr.s"] / lag_bytes)
        metrics["features.autocorr.useful_ratio"] = sum(useful.values()) / lag_bytes
    if distinct:
        metrics["corpus.load.redundancy"] = total["corpus.load.bytes"] / sum(distinct.values())
    metrics["evaluate.fold.max_s"] = fold_max
    metrics["trace.overhead_s"] = overhead_s
    return metrics


# Which end-to-end metric, on which workload, each per-layer metric should
# move, written down before any optimisation is measured against it.
MOVES: dict[str, str] = {
    "features.autocorr.{calls,s,lag_bytes,ns_per_lag_byte}":
        "wall_s on lag-sweep; wall_s and mb_per_s on predict-large",
    "features.autocorr.useful_ratio": "wall_s on lag-sweep",
    "features.bigram.{calls,s}": "wall_s on predict-large",
    "corpus.load.{calls,bytes,s,redundancy}, corpus.scan.*": "wall_s on lag-sweep",
    "classify.fit.s.<name>, classify.fit.{calls,s}, classify.predict.{calls,rows,s}":
        "wall_s on suite-logocv",
    "classify.serialize.load.{calls,s,bytes}": "wall_s on predict-large",
    "evaluate.{run.calls,folds,self_s,fold.max_s,plan.s}": "should stay small on all three",
    "cli.main.self_s": "wall_s and cold_start_s on predict-large",
    "<layer>.self_s": "their sum plus trace.unaccounted_s is trace.op_s",
    "trace.overhead_s": "traced minus untraced op wall time; not a property of the program",
}

PER_LAYER_UNITS: dict[str, str] = {
    "corpus.scan.calls": "count",
    "corpus.scan.s": "s",
    "corpus.load.calls": "count",
    "corpus.load.bytes": "bytes",
    "corpus.load.s": "s",
    "corpus.load.redundancy": "ratio",
    "corpus.self_s": "s",
    "features.autocorr.calls": "count",
    "features.autocorr.s": "s",
    "features.autocorr.lag_bytes": "bytes",
    "features.autocorr.ns_per_lag_byte": "ns",
    "features.autocorr.useful_ratio": "ratio",
    "features.bigram.calls": "count",
    "features.bigram.s": "s",
    "features.self_s": "s",
    "classify.fit.calls": "count",
    "classify.fit.s": "s",
    **{f"classify.fit.s.{name}": "s" for name in SUITE_NAMES},
    "classify.predict.calls": "count",
    "classify.predict.rows": "count",
    "classify.predict.s": "s",
    "classify.serialize.load.calls": "count",
    "classify.serialize.load.s": "s",
    "classify.serialize.load.bytes": "bytes",
    "classify.self_s": "s",
    "evaluate.run.calls": "count",
    "evaluate.folds": "count",
    "evaluate.plan.s": "s",
    "evaluate.fold.max_s": "s",
    "evaluate.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.op_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}
