"""In-memory span tracing installed from outside the program.

`Tracer` replaces public functions at the place where each layer's caller
looks them up (for example `femrisk.femodel.solver.spsolve`), records one
span per call and restores every original on exit.  Spans stay in memory
until the traced command ends; `write_spans` then dumps them as JSON lines
and `layer_metrics` reduces them to the per-layer figures.

A span is (name, start, end, cpu_start, cpu_end, parent, run, thread).  Its
parent is the innermost open span of the same thread; a span opened on a
pool thread with nothing open there takes the innermost open span of the
thread that installed the tracer, the call that is waiting on the pool.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: Optional[int]
    run: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counter hooks: (args, kwargs, result) -> {counter: increment}.  A counter
# whose name ends in "_max" keeps the largest value instead of the sum.

def _solve_counts(args, kwargs, curve):
    return {"femodel.solver.increments": curve.force.size - 1}


def _spsolve_counts(args, kwargs, x):
    return {"femodel.solver.spsolve.dofs_max": args[0].shape[0]}


def _kernel_counts(args, kwargs, out):
    alpha_in, alpha_out = np.asarray(args[2]), out[3]
    return {"femodel._kernel.radial_return_batch.points": alpha_in.size,
            "femodel._kernel.radial_return_batch.plastic":
                int(np.count_nonzero(alpha_out > alpha_in))}


def _logistic_counts(args, kwargs, fit):
    return {"stats.logistic.fit_logistic.iterations": fit.iterations}


def _split_counts(args, kwargs, split):
    # Callers redraw when the held-out side holds a single class.
    held_out = np.asarray(args[0])[split[1]]
    return {"evaluate.stratified_split_indices.redraws":
                int(held_out.min() == held_out.max())}


# (module, attribute, span name, counter hook).  The module is where the
# caller looks the function up, so the same function may appear twice.
WRAPS = (
    ("femrisk.cli", "load_grid", "femodel.grid.load_grid", None),
    ("femrisk.femodel.loadcases", "rotate_grid", "femodel.grid.rotate_grid", None),
    ("femrisk.femodel.loadcases", "solve", "femodel.solver.solve", _solve_counts),
    ("femrisk.femodel.solver", "spsolve", "femodel.solver.spsolve", _spsolve_counts),
    ("femrisk.femodel.solver", "radial_return_batch",
     "femodel._kernel.radial_return_batch", _kernel_counts),
    ("femrisk.cli", "load_cohort", "datamodel.load_cohort", None),
    ("femrisk.evaluate", "build_feature_matrix", "datamodel.build_feature_matrix", None),
    ("femrisk.datamodel:Cohort", "subset", "datamodel.Cohort.subset", None),
    ("femrisk.evaluate", "fe9_matrix", "evaluate.fe9_matrix", None),
    ("femrisk.evaluate", "stratified_split_indices",
     "evaluate.stratified_split_indices", _split_counts),
    ("femrisk.cli", "run_lgocv", "evaluate.run_lgocv", None),
    ("femrisk.cli", "run_resample_comparison", "evaluate.run_resample_comparison", None),
    ("femrisk.cli", "build_report", "evaluate.build_report", None),
    ("femrisk.evaluate", "train", "classifiers.train", None),
    ("femrisk.evaluate", "predict_scores", "classifiers.predict_scores", None),
    ("femrisk.classifiers", "fit_logistic", "stats.logistic.fit_logistic", _logistic_counts),
    ("femrisk.stats.pca", "fit_logistic", "stats.logistic.fit_logistic", _logistic_counts),
    # A fit that falls back to the separation ridge runs IRLS twice.
    ("femrisk.stats.logistic", "_irls", "stats.logistic._irls", None),
    ("femrisk.evaluate", "fit_pca", "stats.pca.fit_pca", None),
    ("femrisk.evaluate", "risk_index", "stats.pca.risk_index", None),
    ("femrisk.evaluate", "auc_mann_whitney", "stats.roc.auc_mann_whitney", None),
    ("femrisk.evaluate", "delong_compare", "stats.roc.delong_compare", None),
)

ROOT = "cli.dispatch"


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Context manager: wrap every entry of `wraps`, restore on exit."""

    def __init__(self, run: str = "run", wraps=WRAPS):
        self.run = run
        self.wraps = wraps
        self.spans: list[tuple[int, Span]] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = None
        self._owner_stack: list[int] = []
        self._saved = []
        self._next_id = 0

    def __enter__(self) -> "Tracer":
        self._owner = threading.get_ident()
        try:
            for target, attr, name, hook in self.wraps:
                holder = _resolve(target)
                original = holder.__dict__[attr] if isinstance(holder, type) \
                    else getattr(holder, attr)
                self._saved.append((holder, attr, original))
                setattr(holder, attr, self._wrap(original, name, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if hook is not None:
                    counts.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the block; yields a dict of counts."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        counts: dict[str, float] = {}
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            yield counts
        finally:
            end, cpu_end = time.perf_counter(), time.process_time()
            stack.pop()
            span = Span(name, start, end, cpu_start, cpu_end, parent, self.run,
                        threading.get_ident())
            with self._lock:
                self.spans.append((sid, span))
                for key, value in counts.items():
                    if key.endswith("_max"):
                        value = max(self.counters.get(key, value), value)
                    else:
                        value += self.counters.get(key, 0)
                    self.counters[key] = value

    def ordered_spans(self) -> list[Span]:
        """Spans indexed by id (the order in which they were opened), so
        that `parent` indexes the returned list."""
        if len(self.spans) != self._next_id:
            raise RuntimeError("spans are still open")
        out: list[Span] = [None] * self._next_id  # type: ignore[list-item]
        for sid, span in self.spans:
            out[sid] = span
        return out


# -- reduction ---------------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its direct children.

    `spans[i].parent` indexes into `spans`.  Children from two threads may
    overlap each other; the union counts shared time once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - union_length(children.get(i, ()), s.start, s.end)
            for i, s in enumerate(spans)]


# Per-layer metrics: name -> unit.  Every name is printed for every
# workload; a layer the workload never reaches reads 0.
LAYER_METRICS = {
    "cli.dispatch.self_s": "s",
    "femodel.grid.load_grid.busy_s": "s",
    "femodel.grid.rotate_grid.busy_s": "s",
    "femodel.solver.solve.calls": "count",
    "femodel.solver.solve.busy_s": "s",
    "femodel.solver.solve.self_s": "s",
    "femodel.solver.increments": "count",
    "femodel.solver.spsolve.calls": "count",
    "femodel.solver.spsolve.busy_s": "s",
    "femodel.solver.spsolve.dofs_max": "count",
    "femodel.solver.spsolve.per_increment": "ratio",
    "femodel._kernel.radial_return_batch.calls": "count",
    "femodel._kernel.radial_return_batch.busy_s": "s",
    "femodel._kernel.radial_return_batch.points": "count",
    "femodel._kernel.radial_return_batch.plastic_share": "ratio",
    "datamodel.load_cohort.busy_s": "s",
    "datamodel.build_feature_matrix.calls": "count",
    "datamodel.build_feature_matrix.busy_s": "s",
    "datamodel.Cohort.subset.calls": "count",
    "datamodel.Cohort.subset.busy_s": "s",
    "evaluate.fe9_matrix.calls": "count",
    "evaluate.fe9_matrix.busy_s": "s",
    "evaluate.stratified_split_indices.calls": "count",
    "evaluate.stratified_split_indices.redraws": "count",
    "evaluate.run_lgocv.busy_s": "s",
    "evaluate.run_resample_comparison.busy_s": "s",
    "evaluate.run_resample_comparison.self_s": "s",
    "evaluate.run_resample_comparison.cpu_per_wall": "ratio",
    "evaluate.build_report.busy_s": "s",
    "classifiers.train.calls": "count",
    "classifiers.train.busy_s": "s",
    "classifiers.predict_scores.calls": "count",
    "classifiers.predict_scores.busy_s": "s",
    "stats.logistic.fit_logistic.calls": "count",
    "stats.logistic.fit_logistic.busy_s": "s",
    "stats.logistic.fit_logistic.iterations": "count",
    "stats.logistic.fit_logistic.penalized": "count",
    "stats.pca.fit_pca.busy_s": "s",
    "stats.pca.risk_index.busy_s": "s",
    "stats.roc.auc_mann_whitney.calls": "count",
    "stats.roc.auc_mann_whitney.busy_s": "s",
    "stats.roc.delong_compare.calls": "count",
    "stats.roc.delong_compare.busy_s": "s",
}


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Reduce spans and counters to every name in LAYER_METRICS."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + st
        cpu[s.name] = cpu.get(s.name, 0.0) + (s.cpu_end - s.cpu_start)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            value = calls.get(layer, 0)
        elif kind == "busy_s":
            value = busy.get(layer, 0.0)
        elif kind == "self_s":
            value = own.get(layer, 0.0)
        elif kind == "cpu_per_wall":
            value = cpu.get(layer, 0.0) / busy[layer] if busy.get(layer) else 0.0
        else:
            value = counters.get(metric, 0)
        out[metric] = value
    increments = counters.get("femodel.solver.increments", 0)
    out["femodel.solver.spsolve.per_increment"] = (
        calls.get("femodel.solver.spsolve", 0) / increments if increments else 0.0)
    out["stats.logistic.fit_logistic.penalized"] = (
        calls.get("stats.logistic._irls", 0) - calls.get("stats.logistic.fit_logistic", 0))
    points = counters.get("femodel._kernel.radial_return_batch.points", 0)
    out["femodel._kernel.radial_return_batch.plastic_share"] = (
        counters.get("femodel._kernel.radial_return_batch.plastic", 0) / points
        if points else 0.0)
    return out


def write_spans(spans: list[Span], path, header: Optional[dict] = None) -> None:
    """Write spans as JSON lines, times relative to the first span's start."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0,
                                 "end": s.end - t0, "parent": s.parent,
                                 "run": s.run, "thread": s.thread}) + "\n")
