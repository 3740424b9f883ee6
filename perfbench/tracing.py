"""Layer spans recorded around ``repro``'s public entry points.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
each listed entry point with a wrapper that records one span per call
— layer, start, end, parent span, rows handled — and then calls the
original.  Spans are kept in memory and written out when the process
ends its measured work (:meth:`Tracer.dump`).

Times come from ``CLOCK_MONOTONIC``, which every process on the host
shares, so server spans and client timestamps can be compared.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Calls in one process are nested (the study child
and the asyncio server are single-threaded), so the children of a span
never overlap and the self times of a call tree add up to its root.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

_now = time.monotonic_ns

#: Span fields, in the order spans are stored and written.
LAYER, START, END, PARENT, ROWS, EXTRA = range(6)


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = True

    def wrap(
        self,
        name: str,
        fn: Callable,
        rows: Optional[Callable] = None,
        counter: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``rows(args, result)`` gives the rows the call handled;
        ``counter(args)`` reads a program counter whose change during
        the call is stored as the span's ``extra``.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, _now(), 0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            before = counter(args) if counter is not None else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = _now()
            if rows is not None:
                span[ROWS] = rows(args, result)
            if counter is not None:
                span[EXTRA] = counter(args) - before
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _rebind(original: Callable, traced: Callable) -> None:
    """Point every loaded ``repro`` module's reference at ``traced``.

    ``from module import function`` copies the reference, so patching
    the defining module alone would miss the callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, traced)


def _patch_function(tracer, module, attr, name, rows=None) -> None:
    original = getattr(importlib.import_module(module), attr)
    _rebind(original, tracer.wrap(name, original, rows))


def _patch_method(tracer, module, cls, attr, name, rows=None, counter=None):
    owner = getattr(importlib.import_module(module), cls)
    original = owner.__dict__[attr]
    setattr(owner, attr, tracer.wrap(name, original, rows, counter))


def _n(index: int) -> Callable:
    """Rows = length of positional argument ``index``."""
    return lambda args, result: len(args[index])


def _base_hits(args) -> int:
    return args[0].base_seconds_cache_hits


#: The modules whose references :func:`_rebind` must see.
_MODULES = (
    "repro.runner.runner",
    "repro.figures.common",
    "repro.figures.cache",
    "repro.experiments.random_search",
    "repro.experiments.regions",
    "repro.experiments.prediction",
    "repro.core.classify",
    "repro.core.discriminants",
    "repro.backends.simulated",
    "repro.machine.machine",
    "repro.machine.noise",
    "repro.profiles.benchmark",
    "repro.expressions.base",
    "repro.service.engine",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of ``repro`` with ``tracer``."""
    for module in _MODULES:
        importlib.import_module(module)
    fn = _patch_function
    meth = _patch_method
    fn(tracer, "repro.runner.runner", "run_study", "runner/run_study")
    fn(tracer, "repro.experiments.random_search", "random_search",
       "experiments.search", lambda a, r: r.n_samples)
    fn(tracer, "repro.experiments.regions", "explore_regions",
       "experiments.regions", lambda a, r: len(r.cells))
    fn(tracer, "repro.experiments.prediction", "predict_from_benchmarks",
       "experiments.prediction", lambda a, r: len(r.records))
    fn(tracer, "repro.core.classify", "evaluate_instances",
       "core.classify/evaluate", _n(2))
    fn(tracer, "repro.core.classify", "classify_batch",
       "core.classify/classify")
    # batch_flops only evaluates each plan's compiled FLOP function,
    # so its time is the expressions layer's, wherever it is called.
    fn(tracer, "repro.core.classify", "batch_flops", "expressions/flops")
    meth(tracer, "repro.expressions.base", "Algorithm", "flops_batch",
         "expressions/flops")
    meth(tracer, "repro.expressions.base", "Algorithm",
         "kernel_call_batches", "expressions/calls")
    for attr in ("time_algorithms", "predict_times"):
        meth(tracer, "repro.backends.simulated", "SimulatedBackend", attr,
             "backends.simulated", _n(2))
    meth(tracer, "repro.backends.simulated", "SimulatedBackend",
         "time_kernels", "backends.simulated", _n(2))
    for attr in ("measure_algorithm_batch", "predict_algorithm_batch"):
        meth(tracer, "repro.machine.machine", "MachineModel", attr,
             "machine", lambda a, r: len(r), _base_hits)
    meth(tracer, "repro.machine.machine", "MachineModel",
         "measure_kernel_batch", "machine", lambda a, r: len(r), _base_hits)
    meth(tracer, "repro.machine.noise", "NoiseModel", "factors_from_ids",
         "machine.noise", lambda a, r: r.size)
    meth(tracer, "repro.machine.noise", "NoiseModel", "factors",
         "machine.noise")
    meth(tracer, "repro.figures.cache", "StudyStore", "save",
         "figures.cache/save")
    meth(tracer, "repro.figures.cache", "StudyStore", "load",
         "figures.cache/load")
    meth(tracer, "repro.profiles.benchmark", "Profile", "predict_batch",
         "profiles.predict", _n(1))
    fn(tracer, "repro.profiles.benchmark", "standard_profiles",
       "profiles/build")
    for cls, name in (
        ("MinFlopsDiscriminant", "min-flops"),
        ("ProfiledTimeDiscriminant", "profiled-time"),
        ("FlopsProfileHybrid", "hybrid"),
        ("BenchmarkDiscriminant", "benchmark-sum"),
    ):
        meth(tracer, "repro.core.discriminants", cls, "select_batch",
             f"core.discriminants.{name}", _n(2))
    meth(tracer, "repro.service.engine", "SelectionEngine", "select_many",
         "service.engine/select_many", _n(2))
    meth(tracer, "repro.service.engine", "StudyProvider", "get",
         "service.engine/studies")
    fn(tracer, "repro.service.engine", "instance_in_regions",
       "service.annotate")


def load_spans(path: str) -> List[list]:
    with open(path) as handle:
        return json.load(handle)


def self_times(spans: Sequence[list]) -> List[int]:
    """Each span's duration minus the part its child spans cover.

    Coverage is the union of the children's intervals clipped to the
    parent, so the self times of a tree add up to its root's duration
    only when children nest inside their parent without overlapping —
    which :func:`self_sum_error_ns` checks.
    """
    own = [span[END] - span[START] for span in spans]
    covered_to: Dict[int, int] = {}
    for span in spans:  # stored in start order
        parent_index = span[PARENT]
        if parent_index < 0:
            continue
        parent = spans[parent_index]
        lo = max(span[START], covered_to.get(parent_index, parent[START]))
        hi = min(span[END], parent[END])
        if hi > lo:
            own[parent_index] -= hi - lo
            covered_to[parent_index] = hi
    return own


def self_sum_error_ns(spans: Sequence[list]) -> int:
    """Sum of all self times minus the sum of the root spans' durations.

    Zero for a well-formed trace; anything else means spans overlap or
    escape their parent, and the per-layer self times are not to be
    trusted.
    """
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    return sum(self_times(spans)) - roots


class LayerTotals:
    """Per-layer sums over chosen spans: self and inclusive time, calls,
    rows and counter changes.

    A span named ``layer/part`` counts towards both ``layer/part`` and
    ``layer``.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, int] = defaultdict(int)
        #: Rows of spans by (parent span name, span name).
        self.rows_under: Dict[tuple, int] = defaultdict(int)
        self.span_count = 0

    def add(self, spans: Sequence[list], keep: Iterable[int]) -> "LayerTotals":
        own = self_times(spans)
        for i in keep:
            span = spans[i]
            name = span[LAYER]
            self.span_count += 1
            if span[PARENT] >= 0:
                self.rows_under[spans[span[PARENT]][LAYER], name] += span[ROWS]
            for key in {name, name.split("/", 1)[0]}:
                self.self_ns[key] += own[i]
                self.inclusive_ns[key] += span[END] - span[START]
                self.calls[key] += 1
                self.rows[key] += span[ROWS]
                self.extra[key] += span[EXTRA]
        return self

    def seconds(self, layer: str) -> float:
        """Self time of ``layer`` in seconds."""
        return self.self_ns.get(layer, 0) / 1e9
