"""Wall-clock spans around the public entry points of each repro layer.

The tracer wraps the boundaries in :data:`BOUNDARIES` from outside the
program: a method is replaced on its class, and a function is replaced
in every ``repro`` module that holds it (``from x import f`` copies the
reference).  :meth:`Tracer.uninstall` puts every original object back.
Spans are kept in memory as ``[layer, name, start, end, parent, op]``
rows (``parent`` is a row index) and written out when the run ends.

A layer's *self* time is its spans' duration minus the part covered by
their child spans; its *busy* time is the duration of its outermost
spans, so a layer whose entry points nest (``run_cascade`` calling the
batch kernels) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

#: (layer, module, attribute) of every wrapped public boundary.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("msa.search", "repro.msa.jackhmmer", "JackhmmerSearch.search"),
    ("msa.search", "repro.msa.nhmmer", "NhmmerSearch.search"),
    ("msa.kernels", "repro.msa.kernels.cascade", "run_cascade"),
    ("msa.kernels", "repro.msa.kernels.batched", "msv_filter_batch"),
    ("msa.kernels", "repro.msa.kernels.batched", "calc_band_9_batch"),
    ("msa.kernels", "repro.msa.kernels.batched", "calc_band_10_batch"),
    ("msa.kernels", "repro.msa.kernels.batched", "viterbi_panel_scores"),
    ("msa.calibrate", "repro.msa.evalue", "calibrate"),
    ("msa.align", "repro.msa.aligner", "assemble_msa"),
    ("msa.features", "repro.msa.features", "build_assembly_features"),
    ("parallel", "repro.parallel.executor", "run_sharded"),
    ("hardware.cpu", "repro.hardware.cpu", "CpuSimulator.simulate"),
    ("hardware.gpu", "repro.hardware.gpu",
     "InferenceSimulator.compute_seconds"),
    ("hardware.gpu", "repro.hardware.gpu", "InferenceSimulator.run"),
    ("model.flops", "repro.model.flops", "inference_costs"),
    ("core.server", "repro.core.server", "InferenceServer.serve_batch"),
    ("serving.gateway", "repro.serving.gateway", "ServingGateway.run"),
    ("serving.report", "repro.serving.metrics", "ServingReport.summary"),
    ("store.get", "repro.store.feature_store", "FeatureStore.get"),
    ("store.put", "repro.store.feature_store", "FeatureStore.put"),
    ("cluster.scheduler", "repro.cluster.scheduler", "ClusterScheduler.run"),
    ("cluster.autoscaler", "repro.cluster.autoscaler", "Autoscaler.decide"),
)

#: Per-layer metrics, in report order: (name, unit, kind, argument).
#: Kinds: ``calls``/``self``/``busy`` of a layer, a ``counter`` the
#: observers accumulate, the ``distinct`` argument ratio, or a
#: ``ratio`` of two counters.  Counts and seconds are per traced op.
LAYER_METRICS: Tuple[Tuple[str, str, str, object], ...] = (
    ("msa.search.calls", "calls/op", "calls", "msa.search"),
    ("msa.search.self_s", "s/op", "self", "msa.search"),
    ("msa.kernels.busy_s", "s/op", "busy", "msa.kernels"),
    ("msa.kernels.cells", "cells/op", "counter", "kernel_cells"),
    ("msa.kernels.pad_useful_ratio", "ratio", "ratio",
     ("real_tokens", "padded_tokens")),
    ("msa.calibrate.busy_s", "s/op", "busy", "msa.calibrate"),
    ("msa.align.calls", "calls/op", "calls", "msa.align"),
    ("msa.align.busy_s", "s/op", "busy", "msa.align"),
    ("msa.features.busy_s", "s/op", "busy", "msa.features"),
    ("parallel.calls", "calls/op", "calls", "parallel"),
    ("parallel.overhead_s", "s/op", "counter", "parallel_overhead_s"),
    ("hardware.cpu.busy_s", "s/op", "busy", "hardware.cpu"),
    ("hardware.gpu.calls", "calls/op", "calls", "hardware.gpu"),
    ("hardware.gpu.self_s", "s/op", "self", "hardware.gpu"),
    ("model.flops.calls", "calls/op", "calls", "model.flops"),
    ("model.flops.busy_s", "s/op", "busy", "model.flops"),
    ("model.flops.distinct_ratio", "ratio", "distinct", "model.flops"),
    ("core.server.calls", "calls/op", "calls", "core.server"),
    ("core.server.self_s", "s/op", "self", "core.server"),
    ("serving.gateway.self_s", "s/op", "self", "serving.gateway"),
    ("serving.report.busy_s", "s/op", "busy", "serving.report"),
    ("serving.cache.hit_ratio", "ratio", "ratio",
     ("cache_hits", "cache_lookups")),
    ("store.get.calls", "calls/op", "calls", "store.get"),
    ("store.get.busy_s", "s/op", "busy", "store.get"),
    ("store.put.calls", "calls/op", "calls", "store.put"),
    ("store.put.busy_s", "s/op", "busy", "store.put"),
    ("store.hit_ratio", "ratio", "ratio", ("store_hits", "store_lookups")),
    ("cluster.scheduler.self_s", "s/op", "self", "cluster.scheduler"),
    ("cluster.autoscaler.calls", "calls/op", "calls", "cluster.autoscaler"),
    ("cluster.autoscaler.busy_s", "s/op", "busy", "cluster.autoscaler"),
    ("cluster.chain_reuse_ratio", "ratio", "ratio",
     ("chain_store_hits", "chains_total")),
)

# Span row fields.
LAYER, NAME, START, END, PARENT, OP = range(6)


def _observe_search(tracer, span, args, kwargs, result) -> None:
    stats = result.stats
    tracer.counters["kernel_cells"] += (
        stats.msv.cells + stats.viterbi.cells + stats.forward.cells
    )
    waste = getattr(result, "scan_waste", None) or {}
    tracer.counters["real_tokens"] += waste.get("real_tokens", 0)
    tracer.counters["padded_tokens"] += waste.get("padded_tokens", 0)


def _observe_sharded(tracer, span, args, kwargs, result) -> None:
    shards = sum(t.end - t.start for t in result.timings)
    tracer.counters["parallel_overhead_s"] += (
        span[END] - span[START] - shards
    )


def _observe_flops(tracer, span, args, kwargs, result) -> None:
    key = (args, tuple(sorted(kwargs.items())))
    try:
        tracer.flops_keys.add(key)
    except TypeError:       # an unhashable argument: fall back to repr
        tracer.flops_keys.add(repr(key))


def _observe_serving_summary(tracer, span, args, kwargs, result) -> None:
    tracer.counters["cache_hits"] += result["cache_hits"]
    tracer.counters["cache_lookups"] += (
        result["cache_hits"] + result["cache_misses"]
    )


def _observe_store(tracer, span, args, kwargs, result) -> None:
    tracer.stores[id(args[0])] = args[0]


def _observe_cluster(tracer, span, args, kwargs, result) -> None:
    tracer.counters["chain_store_hits"] += result.store_chain_hits
    tracer.counters["chains_total"] += result.chains_total


_OBSERVERS = {
    "msa.search": _observe_search,
    "parallel": _observe_sharded,
    "model.flops": _observe_flops,
    "serving.report": _observe_serving_summary,
    "store.get": _observe_store,
    "store.put": _observe_store,
    "cluster.scheduler": _observe_cluster,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.flops_keys: set = set()
        #: Feature stores touched by the current op; their lifetime
        #: ``counters()`` are added up when the op ends.
        self.stores: Dict[int, object] = {}
        self.patches: List[Tuple[object, str, object]] = []
        self._stack: List[int] = []
        self._op = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(layer)
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0,
                    stack[-1] if stack else None, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary; a no-op if already installed."""
        if self.patches:
            return
        functions = {}
        for layer, module_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                self.patches.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
            else:
                original = getattr(module, name)
                functions[id(original)] = (
                    original, self._wrap(layer, original)
                )
        for module_name, module in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patches.append((module, key, value))
                    setattr(module, key, hit[1])

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original object."""
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches = []

    # -- ops -------------------------------------------------------------

    def begin_op(self, op: int) -> list:
        """Open the op's root span; close it with :meth:`end_op`."""
        self._op = op
        span = ["op", "op", perf_counter(), 0.0, None, op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end_op(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()
        self._op = None
        for store in self.stores.values():
            counters = store.counters()
            self.counters["store_hits"] += counters["hits"]
            self.counters["store_lookups"] += (
                counters["hits"] + counters["misses"]
            )
        self.stores.clear()

    # -- derived metrics -------------------------------------------------

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value over ``ops`` traced ops."""
        spans = self.spans
        own = self_times(spans)
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        busy: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(spans):
            layer = span[LAYER]
            calls[layer] += 1
            self_s[layer] += own[index]
            if not _has_ancestor_in(spans, index, layer):
                busy[layer] += span[END] - span[START]
        per_op = 1.0 / max(ops, 1)
        out: Dict[str, float] = {}
        for name, _unit, kind, arg in LAYER_METRICS:
            if kind == "calls":
                value = calls[arg] * per_op
            elif kind == "self":
                value = self_s[arg] * per_op
            elif kind == "busy":
                value = busy[arg] * per_op
            elif kind == "counter":
                value = self.counters[arg] * per_op
            elif kind == "distinct":
                value = len(self.flops_keys) / calls[arg] if calls[arg] else 0.0
            else:
                num, den = arg
                den_value = self.counters[den]
                value = self.counters[num] / den_value if den_value else 0.0
            out[name] = value
        return out

    # -- output ----------------------------------------------------------

    def span_docs(self, origin: float) -> List[dict]:
        """Spans as JSON-ready dicts, times in seconds since ``origin``."""
        return [
            {
                "id": index, "layer": s[LAYER], "name": s[NAME],
                "start": s[START] - origin, "end": s[END] - origin,
                "parent": s[PARENT], "op": s[OP],
            }
            for index, s in enumerate(self.spans)
        ]

    def chrome_trace(self, track: str, origin: float, metadata: dict) -> dict:
        """Trace-event JSON: one wall-clock track named ``track``."""
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench (wall clock)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": track}},
        ]
        for index, s in enumerate(self.spans):
            events.append({
                "name": s[NAME], "cat": s[LAYER], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": round((s[START] - origin) * 1e6, 3),
                "dur": round((s[END] - s[START]) * 1e6, 3),
                "args": {"id": index, "parent": s[PARENT], "op": s[OP]},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, clock="wall"),
        }

    def write(self, stem, track: str, origin: float, metadata: dict) -> None:
        """Write ``<stem>.spans.json`` and ``<stem>.trace.json``."""
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(
                {"metadata": metadata, "spans": self.span_docs(origin)}, fh
            )
        with open(f"{stem}.trace.json", "w") as fh:
            json.dump(self.chrome_trace(track, origin, metadata), fh)


def _has_ancestor_in(spans: Sequence[list], index: int, layer: str) -> bool:
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][LAYER] == layer:
            return True
        parent = spans[parent][PARENT]
    return False


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children count once."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out
