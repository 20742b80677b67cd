"""Exporters: Chrome/Perfetto trace events and Prometheus text.

Two render targets for the same observability data, chosen for what
operators already have open:

* :func:`to_chrome_trace` / :func:`chrome_trace_json` — the Trace
  Event JSON format that ``chrome://tracing`` and https://ui.perfetto.dev
  load directly.  Worker service windows render as complete (``X``)
  events on one named track per worker — so an idle gap on ``gpu-2``
  or a ``worker.down`` window on ``msa-1`` is visible at a glance —
  and each request's span tree renders as an async (``b``/``e``) track
  keyed by its request id, so a p99 request can be followed end to
  end.  Simulated seconds map to trace microseconds.
* :func:`prometheus_metrics` — a Prometheus text exposition of a
  report summary, for piping the existing golden counters into any
  metrics stack without a new schema.  Each report has one ordered
  declaration of its metric families — :data:`SERVING_METRICS`,
  :data:`CLUSTER_METRICS`, :data:`CAMPAIGN_METRICS` — and the one
  renderer writes any of them.

Both are pure functions of their inputs with fully ordered output:
exporting the same seeded run twice yields byte-identical text (the
golden trace and exposition tests pin this).

This module imports nothing from ``repro.serving`` — summaries are
plain mappings — so ``repro.observability`` can be imported from
inside the serving package without a cycle.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .spans import KIND_INSTANT, REQUEST_TRACK, Span, SpanRecorder

#: Trace-event pid for the simulated gateway "process".
_PID = 1
#: tid of the lane request-scoped async events attach to.
_REQUEST_TID = 0

_WORKER_TRACK = re.compile(r"^(gpu|msa)-(\d+)$")


def _track_tids(recorder: SpanRecorder) -> "OrderedDict[str, int]":
    """Deterministic track -> tid map: declared worker lanes first
    (GPU pool, then MSA pool, in worker order), then any extra tracks
    spans actually used, in natural sort order."""
    tracks: "OrderedDict[str, None]" = OrderedDict()
    for track in recorder.declared_tracks:
        tracks.setdefault(track)
    extras = sorted(
        {
            s.track for s in recorder.spans
            if s.track != REQUEST_TRACK and s.track not in tracks
        },
        key=lambda t: (
            (0, m.group(1), int(m.group(2))) if (m := _WORKER_TRACK.match(t))
            else (1, t, 0)
        ),
    )
    for track in extras:
        tracks.setdefault(track)
    return OrderedDict(
        (track, tid) for tid, track in enumerate(tracks, start=1)
    )


def _us(seconds: float) -> float:
    """Simulated seconds -> trace microseconds, rounded for stability."""
    return round(seconds * 1e6, 3)


def _args(span: Span) -> "OrderedDict[str, object]":
    args: "OrderedDict[str, object]" = OrderedDict(span_id=span.span_id)
    if span.parent_id is not None:
        args["parent"] = span.parent_id
    if span.request_id is not None:
        args["request"] = span.request_id
    args["status"] = span.status
    for key in sorted(span.attrs):
        args[key] = span.attrs[key]
    return args


def to_chrome_trace(
    recorder: SpanRecorder,
    metadata: Optional[Dict[str, object]] = None,
) -> "OrderedDict[str, object]":
    """Render a recorded run as a Trace Event JSON object.

    Layout contract:

    * pid 1 is the gateway; tid 1..N are one thread ("track") per
      worker, named ``gpu-0`` ... ``msa-K`` via metadata events, so
      Perfetto shows one swim-lane per worker in pool order.
    * spans on a worker track (``msa.scan``, ``gpu.batch``,
      ``worker.down``, ``fault.*`` windows) become ``X`` complete
      events there; zero-width markers become ``i`` instants.
    * every request-scoped span additionally becomes an async
      ``b``/``e`` pair (``n`` for instants) under id ``r<request_id>``,
      grouping each request's full tree onto its own async track.

    ``metadata`` lands under ``otherData`` (seed, config, ...).
    """
    tids = _track_tids(recorder)
    events: List["OrderedDict[str, object]"] = []
    events.append(OrderedDict(
        name="process_name", ph="M", pid=_PID, tid=_REQUEST_TID,
        args={"name": "af3-serving-gateway"},
    ))
    events.append(OrderedDict(
        name="thread_name", ph="M", pid=_PID, tid=_REQUEST_TID,
        args={"name": REQUEST_TRACK},
    ))
    for track, tid in tids.items():
        events.append(OrderedDict(
            name="thread_name", ph="M", pid=_PID, tid=tid,
            args={"name": track},
        ))
    for span in recorder.spans:
        end = span.start if span.end is None else span.end
        args = _args(span)
        if span.track in tids:
            tid = tids[span.track]
            if span.kind == KIND_INSTANT:
                events.append(OrderedDict(
                    name=span.name, ph="i", pid=_PID, tid=tid,
                    ts=_us(span.start), s="t", args=args,
                ))
            else:
                events.append(OrderedDict(
                    name=span.name, ph="X", pid=_PID, tid=tid,
                    ts=_us(span.start),
                    dur=_us(max(0.0, end - span.start)),
                    args=args,
                ))
        if span.request_id is not None:
            common = dict(
                cat="request", id=f"r{span.request_id}",
                pid=_PID, tid=_REQUEST_TID,
            )
            if span.kind == KIND_INSTANT:
                events.append(OrderedDict(
                    name=span.name, ph="n", ts=_us(span.start),
                    args=args, **common,
                ))
            else:
                events.append(OrderedDict(
                    name=span.name, ph="b", ts=_us(span.start),
                    args=args, **common,
                ))
                events.append(OrderedDict(
                    name=span.name, ph="e", ts=_us(end),
                    args={"status": span.status}, **common,
                ))
    payload: "OrderedDict[str, object]" = OrderedDict(
        traceEvents=events,
        displayTimeUnit="ms",
    )
    if metadata:
        payload["otherData"] = OrderedDict(sorted(metadata.items()))
    return payload


def chrome_trace_json(
    recorder: SpanRecorder,
    metadata: Optional[Dict[str, object]] = None,
    indent: Optional[int] = None,
) -> str:
    """Serialize :func:`to_chrome_trace` deterministically.

    Compact by default (one stable byte stream per seeded run — the
    golden form); pass ``indent`` for a human-diffable file.
    """
    payload = to_chrome_trace(recorder, metadata)
    if indent is None:
        return json.dumps(payload, separators=(",", ":"))
    return json.dumps(payload, indent=indent)


# -- Prometheus text exposition -----------------------------------------

#: The row shapes the renderer knows:
SCALAR = "scalar"        # one field, one sample
QUANTILES = "quantiles"  # LatencyStats: p50/p95/p99, _count, _mean, _max
LABELLED = "labelled"    # a mapping: one sample per key, keyed by label
OPEN = "open"            # a dict section: one family per key at run time

_QUANTILES = [("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")]


class MetricRow(NamedTuple):
    """One declared metric family of a report."""

    shape: str
    #: Summary field; dotted for a field nested in a section.
    field: str
    #: Metric name after the report prefix (for OPEN, the name stem
    #: every key is appended to).
    suffix: str
    mtype: str
    help: str
    #: LABELLED: the label each mapping key becomes, then labels read
    #: from each entry (``("pool", "spot")``).
    labels: Tuple[str, ...] = ()
    #: LABELLED: the key of the sample value when entries are dicts.
    item: str = ""
    #: OPEN: keys typed ``gauge``; every other key has ``mtype``.
    gauges: FrozenSet[str] = frozenset()


class MetricsDeclaration(NamedTuple):
    """Everything one report exposes: prefix, run label, ordered rows."""

    prefix: str
    #: Summary field every sample is labelled with.
    label: str
    rows: Tuple[MetricRow, ...]


def _rows(shape: str, mtype: str, fields) -> List[MetricRow]:
    """Rows of one shape and type from ``(field, suffix, help)`` triples."""
    return [MetricRow(shape, field, suffix, mtype, help_text)
            for field, suffix, help_text in fields]


#: Open-section key sets typed ``gauge`` (everything else counts).
_STORE_GAUGES = frozenset({"hit_rate", "entries", "total_bytes"})
_COMPILE_CACHE_GAUGES = frozenset(
    {"entries", "hit_cost_seconds", "seconds_saved"}
)
_FAULT_GAUGES = frozenset({"rewarm_seconds", "stall_seconds"})

_STORE_HELP = "Feature-store counter (see docs/metrics_reference.md)."
_FAULT_HELP = "Fault/recovery counter (see docs/metrics_reference.md)."
_BUCKET_HELP = (
    "Padded-shape accounting of the configured bucket list "
    "(see docs/metrics_reference.md)."
)

SERVING_METRICS = MetricsDeclaration("afsys_serving", "platform", tuple(
    _rows(SCALAR, "gauge", [
        ("gpu_workers", "gpu_workers", "GPU workers in the pool."),
        ("msa_workers", "msa_workers", "MSA workers in the pool."),
    ])
    + _rows(SCALAR, "counter", [
        ("submitted", "submitted_total", "Requests submitted to the gateway."),
        ("completed", "completed_total", "Full-quality completions."),
        ("degraded", "degraded_total",
         "Completions served via the reduced-depth degraded fallback."),
        ("shed", "shed_total", "Requests rejected by admission control."),
        ("timed_out", "timed_out_total",
         "Requests that exhausted their retries."),
        ("failed_oom", "failed_oom_total",
         "Requests that exceed device memory even alone."),
        ("retries", "retries_total", "Timeout-triggered retry admissions."),
        ("retries_exhausted", "retries_exhausted_total",
         "Requests whose retry budget was exhausted."),
        ("oom_events", "oom_events_total",
         "Batch dispatches that hit device OOM."),
        ("batches_dispatched", "batches_total", "GPU batches dispatched."),
        ("cache_hits", "msa_cache_hits_total", "MSA result cache hits."),
        ("cache_misses", "msa_cache_misses_total",
         "MSA result cache misses."),
        ("coalesced_msa", "msa_coalesced_total",
         "Requests coalesced onto an in-flight MSA computation."),
    ])
    + _rows(SCALAR, "gauge", [
        ("duration_seconds", "duration_seconds",
         "Simulated makespan, first arrival to last event."),
        ("throughput_rps", "throughput_rps",
         "Full-quality completions per simulated second."),
        ("gpu_utilization", "gpu_utilization_ratio",
         "GPU-pool busy fraction of capacity."),
        ("msa_utilization", "msa_utilization_ratio",
         "MSA-pool busy fraction of capacity."),
        ("mean_batch_size", "batch_size_mean", "Mean dispatched batch size."),
        ("batch_fill", "batch_fill_ratio",
         "Mean batch size over the max batch size."),
        ("cache_hit_rate", "msa_cache_hit_ratio", "MSA cache hit fraction."),
    ])
    + _rows(QUANTILES, "summary", [
        ("latency", "latency_seconds",
         "End-to-end latency, completed requests."),
        ("msa_queue_wait", "msa_queue_wait_seconds",
         "Wait for an MSA worker, completed requests."),
        ("batch_queue_wait", "batch_queue_wait_seconds",
         "Wait in the dynamic batcher, completed requests."),
    ])
    + [
        MetricRow(OPEN, "store", "store", "counter", _STORE_HELP,
                  gauges=_STORE_GAUGES),
        MetricRow(LABELLED, "faults.plan", "fault_planned_total", "counter",
                  "Fault events scheduled by the plan, by kind.",
                  labels=("kind",)),
        MetricRow(OPEN, "faults", "fault", "counter", _FAULT_HELP,
                  gauges=_FAULT_GAUGES),
    ]
    + _rows(SCALAR, "counter", [
        (f"bucket_waste.{key}", f"bucket_waste_{key}_total", _BUCKET_HELP)
        for key in ("requests", "real_tokens", "padded_tokens",
                    "waste_tokens")
    ])
    + _rows(SCALAR, "gauge", [
        ("bucket_waste.waste_pct", "bucket_waste_ratio",
         "Waste tokens over padded tokens, percent."),
    ])
    + [
        MetricRow(LABELLED, "bucket_waste.per_bucket", "bucket_requests",
                  "counter", "Requests landing in each bucket edge.",
                  labels=("bucket",), item="requests"),
        MetricRow(OPEN, "compile_cache", "compile_cache", "counter",
                  "Shared XLA compile-cache counter "
                  "(see docs/metrics_reference.md).",
                  gauges=_COMPILE_CACHE_GAUGES),
    ]
))

CLUSTER_METRICS = MetricsDeclaration("afsys_cluster", "policy", tuple(
    _rows(SCALAR, "counter", [
        ("submitted", "jobs_submitted_total",
         "Jobs submitted to the cluster."),
        ("completed", "jobs_completed_total",
         "Jobs that finished inference."),
        ("failed", "jobs_failed_total",
         "Jobs that exhausted their retry budget."),
        ("attempts", "job_attempts_total",
         "Node assignments (all attempts)."),
        ("migrations", "migrations_total",
         "Drain-requeues after a spot preemption notice."),
        ("crash_requeues", "crash_requeues_total",
         "Requeues after a crash or zero-warning reclaim."),
        ("chains_scanned", "chains_scanned_total",
         "Per-chain MSA scans run on cluster nodes."),
        ("store_chain_hits", "store_chain_hits_total",
         "Chain scans avoided via the shared feature store."),
        ("chains_published", "chains_published_total",
         "Chain features published to the shared store."),
        ("resumed_shards", "resumed_shards_total",
         "DB shards skipped by resuming drain checkpoints."),
        ("drain_publishes", "drain_publishes_total",
         "Chains published during preemption drains."),
        ("drain_checkpoints", "drain_checkpoints_total",
         "In-flight scans checkpointed during drains."),
        ("corrupted_keys", "store_corrupted_keys_total",
         "Trusted store keys struck by corruption."),
        ("migrated_recomputed_chains", "migrated_recomputed_chains_total",
         "Chain scans re-run despite a completed pre-drain scan "
         "(the no-double-execution audit pins this at 0)."),
        ("double_billed_shards", "double_billed_shards_total",
         "Checkpointed shards billed twice on resume (audit pins 0)."),
        ("scale_outs", "scale_out_nodes_total",
         "Nodes booted by autoscaling."),
        ("scale_ins", "scale_in_nodes_total",
         "Idle nodes terminated by autoscaling."),
        ("queue_pushes", "queue_pushes_total", "Job queue admissions."),
        ("queue_requeues", "queue_requeues_total",
         "Job queue re-admissions."),
    ])
    + _rows(SCALAR, "gauge", [
        ("duration_seconds", "duration_seconds",
         "Simulated makespan of the cluster run."),
        ("scan_seconds_billed", "scan_seconds_billed",
         "Node-seconds billed to MSA chain scans."),
        ("gpu_seconds_billed", "gpu_seconds_billed",
         "Node-seconds billed to GPU inference."),
        ("cost_usd", "cost_usd", "Total fleet cost, boot to termination."),
        ("cost_per_job_usd", "cost_per_job_usd",
         "Fleet cost per completed job."),
        ("throughput_jobs_per_hour", "throughput_jobs_per_hour",
         "Completed jobs per simulated hour."),
    ])
    + _rows(QUANTILES, "summary", [
        ("latency", "job_latency_seconds",
         "Arrival-to-completion latency, completed jobs."),
    ])
    + [
        MetricRow(LABELLED, "pools", suffix, "gauge", help_text,
                  labels=("pool", "spot"), item=item)
        for item, suffix, help_text in [
            ("nodes_booted", "pool_nodes_booted",
             "Nodes booted in the pool."),
            ("nodes_terminated", "pool_nodes_terminated",
             "Pool nodes preempted or scaled in."),
            ("peak_nodes", "pool_peak_nodes",
             "Max simultaneously-alive nodes in the pool."),
            ("busy_seconds", "pool_busy_seconds",
             "Node-seconds the pool spent on jobs."),
            ("billed_seconds", "pool_billed_seconds",
             "Node-seconds the pool was billed for."),
            ("cost_usd", "pool_cost_usd", "Pool cost over the run."),
            ("utilization", "pool_utilization_ratio",
             "Busy fraction of billed pool time."),
        ]
    ]
    + [
        MetricRow(OPEN, "faults", "fault", "counter", _FAULT_HELP,
                  gauges=_FAULT_GAUGES),
        MetricRow(OPEN, "store", "store", "counter", _STORE_HELP,
                  gauges=_STORE_GAUGES),
        MetricRow(OPEN, "compile_cache", "compile_cache", "counter",
                  "Fleet-shared XLA compile-cache counter "
                  "(see docs/metrics_reference.md).",
                  gauges=_COMPILE_CACHE_GAUGES),
    ]
))

CAMPAIGN_METRICS = MetricsDeclaration("afsys_campaign", "platform", tuple(
    _rows(SCALAR, "gauge", [
        ("targets", "targets_total", "Targets in the cohort manifest."),
        ("targets_completed", "targets_completed",
         "Targets whose full stage chain finished ok."),
        ("targets_failed", "targets_failed",
         "Targets with at least one failed stage."),
        ("tasks_done", "stage_outputs_done",
         "Stage outputs persisted as ok checkpoints."),
        ("tasks_failed", "stage_outputs_failed",
         "Stage outputs persisted as failed."),
        ("msa_seconds_total", "msa_seconds",
         "Cohort simulated MSA seconds (paper Fig 7 numerator)."),
        ("inference_seconds_total", "inference_seconds",
         "Cohort simulated inference seconds."),
        ("cohort_msa_fraction", "msa_fraction_ratio",
         "MSA share of MSA+inference time across the cohort."),
        ("serial_seconds", "serial_seconds",
         "Sum of all simulated stage seconds (one-worker campaign)."),
        ("pipeline_makespan_seconds", "pipeline_makespan_seconds",
         "Modeled makespan under the configured stage pools."),
        ("pipeline_speedup", "pipeline_speedup_ratio",
         "Serial seconds over modeled makespan."),
    ])
    + [
        MetricRow(LABELLED, "phase_seconds", "phase_seconds", "gauge",
                  "Simulated seconds per campaign stage (Fig 3).",
                  labels=("stage",)),
        MetricRow(LABELLED, "figures.fig3_phase_share", "phase_share_ratio",
                  "gauge", "Share of simulated time per stage (Fig 3).",
                  labels=("stage",)),
        MetricRow(LABELLED, "complexity_histogram", "targets_by_complexity",
                  "gauge",
                  "Completed targets per complexity class (Table II).",
                  labels=("complexity",)),
    ]
))


def _lookup(summary, field: str):
    """The summary value at a dotted ``field``; None when any part of
    the path is absent (a section the run did not emit)."""
    value = summary
    for key in field.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def _label(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def prometheus_metrics(summary, declaration: MetricsDeclaration) -> str:
    """Prometheus text exposition of a report summary.

    ``summary`` is ``ServingReport.summary()``,
    ``ClusterReport.summary()`` or :func:`repro.campaign.cohort_summary`
    output; ``declaration`` is the matching :data:`SERVING_METRICS`,
    :data:`CLUSTER_METRICS` or :data:`CAMPAIGN_METRICS`.  Names, order
    and label sets come from the declaration alone, so the same summary
    always renders to the same bytes.  Sections the run did not emit
    (store, faults, bucket waste, compile cache) render nothing.
    """
    run = f'{declaration.label}="{summary[declaration.label]}"'
    lines: List[str] = []

    def family(name: str, mtype: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")

    for row in declaration.rows:
        value = _lookup(summary, row.field)
        if value is None:
            continue
        name = f"{declaration.prefix}_{row.suffix}"
        if row.shape == OPEN:
            for key, item in value.items():
                if isinstance(item, (int, float)):
                    family(f"{name}_{key}",
                           "gauge" if key in row.gauges else row.mtype,
                           row.help)
                    lines.append(f"{name}_{key}{{{run}}} {item}")
            continue
        family(name, row.mtype, row.help)
        if row.shape == SCALAR:
            lines.append(f"{name}{{{run}}} {value}")
        elif row.shape == QUANTILES:
            for key, quantile in _QUANTILES:
                lines.append(
                    f'{name}{{{run},quantile="{quantile}"}} {value[key]}'
                )
            for key in ("count", "mean", "max"):
                lines.append(f"{name}_{key}{{{run}}} {value[key]}")
        else:
            key_label, *entry_labels = row.labels
            for key, entry in value.items():
                labels = [f'{key_label}="{_label(key)}"'] + [
                    f'{label}="{_label(entry[label])}"'
                    for label in entry_labels
                ]
                sample = entry[row.item] if row.item else entry
                lines.append(f"{name}{{{run},{','.join(labels)}}} {sample}")
    return "\n".join(lines) + "\n"
