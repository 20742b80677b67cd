"""Cohort reporting: deterministic aggregation of finished campaigns.

Everything here is a pure function of the *persisted* campaign state —
the task documents plus the config echo in ``campaign.json``.  Nothing
reads the clock, the feature store, or any run-level counter, which is
what lets the kill/resume differential demand a byte-identical cohort
report from an interrupted-and-resumed campaign.

Three surfaces come out of the same records:

* :func:`cohort_summary` — the JSON-stable golden document: config
  echo, per-target rows, cohort aggregates, a simulated pipeline
  schedule, and a ``figures`` section keyed to the paper's exhibits
  (Fig 3 phase shares, Fig 7 MSA fraction by complexity, Fig 8
  inference breakdown, Table II-style target rows);
* :func:`render_cohort_markdown` — the same document as operator-
  readable markdown tables;
* :func:`campaign_spans` — the simulated schedule re-expressed as
  :class:`~repro.observability.spans.SpanRecorder` spans, so a cohort
  timeline loads in Perfetto next to the serving traces.

The simulated schedule models the campaign's *modeled* stage pools
(``config.stage_workers``, persisted) with deterministic earliest-free-
worker list scheduling — it is intentionally independent of how many
real workers executed the stages, so changing ``--workers`` cannot
change a single report byte.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Mapping, Sequence

from ..observability.spans import SpanRecorder
from .dag import STAGES, build_graph
from .manifest import TargetSpec

__all__ = [
    "ScheduledTask",
    "campaign_spans",
    "cohort_summary",
    "merge_task_outputs",
    "render_cohort_markdown",
    "simulated_schedule",
]

#: Schema tag of the cohort summary (golden-pinned).
COHORT_SCHEMA = "af3-campaign-cohort/v1"

#: Complexity display order (paper Table II row order).
_COMPLEXITY_ORDER = ("Low", "Low-Mid", "Mid", "Mid-High", "High")

#: Inference phase order (paper Fig 8 legend order).
_BREAKDOWN_PHASES = (
    "initialization", "xla_compile", "gpu_compute", "finalization"
)


def _round(value: float) -> float:
    return round(float(value), 6)


def merge_task_outputs(
    outputs: Mapping[str, dict]
) -> "OrderedDict[str, dict]":
    """Per-target joined records from a campaign's task documents.

    Returns ``target_id -> report-stage body`` for every target whose
    ``report`` stage finished ok, sorted by target id — the cohort
    aggregation input.  (The per-target join itself already happened in
    the ``report`` stage; this just collects and orders it.)
    """
    merged: "OrderedDict[str, dict]" = OrderedDict()
    for tid in sorted(outputs):
        doc = outputs[tid]
        if doc.get("stage") == "report" and doc.get("status") == "ok":
            merged[doc["target"]] = doc
    return merged


@dataclasses.dataclass(frozen=True)
class ScheduledTask:
    """One task's window on the simulated campaign timeline."""

    task_id: str
    target_id: str
    stage: str
    worker: int          # index within the stage's modeled pool
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def simulated_schedule(
    outputs: Mapping[str, dict],
    targets: Sequence[TargetSpec],
    stage_workers: Mapping[str, int],
) -> List[ScheduledTask]:
    """Deterministic list schedule of the campaign's simulated work.

    Models each stage as a pool of ``stage_workers[stage]`` workers and
    places every finished task's ``simulated_seconds`` with earliest-
    free-worker list scheduling in the graph's topological order (all
    dependency edges respected, ties broken by worker index).  Failed
    tasks occupy no time; their descendants never ran and are skipped.
    Pure function of persisted records + persisted config — real
    execution order cannot leak in.
    """
    graph = build_graph(targets)
    pools: Dict[str, List[float]] = {
        stage: [0.0] * stage_workers[stage] for stage in STAGES
    }
    finish: Dict[str, float] = {}
    schedule: List[ScheduledTask] = []
    for task in graph.topological_order():
        doc = outputs.get(task.task_id)
        if not doc or doc.get("status") != "ok":
            continue
        if any(dep not in finish for dep in task.deps):
            continue
        release = max(
            (finish[dep] for dep in task.deps), default=0.0
        )
        pool = pools[task.stage]
        worker = min(range(len(pool)), key=lambda i: (pool[i], i))
        start = max(release, pool[worker])
        end = start + float(doc["simulated_seconds"])
        pool[worker] = end
        finish[task.task_id] = end
        schedule.append(
            ScheduledTask(
                task_id=task.task_id,
                target_id=task.target_id,
                stage=task.stage,
                worker=worker,
                start=_round(start),
                end=_round(end),
            )
        )
    return schedule


def campaign_spans(
    outputs: Mapping[str, dict],
    targets: Sequence[TargetSpec],
    stage_workers: Mapping[str, int],
) -> SpanRecorder:
    """The simulated schedule as observability spans.

    One lane per modeled stage worker (``preprocess-0`` ... ``report-0``
    in stage order), one span per scheduled task on its worker's lane,
    and one parent ``target`` span per target grouping its stages into
    a request tree (request ids are the target's cohort index).  Same
    determinism contract as the schedule it renders.
    """
    schedule = simulated_schedule(outputs, targets, stage_workers)
    recorder = SpanRecorder()
    recorder.declare_tracks(
        [
            f"{stage}-{i}"
            for stage in STAGES
            for i in range(stage_workers[stage])
        ]
    )
    by_target: "OrderedDict[str, List[ScheduledTask]]" = OrderedDict()
    for item in schedule:
        by_target.setdefault(item.target_id, []).append(item)
    index = {t.target_id: i for i, t in enumerate(targets)}
    for target_id in sorted(by_target):
        items = by_target[target_id]
        request_id = index.get(target_id, -1)
        root = recorder.begin(
            "campaign.target",
            min(item.start for item in items),
            track="requests",
            request_id=request_id,
            target=target_id,
        )
        for item in sorted(items, key=lambda s: (s.start, s.task_id)):
            span = recorder.begin(
                f"campaign.{item.stage}",
                item.start,
                track=f"{item.stage}-{item.worker}",
                request_id=request_id,
                parent_id=root.span_id,
                target=target_id,
            )
            recorder.finish(span, item.end)
        recorder.finish(root, max(item.end for item in items))
    return recorder


def _stats(values: Sequence[float]) -> "OrderedDict[str, float]":
    if not values:
        return OrderedDict(count=0, mean=0.0, min=0.0, max=0.0)
    return OrderedDict(
        count=len(values),
        mean=_round(sum(values) / len(values)),
        min=_round(min(values)),
        max=_round(max(values)),
    )


def cohort_summary(
    outputs: Mapping[str, dict],
    targets: Sequence[TargetSpec],
    config_doc: Mapping,
) -> "OrderedDict[str, object]":
    """The golden cohort document: aggregates + paper-keyed figures.

    A pure, ordered, rounded function of the persisted task documents
    and the campaign config echo — the surface the kill/resume
    differential compares byte for byte and the golden test pins.
    """
    merged = merge_task_outputs(outputs)
    failures = sorted(
        (
            doc for doc in outputs.values()
            if doc.get("status") == "failed"
        ),
        key=lambda doc: doc["task"],
    )
    stage_workers = config_doc["stage_workers"]

    # -- per-stage simulated phase totals (paper Fig 3) -----------------
    phase_seconds = OrderedDict((stage, 0.0) for stage in STAGES)
    done_tasks = 0
    for doc in outputs.values():
        if doc.get("status") == "ok":
            done_tasks += 1
            phase_seconds[doc["stage"]] += float(doc["simulated_seconds"])
    serial_seconds = sum(phase_seconds.values())

    # -- per-target rows (paper Table II shape) -------------------------
    rows = []
    for target_id, doc in merged.items():
        rows.append(
            OrderedDict(
                id=target_id,
                tokens=doc["tokens"],
                chains=doc["chain_count"],
                complexity=doc["complexity"],
                msa_depth=doc["msa_depth"],
                msa_seconds=doc["msa_seconds"],
                inference_seconds=doc["inference_seconds"],
                total_seconds=doc["total_seconds"],
                msa_fraction=doc["msa_fraction"],
                used_unified_memory=doc["used_unified_memory"],
            )
        )

    # -- complexity histogram + Fig 7 msa fraction by class -------------
    histogram: "OrderedDict[str, int]" = OrderedDict()
    fraction_by_class: Dict[str, List[float]] = {}
    for doc in merged.values():
        cls = doc["complexity"]
        histogram[cls] = histogram.get(cls, 0) + 1
        fraction_by_class.setdefault(cls, []).append(
            float(doc["msa_fraction"])
        )
    histogram = OrderedDict(
        (cls, histogram[cls])
        for cls in _COMPLEXITY_ORDER
        if cls in histogram
    )
    fig7 = OrderedDict(
        (
            cls,
            _round(
                sum(fraction_by_class[cls]) / len(fraction_by_class[cls])
            ),
        )
        for cls in _COMPLEXITY_ORDER
        if cls in fraction_by_class
    )

    # -- Fig 8: aggregate inference breakdown shares --------------------
    breakdown_totals = OrderedDict(
        (phase, 0.0) for phase in _BREAKDOWN_PHASES
    )
    for doc in merged.values():
        for phase in _BREAKDOWN_PHASES:
            breakdown_totals[phase] += float(
                doc["inference_breakdown"][phase]
            )
    inference_total = sum(breakdown_totals.values())
    fig8 = OrderedDict(
        (
            phase,
            _round(
                breakdown_totals[phase] / inference_total
                if inference_total
                else 0.0
            ),
        )
        for phase in _BREAKDOWN_PHASES
    )

    # -- simulated pipeline schedule ------------------------------------
    schedule = simulated_schedule(outputs, targets, stage_workers)
    makespan = max((item.end for item in schedule), default=0.0)
    total_msa = sum(float(d["msa_seconds"]) for d in merged.values())
    total_inference = sum(
        float(d["inference_seconds"]) for d in merged.values()
    )
    total_both = total_msa + total_inference

    failed_targets = sorted({doc["target"] for doc in failures})
    summary: "OrderedDict[str, object]" = OrderedDict(
        schema=COHORT_SCHEMA,
        platform=config_doc["platform"],
        threads=int(config_doc["threads"]),
        seed=int(config_doc["seed"]),
        stage_workers=stage_workers,
        max_tokens=int(config_doc["max_tokens"]),
        targets=len(targets),
        targets_completed=len(merged),
        targets_failed=len(failed_targets),
        tasks_done=done_tasks,
        tasks_failed=len(failures),
        tokens=_stats([float(d["tokens"]) for d in merged.values()]),
        msa_depth=_stats(
            [float(d["msa_depth"]) for d in merged.values()]
        ),
        complexity_histogram=histogram,
        phase_seconds=OrderedDict(
            (stage, _round(seconds))
            for stage, seconds in phase_seconds.items()
        ),
        msa_seconds_total=_round(total_msa),
        inference_seconds_total=_round(total_inference),
        cohort_msa_fraction=_round(
            total_msa / total_both if total_both else 0.0
        ),
        serial_seconds=_round(serial_seconds),
        pipeline_makespan_seconds=_round(makespan),
        pipeline_speedup=_round(
            serial_seconds / makespan if makespan else 0.0
        ),
        figures=OrderedDict(
            fig3_phase_share=OrderedDict(
                (
                    stage,
                    _round(
                        seconds / serial_seconds if serial_seconds else 0.0
                    ),
                )
                for stage, seconds in phase_seconds.items()
            ),
            fig7_msa_fraction_by_complexity=fig7,
            fig8_inference_breakdown_share=fig8,
            table2_targets=rows,
        ),
        failures=[
            OrderedDict(
                task=doc["task"],
                target=doc["target"],
                stage=doc["stage"],
                error=doc["error"],
            )
            for doc in failures
        ],
    )
    return summary


def _table(headers: Sequence[str], rows: Sequence[Sequence]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return lines


def render_cohort_markdown(summary: Mapping) -> str:
    """The cohort summary as deterministic markdown (operator surface).

    Same information, same ordering, no timestamps — rendering the same
    summary twice yields identical text.
    """
    lines: List[str] = []
    lines.append("# Campaign cohort report")
    lines.append("")
    lines.append(
        f"Platform **{summary['platform']}**, {summary['threads']} "
        f"threads, seed {summary['seed']} — "
        f"{summary['targets_completed']}/{summary['targets']} targets "
        f"completed, {summary['targets_failed']} failed."
    )
    lines.append("")
    lines.append("## Cohort totals")
    lines.append("")
    lines += _table(
        ["metric", "value"],
        [
            ["MSA seconds (total)", summary["msa_seconds_total"]],
            ["Inference seconds (total)",
             summary["inference_seconds_total"]],
            ["Cohort MSA fraction", summary["cohort_msa_fraction"]],
            ["Serial seconds", summary["serial_seconds"]],
            ["Pipeline makespan (modeled)",
             summary["pipeline_makespan_seconds"]],
            ["Pipeline speedup", summary["pipeline_speedup"]],
        ],
    )
    lines.append("")
    lines.append("## Phase share (paper Fig 3)")
    lines.append("")
    lines += _table(
        ["stage", "seconds", "share"],
        [
            [stage, summary["phase_seconds"][stage],
             summary["figures"]["fig3_phase_share"][stage]]
            for stage in summary["phase_seconds"]
        ],
    )
    fig7 = summary["figures"]["fig7_msa_fraction_by_complexity"]
    if fig7:
        lines.append("")
        lines.append("## MSA fraction by complexity (paper Fig 7)")
        lines.append("")
        lines += _table(
            ["complexity", "targets", "mean MSA fraction"],
            [
                [cls, summary["complexity_histogram"].get(cls, 0),
                 fraction]
                for cls, fraction in fig7.items()
            ],
        )
    lines.append("")
    lines.append("## Inference breakdown share (paper Fig 8)")
    lines.append("")
    lines += _table(
        ["phase", "share"],
        list(summary["figures"]["fig8_inference_breakdown_share"].items()),
    )
    rows = summary["figures"]["table2_targets"]
    if rows:
        lines.append("")
        lines.append("## Targets (paper Table II shape)")
        lines.append("")
        lines += _table(
            ["id", "tokens", "chains", "complexity", "MSA depth",
             "MSA s", "inference s", "total s", "MSA fraction"],
            [
                [r["id"], r["tokens"], r["chains"], r["complexity"],
                 r["msa_depth"], r["msa_seconds"],
                 r["inference_seconds"], r["total_seconds"],
                 r["msa_fraction"]]
                for r in rows
            ],
        )
    if summary["failures"]:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        lines += _table(
            ["task", "stage", "error"],
            [
                [f["task"], f["stage"], f["error"]]
                for f in summary["failures"]
            ],
        )
    return "\n".join(lines) + "\n"
