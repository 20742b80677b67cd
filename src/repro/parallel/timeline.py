"""Render measured worker schedules on the observability span model.

The serving simulator records *simulated* time on worker tracks; the
parallel scan records *measured* wall-clock windows, one per worker's
group of shards.  Both speak
:class:`repro.observability.spans.SpanRecorder`, so the existing
Chrome-trace exporter (``repro observe export-trace`` and the new
``repro observe export-scan-trace``) renders real parallel-scan worker
tracks with zero new export code.

Span *identity* stays deterministic (ids derive from track + sequence);
span *times* are measurements and vary run to run — callers comparing
traces byte-for-byte should compare structure, not timestamps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..observability.spans import SpanRecorder
from .executor import ExecutionOutcome


def record_outcome(
    recorder: SpanRecorder,
    outcome: ExecutionOutcome,
    *,
    track_prefix: str = "scan",
    span_name: str = "msa.scan.shard",
    label: Optional[str] = None,
    origin: Optional[float] = None,
) -> SpanRecorder:
    """Append one sharded execution's measured schedule to a recorder.

    Raw worker names (``ForkPoolWorker-3``, ``ThreadPoolExecutor-0_1``)
    are normalised to stable lane names ``<track_prefix>-0..N-1`` in
    order of first appearance; timestamps are shifted so the earliest
    task starts at ``origin`` (default: this outcome's own zero).  Each
    span carries the inclusive shard range its task covered, e.g.
    ``shards="0-7"`` for a worker's group of eight shards.
    """
    if not outcome.timings:
        return recorder
    lanes: Dict[str, str] = {
        raw: f"{track_prefix}-{i}"
        for i, raw in enumerate(outcome.workers_used())
    }
    base = min(t.start for t in outcome.timings)
    shift = (origin or 0.0) - base
    declared = list(recorder.declared_tracks)
    for lane in lanes.values():
        if lane not in declared:
            declared.append(lane)
    recorder.declare_tracks(declared)
    for timing in outcome.timings:
        span = recorder.begin(
            span_name,
            timing.start + shift,
            track=lanes[timing.worker],
            shards=f"{timing.shards[0]}-{timing.shards[1] - 1}",
            backend=outcome.backend,
            **({"label": label} if label else {}),
        )
        recorder.finish(span, timing.end + shift)
    return recorder


def scan_timeline(
    outcomes: Iterable[ExecutionOutcome],
    *,
    track_prefix: str = "scan",
    labels: Optional[List[str]] = None,
) -> SpanRecorder:
    """A fresh recorder holding one or more scan outcomes end to end.

    Successive outcomes (one per search iteration / database) are laid
    out back-to-back on a shared clock so the exported trace reads as
    one scan session.
    """
    recorder = SpanRecorder()
    cursor = 0.0
    for i, outcome in enumerate(outcomes):
        label = labels[i] if labels and i < len(labels) else None
        record_outcome(
            recorder,
            outcome,
            track_prefix=track_prefix,
            label=label,
            origin=cursor,
        )
        cursor += outcome.wall_seconds
    return recorder
