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

import math
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
    workers: Optional[List[str]] = None,
) -> SpanRecorder:
    """Append one sharded execution's measured schedule to a recorder.

    Raw worker names (``ForkPoolWorker-3``, ``ThreadPoolExecutor-0_1``)
    are normalised to stable lane names ``<track_prefix>-0..N-1`` in
    the order of ``workers`` (default: this outcome's own order of
    first appearance); timestamps are shifted so the earliest task
    starts at ``origin`` (default: this outcome's own zero).  Each
    span carries the inclusive shard range its task covered, e.g.
    ``shards="0-7"`` for a worker's group of eight shards.
    """
    if not outcome.timings:
        return recorder
    lanes: Dict[str, str] = {
        raw: f"{track_prefix}-{i}"
        for i, raw in enumerate(workers or outcome.workers_used())
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

    Successive sharded calls (one per search iteration and chain) are
    laid out back-to-back, in the order they ran, on a shared clock so
    the exported trace reads as one scan session.  The databases a
    chain scanned in one call each hold their share of its timings;
    such outcomes overlap in time, so they keep the call's own clock
    and lanes and every worker draws its window once, split between
    the databases.
    """
    outcomes = list(outcomes)
    labels = [labels[i] if labels and i < len(labels) else None
              for i in range(len(outcomes))]

    def first_start(i: int) -> float:
        return min((t.start for t in outcomes[i].timings),
                   default=math.inf)

    recorder = SpanRecorder()
    cursor = 0.0
    call_end = -math.inf
    for i in sorted(range(len(outcomes)), key=first_start):
        outcome, label, start = outcomes[i], labels[i], first_start(i)
        if start >= call_end:          # the first outcome of a call
            call_origin, call_start, workers = cursor, start, []
        call_end = max([call_end] + [t.end for t in outcome.timings])
        workers += [w for w in outcome.workers_used() if w not in workers]
        record_outcome(
            recorder,
            outcome,
            track_prefix=track_prefix,
            label=label,
            origin=call_origin + (start - call_start),
            workers=workers,
        )
        cursor += outcome.wall_seconds
    return recorder
