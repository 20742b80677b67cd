"""Sharded execution over serial / thread / forked-process backends.

:func:`run_sharded` maps one picklable module-level function over a
list of shard payloads and returns results **in payload order** plus
one wall-clock :class:`TaskTiming` per payload.  The functional results
are independent of backend, worker count and completion order — that
is the caller's contract to uphold (the MSA scan upholds it by making
each shard a pure function of its inputs) and the differential test
suite's job to enforce.

Backend notes:

* ``process`` uses the ``fork`` start method: children inherit the
  parent's address space, so payloads only pay one pickling pass
  (``Pool.map``) and ``time.perf_counter`` (CLOCK_MONOTONIC) remains
  comparable across parent and children, which is what lets per-worker
  shard timings render on a shared timeline.  Platforms without fork
  (Windows, some sandboxes) silently fall back to threads.
* ``thread`` is the right backend when the payload releases the GIL
  (large numpy ops) or when the point is scheduling, not speed — the
  differential tests exercise it because it is cheap everywhere.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Sequence, Tuple

from .plan import ExecutionPlan


@dataclasses.dataclass(frozen=True)
class TaskTiming:
    """Wall-clock window of one task on one worker.

    ``shards`` is the ``[start, end)`` range of shards the task
    covered: ``(index, index + 1)`` for a one-shard task, a wider range
    when the caller ran a group of shards as one task.
    """

    index: int
    worker: str
    start: float
    end: float
    shards: Tuple[int, int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class ExecutionOutcome:
    """Results (in shard order) plus the measured schedule."""

    results: List[Any]
    timings: List[TaskTiming]
    backend: str
    workers: int
    wall_seconds: float

    def workers_used(self) -> List[str]:
        """Distinct worker names, ordered by first appearance."""
        seen: List[str] = []
        for timing in self.timings:
            if timing.worker not in seen:
                seen.append(timing.worker)
        return seen


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _timed_apply(task):
    """Run one shard and stamp its wall-clock window (child side)."""
    fn, index, payload = task
    worker = multiprocessing.current_process().name
    if worker == "MainProcess":
        worker = threading.current_thread().name
    start = time.perf_counter()
    result = fn(payload)
    end = time.perf_counter()
    return index, worker, start, end, result


def run_sharded(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    plan: ExecutionPlan,
    default_backend: str = "process",
) -> ExecutionOutcome:
    """Map ``fn`` over ``payloads`` under the plan's backend.

    ``fn`` must be a module-level (picklable) function of one payload.
    Results come back indexed by payload position no matter which
    worker ran which shard or in what order they completed.
    """
    backend = plan.resolve_backend(default_backend)
    if backend == "process" and not _fork_available():
        backend = "thread"
    workers = min(plan.workers, max(1, len(payloads)))
    tasks = [(fn, i, payload) for i, payload in enumerate(payloads)]

    t0 = time.perf_counter()
    if backend == "serial" or workers == 1:
        backend = "serial"
        raw = [_timed_apply(task) for task in tasks]
    elif backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(_timed_apply, tasks))
    elif backend == "process":
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            # chunksize=1 so shards spread across workers instead of
            # batching onto the first one.
            raw = pool.map(_timed_apply, tasks, chunksize=1)
    else:  # pragma: no cover - plan validation prevents this
        raise ValueError(f"unknown backend {backend!r}")
    wall = time.perf_counter() - t0

    raw.sort(key=lambda item: item[0])
    results = [item[4] for item in raw]
    timings = [
        TaskTiming(index=index, worker=worker, start=start, end=end,
                   shards=(index, index + 1))
        for index, worker, start, end, _ in raw
    ]
    return ExecutionOutcome(
        results=results,
        timings=timings,
        backend=backend,
        workers=workers,
        wall_seconds=wall,
    )
