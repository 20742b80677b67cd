"""The deterministic discrete-event core both simulators run on.

:class:`~repro.serving.gateway.ServingGateway` and
:class:`~repro.cluster.scheduler.ClusterScheduler` are handler tables
over one :class:`EventQueue`, which owns the heap of ``(time, kind,
seq, payload)`` (equal times break on each simulator's kind
precedence, then on push order), the monotone-time audit, fault-plan
injection and the applied/noop fault ledger.  Iterating the queue pops
until the heap is empty, including events handlers push meanwhile::

    for now, kind, payload in events:
        handlers[kind](payload)
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Tuple

__all__ = ["EventQueue", "fault_handler"]


class EventQueue:
    """A seeded simulation's event heap plus its clock audit.

    A pop dated before an earlier pop counts one
    ``monotonic_violations``; ``horizon`` is the latest time popped,
    which is the run's simulated duration.
    """

    __slots__ = ("_heap", "_seq", "horizon", "monotonic_violations")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0
        self.horizon = 0.0
        self.monotonic_violations = 0

    def push(self, kind: int, when: float, payload: object) -> None:
        """Schedule ``payload`` as a ``kind`` event at ``when``."""
        self._seq += 1
        heapq.heappush(self._heap, (when, kind, self._seq, payload))

    def inject(self, plan, kind: int, stats) -> None:
        """Schedule every event of a fault ``plan`` (``None`` for a
        fault-free run) as a ``kind`` event, counting each one in
        ``stats.events_injected``."""
        for event in plan if plan is not None else ():
            self.push(kind, event.time, event)
            stats.events_injected += 1

    def __iter__(self) -> Iterator[Tuple[float, int, object]]:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, kind, _, payload = pop(heap)
            if when < self.horizon:
                self.monotonic_violations += 1
            else:
                self.horizon = when
            yield when, kind, payload


def fault_handler(
    apply: Callable[[object], bool], stats
) -> Callable[[object], None]:
    """Wrap ``apply(event) -> changed state?`` so each planned fault
    counts once in ``stats`` as applied or noop (a dead or idle
    target).  Derived events (``event_id < 0``) were counted through
    the planned event that scheduled them."""

    def on_fault(event) -> None:
        applied = apply(event)
        if event.event_id < 0:
            return
        if applied:
            stats.events_applied += 1
        else:
            stats.events_noop += 1

    return on_fault
