"""Property tests for the shared discrete-event core (``repro.events``).

Both simulators are handler tables over one :class:`EventQueue`, so
its contracts are the determinism contracts of every serving and
cluster golden:

* events pop in ``(time, kind, push order)`` — including events that
  handlers push while the loop runs;
* ``monotonic_violations`` counts exactly the pops dated before an
  earlier pop, and ``horizon`` is the latest time popped;
* fault injection counts every planned event once:
  ``injected == applied + noop``, with derived events (``event_id <
  0``, scheduled by a planned event's handler) excluded.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import EventQueue, fault_handler
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultStats,
    GPU_DOMAIN,
)

#: Small integer times and few kinds, so ties on time and on
#: (time, kind) are common and the tie-break rules are exercised.
_EVENT = st.tuples(
    st.integers(min_value=0, max_value=12).map(float),
    st.integers(min_value=0, max_value=3),
)


def _reference_order(initial, spawned):
    """Pop order of a plain sorted-list model: pick the minimum
    ``(time, kind, push index)`` each step; popping event ``i`` pushes
    ``spawned[i]`` (at any time, past ones included)."""
    pending = [(t, k, i) for i, (t, k) in enumerate(initial)]
    next_id = len(pending)
    order = []
    while pending:
        item = min(pending)
        pending.remove(item)
        order.append(item)
        for t, k in (spawned[item[2]] if item[2] < len(spawned) else ()):
            pending.append((t, k, next_id))
            next_id += 1
    return order


class TestEventOrder:
    @given(
        initial=st.lists(_EVENT, max_size=25),
        spawned=st.lists(st.lists(_EVENT, max_size=3), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_pops_in_time_kind_push_order(self, initial, spawned):
        events = EventQueue()
        pushed = 0

        def push(time, kind):
            nonlocal pushed
            events.push(kind, time, pushed)
            pushed += 1

        for time, kind in initial:
            push(time, kind)
        popped = []
        for now, kind, ident in events:
            popped.append((now, kind, ident))
            for time, child_kind in (
                spawned[ident] if ident < len(spawned) else ()
            ):
                push(time, child_kind)

        reference = _reference_order(initial, spawned)
        assert popped == reference

        past_dated = sum(
            1 for j, (t, _, _) in enumerate(reference)
            if any(t < earlier for earlier, _, _ in reference[:j])
        )
        assert events.monotonic_violations == past_dated
        assert events.horizon == max(
            (t for t, _, _ in reference), default=0.0
        )

    def test_equal_time_and_kind_keep_push_order(self):
        events = EventQueue()
        for ident in range(5):
            events.push(1, 3.0, ident)
        events.push(0, 3.0, "first kind")
        assert [p for _, _, p in events] == ["first kind", 0, 1, 2, 3, 4]
        assert events.monotonic_violations == 0


def _plan(times):
    return FaultPlan(
        FaultEvent(
            event_id=i, time=float(t), kind=FaultKind.WORKER_CRASH,
            domain=GPU_DOMAIN, worker=0,
        )
        for i, t in enumerate(times)
    )


class TestFaultLedger:
    @given(
        times=st.lists(
            st.integers(min_value=0, max_value=50), max_size=15
        ),
        applies=st.lists(st.booleans(), min_size=40, max_size=40),
        derives=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_planned_event_counted_once(self, times, applies, derives):
        events = EventQueue()
        stats = FaultStats()
        fault_kind = 1
        events.inject(_plan(times), fault_kind, stats)
        events.push(0, 0.0, "not a fault")
        seen = []

        def apply(event):
            # A planned event may schedule one derived follow-up (the
            # way a spot notice schedules its preemption); the derived
            # event's own outcome must never reach the ledger.
            step = len(seen)
            seen.append(event.event_id)
            if event.event_id >= 0 and derives[step % len(derives)]:
                events.push(fault_kind, event.time + 1.0, FaultEvent(
                    event_id=-event.event_id - 1, time=event.time + 1.0,
                    kind=event.kind, domain=event.domain, worker=0,
                ))
            return applies[step % len(applies)]

        handlers = {
            0: lambda payload: None,
            fault_kind: fault_handler(apply, stats),
        }
        for _, kind, payload in events:
            handlers[kind](payload)

        assert stats.events_injected == len(times)
        assert stats.events_applied + stats.events_noop == len(times)
        planned = [e for e in seen if e >= 0]
        assert sorted(planned) == list(range(len(times)))
        assert events.monotonic_violations == 0

    def test_no_plan_injects_nothing(self):
        events = EventQueue()
        stats = FaultStats()
        events.inject(None, 3, stats)
        assert stats.events_injected == 0
        assert list(events) == []
