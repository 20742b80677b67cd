"""Spot preemption: notice targeting and the drain protocol.

A ``PREEMPTION_NOTICE`` fault is the simulator's two-minute-warning
analog: ``magnitude`` seconds of lead, then the instance is gone.
Targeting is deterministic — the event's worker index picks among the
*live spot nodes in node-id order* — so a seeded plan strikes the same
node in every rerun of the same campaign.

The drain itself is the robustness core: publish finished chains,
checkpoint the one in flight, requeue the job, terminate the node.
Everything here mutates scheduler-owned state through the scheduler's
own primitives (store, checkpoint store, migration ledger), keeping
one source of truth for the chaos audit.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults.plan import FaultEvent
from .nodes import Node, NodeState

__all__ = [
    "select_spot_target",
    "select_crash_target",
    "drain_window",
]


def _ready(nodes: List[Node]) -> List[Node]:
    return [n for n in nodes if n.state is NodeState.READY]


def select_spot_target(
    nodes: List[Node], event: FaultEvent
) -> Optional[Node]:
    """The spot node a preemption notice reclaims, or None.

    Only non-draining spot capacity is eligible (a node already
    draining has already been reclaimed).  The event's worker index
    wraps over the eligible set in node-id order.
    """
    eligible = [n for n in _ready(nodes) if n.pool.spot]
    if not eligible:
        return None
    return eligible[event.worker % len(eligible)]


def select_crash_target(
    nodes: List[Node], event: FaultEvent
) -> Optional[Node]:
    """The node a crash (or slow-node) fault strikes, or None: any
    READY node, spot or on-demand.  Draining nodes are exempt — they
    are already being reclaimed, and striking them would fork the
    lifecycle into a crashed-while-reclaimed limbo no real scheduler
    books separately."""
    eligible = _ready(nodes)
    if not eligible:
        return None
    return eligible[event.worker % len(eligible)]


def drain_window(event: FaultEvent) -> float:
    """Seconds of notice lead the drain gets (non-negative)."""
    return max(0.0, event.magnitude)

