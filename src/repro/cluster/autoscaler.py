"""Pluggable autoscaling policies over the heterogeneous fleet.

A policy is a pure function from observed cluster state to a target
node count per pool; the :class:`Autoscaler` enforces pool bounds and
a per-pool cooldown between scaling actions, and the scheduler applies
the result (booting nodes, or terminating *idle* ones — running jobs
are never killed by scale-in).  Policies being pure functions of
``(pool, view)`` is what keeps chaos campaigns byte-deterministic.

The registry ships the three policy families the Pareto study
compares:

* ``fixed`` — never scales; the initial fleet is the fleet.
* ``queue-depth`` — classic scale-out on backlog, scale-in on idle
  (with ``aggressive`` and ``conservative`` variants at different
  thresholds/cooldowns).
* ``cost-aware`` — queue-depth scaling that fills cheap spot pools
  first and keeps expensive on-demand capacity at its floor.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from .nodes import NodePoolSpec

__all__ = [
    "ClusterView",
    "PoolView",
    "AutoscalePolicy",
    "Autoscaler",
    "POLICIES",
    "get_policy",
]


@dataclasses.dataclass(frozen=True)
class PoolView:
    """What a policy may observe about one pool at a tick."""

    spec: NodePoolSpec
    total_nodes: int        # alive (booting + ready + draining + down)
    busy_nodes: int
    idle_nodes: int         # READY and not busy
    booting_nodes: int


@dataclasses.dataclass(frozen=True)
class ClusterView:
    """What a policy may observe about the whole cluster at a tick."""

    now: float
    queue_depth: int                    # jobs waiting, all classes
    high_priority_depth: int            # waiting jobs in class 0
    pools: Dict[str, PoolView] = dataclasses.field(default_factory=dict)

    @property
    def total_idle(self) -> int:
        return sum(p.idle_nodes for p in self.pools.values())

    @property
    def cheapest_spot_pool(self) -> Optional[str]:
        spot = [
            (p.spec.cost_per_hour, name)
            for name, p in self.pools.items() if p.spec.spot
        ]
        return min(spot)[1] if spot else None


@dataclasses.dataclass(frozen=True)
class AutoscalePolicy:
    """One named policy: a target function plus its cooldown."""

    name: str
    #: target node count for a pool given the cluster view
    target: Callable[[PoolView, ClusterView], int]
    cooldown_seconds: float = 600.0
    description: str = ""


def _fixed_target(pool: PoolView, view: ClusterView) -> int:
    return pool.spec.initial_nodes


def _queue_depth_target(
    pool: PoolView, view: ClusterView,
    backlog_per_node: int, idle_floor: int,
) -> int:
    """Scale out when backlog exceeds ``backlog_per_node`` per alive
    node; scale in toward ``idle_floor`` spare nodes when idle."""
    if view.queue_depth == 0:
        # Idle: shed everything above the floor (plus min_nodes).
        return max(pool.spec.min_nodes, min(
            pool.total_nodes, pool.busy_nodes + idle_floor
        ))
    wanted = -(-view.queue_depth // backlog_per_node)   # ceil division
    return pool.busy_nodes + pool.booting_nodes + max(
        0, wanted - view.total_idle
    )


def _cost_aware_target(pool: PoolView, view: ClusterView) -> int:
    """Backlog-driven, but growth goes to the cheapest spot pool and
    on-demand capacity stays at its floor (the latency insurance)."""
    if not pool.spec.spot:
        return max(pool.spec.min_nodes, pool.busy_nodes)
    if view.queue_depth == 0:
        return max(pool.spec.min_nodes, pool.busy_nodes)
    if view.cheapest_spot_pool != pool.spec.name:
        # Non-cheapest spot pools hold position; they only grow once
        # the cheap pool saturates (its view caps at max_nodes below).
        cheap = view.pools.get(view.cheapest_spot_pool)
        if cheap is not None and cheap.total_nodes < cheap.spec.max_nodes:
            return max(pool.spec.min_nodes, pool.total_nodes)
    wanted = -(-view.queue_depth // 2)
    return pool.busy_nodes + pool.booting_nodes + max(
        0, wanted - view.total_idle
    )


POLICIES: Dict[str, AutoscalePolicy] = {
    "fixed": AutoscalePolicy(
        name="fixed",
        target=_fixed_target,
        cooldown_seconds=0.0,
        description="never scales; the initial fleet is the fleet",
    ),
    "queue-depth": AutoscalePolicy(
        name="queue-depth",
        target=lambda p, v: _queue_depth_target(p, v, 3, 1),
        cooldown_seconds=600.0,
        description="scale out on backlog (3 jobs/node), keep one "
                    "spare, 10 min cooldown",
    ),
    "aggressive": AutoscalePolicy(
        name="aggressive",
        target=lambda p, v: _queue_depth_target(p, v, 1, 2),
        cooldown_seconds=300.0,
        description="one node per queued job, two spares, 5 min "
                    "cooldown — lowest latency, highest bill",
    ),
    "conservative": AutoscalePolicy(
        name="conservative",
        target=lambda p, v: _queue_depth_target(p, v, 6, 0),
        cooldown_seconds=1800.0,
        description="scale out only on deep backlog (6 jobs/node), "
                    "no spares, 30 min cooldown",
    ),
    "cost-aware": AutoscalePolicy(
        name="cost-aware",
        target=_cost_aware_target,
        cooldown_seconds=600.0,
        description="fill the cheapest spot pool first; on-demand "
                    "stays at its floor",
    ),
}


def get_policy(name: str) -> AutoscalePolicy:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown autoscaling policy {name!r}; "
            f"available: {', '.join(sorted(POLICIES))}"
        ) from None


class Autoscaler:
    """Applies a policy's targets under bounds and cooldown.

    ``decide`` returns the per-pool node delta the scheduler should
    apply *now* (positive: boot, negative: terminate idle nodes);
    a pool that scaled within its cooldown window returns 0.
    """

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self._last_action: Dict[str, float] = {}
        self.scale_outs = 0
        self.scale_ins = 0

    def decide(self, view: ClusterView) -> Dict[str, int]:
        deltas: Dict[str, int] = {}
        for name, pool in view.pools.items():
            last = self._last_action.get(name)
            if (
                last is not None
                and view.now - last < self.policy.cooldown_seconds
            ):
                deltas[name] = 0
                continue
            target = self.policy.target(pool, view)
            target = max(
                pool.spec.min_nodes, min(pool.spec.max_nodes, target)
            )
            delta = target - pool.total_nodes
            if delta < 0:
                # Scale-in can only reap idle nodes; the rest of the
                # wish carries to a later tick when jobs finish.
                delta = -min(-delta, pool.idle_nodes)
            if delta:
                self._last_action[name] = view.now
                if delta > 0:
                    self.scale_outs += delta
                else:
                    self.scale_ins += -delta
            deltas[name] = delta
        return deltas
