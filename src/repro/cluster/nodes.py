"""Node pools and nodes of the heterogeneous fleet.

A :class:`NodePoolSpec` describes one purchasable capacity class in
the AWS-Batch-for-AlphaFold idiom — a platform from the paper's
Table 1 (Server H100 or Desktop RTX 4080), an on-demand or spot
pricing model, an hourly price, and a provisioning delay.  A
:class:`Node` is one booted instance of a pool: it owns a private
:class:`~repro.core.server.InferenceServer` (so GPU warm-up and XLA
compile are paid per node, exactly once per cold boot — the cold-start
cost the autoscaler trades against queue latency) and a
:class:`~repro.faults.recovery.WorkerHealth` ledger (the same
dispatch/completion/abort accounting the chaos harness audits on the
single-pool gateway).

Spot nodes are cheaper but reclaimable: a
``PREEMPTION_NOTICE`` fault drains them (see
:mod:`repro.cluster.preemption`); on-demand nodes only leave when the
autoscaler scales them in or a crash takes them down.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Tuple

from ..core.server import InferenceServer
from ..faults.recovery import CircuitBreaker, WorkerHealth
from ..hardware.platform import Platform, get_platform

__all__ = ["NodePoolSpec", "NodeState", "Node", "DEFAULT_POOLS"]


@dataclasses.dataclass(frozen=True)
class NodePoolSpec:
    """One capacity class of the fleet, fully determined by its fields."""

    name: str                     # e.g. "h100-ondemand"
    platform: str                 # key into repro.hardware.PLATFORMS
    spot: bool                    # reclaimable (with notice) when True
    cost_per_hour: float          # USD per node-hour, billed while alive
    provision_seconds: float      # instance boot before the node is READY
    min_nodes: int = 0
    max_nodes: int = 8
    initial_nodes: int = 1

    def __post_init__(self) -> None:
        if self.cost_per_hour < 0:
            raise ValueError("cost_per_hour must be >= 0")
        if self.provision_seconds < 0:
            raise ValueError("provision_seconds must be >= 0")
        if not 0 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 0 <= min_nodes <= max_nodes")
        if not self.min_nodes <= self.initial_nodes <= self.max_nodes:
            raise ValueError("initial_nodes outside [min, max]")

    def get_platform(self) -> Platform:
        return get_platform(self.platform)


#: The ROADMAP fleet: H100 on-demand for the latency floor, H100 spot
#: for cheap bulk, RTX 4080 spot as the budget overflow tier.  Prices
#: follow the usual ~3x on-demand/spot spread; the 4080 runs slower
#: (the paper's Desktop platform) but costs a fraction.
DEFAULT_POOLS: Tuple[NodePoolSpec, ...] = (
    NodePoolSpec(
        name="h100-ondemand", platform="Server", spot=False,
        cost_per_hour=12.0, provision_seconds=240.0,
        min_nodes=1, max_nodes=4, initial_nodes=1,
    ),
    NodePoolSpec(
        name="h100-spot", platform="Server", spot=True,
        cost_per_hour=4.0, provision_seconds=240.0,
        min_nodes=0, max_nodes=8, initial_nodes=2,
    ),
    NodePoolSpec(
        name="rtx4080-spot", platform="Desktop", spot=True,
        cost_per_hour=0.8, provision_seconds=180.0,
        min_nodes=0, max_nodes=8, initial_nodes=1,
    ),
)


class NodeState(enum.Enum):
    """Lifecycle of one node."""

    BOOTING = "booting"        # provisioning; becomes READY
    READY = "ready"            # up, may run a job
    DRAINING = "draining"      # preemption notice received; finishing up
    DOWN = "down"              # crashed; restarting in place
    TERMINATED = "terminated"  # reclaimed or scaled in; never returns


class Node:
    """One booted instance of a pool.

    The node's :class:`WorkerHealth` carries the balanced-accounting
    ledger (dispatches vs completions + aborts) and the circuit
    breaker; crash/preemption/restart counts live there too so the
    cluster chaos audit reads the same fields the gateway audit does.
    """

    def __init__(
        self,
        node_id: int,
        pool: NodePoolSpec,
        booted_at: float,
        breaker: Optional[CircuitBreaker] = None,
        compile_cache=None,
    ) -> None:
        self.node_id = node_id
        self.pool = pool
        self.platform = pool.get_platform()
        self.health = WorkerHealth(
            index=node_id, breaker=breaker or CircuitBreaker()
        )
        #: Private engine: warm-up + XLA compile are paid by this
        #: node's first inference (and again after every crash) —
        #: unless a fleet-shared ``compile_cache``
        #: (:class:`repro.buckets.SharedCompileCache`, the
        #: --jax_compilation_cache_dir model) turns later nodes'
        #: compiles into cheap deserializes.
        self.engine = InferenceServer(self.platform, compile_cache=compile_cache)
        self.state = NodeState.BOOTING
        self.booted_at = booted_at
        self.terminated_at: Optional[float] = None
        #: The job currently running here (scheduler-owned payload).
        self.job = None
        #: Deadline of the pending drain, when state is DRAINING.
        self.drain_deadline: Optional[float] = None

    # -- billing ---------------------------------------------------------

    def billed_seconds(self, now: float) -> float:
        """Alive wall-clock this node is billed for, boot to
        termination (or ``now`` while still alive)."""
        end = self.terminated_at if self.terminated_at is not None else now
        return max(0.0, end - self.booted_at)

    # -- state predicates ------------------------------------------------

    @property
    def alive(self) -> bool:
        """Booted and not terminated (DOWN nodes restart, so count)."""
        return self.state is not NodeState.TERMINATED

    @property
    def accepts_jobs(self) -> bool:
        return (
            self.state is NodeState.READY
            and not self.health.busy
            and self.health.breaker.allows_dispatch
        )

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (
            f"Node({self.node_id}, {self.pool.name}, "
            f"{self.state.value})"
        )
