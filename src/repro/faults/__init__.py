"""Deterministic fault injection and recovery for the serving stack.

``plan`` defines seeded fault schedules (:class:`FaultPlan`), ``recovery``
the machinery that survives them (worker health, circuit breakers, MSA
scan checkpoints), ``audit`` the seeded chaos audit harness the serving
and cluster campaigns share, and ``chaos`` the serving campaign that
runs seeded fault schedules against the gateway and checks its
invariants (it imports the serving package only when a campaign runs,
so the import graph stays acyclic).
"""

from .audit import ChaosResult
from .chaos import ChaosConfig, run_campaign, run_suite
from .kill import KillSwitch, SimulatedKill
from .plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    GPU_DOMAIN,
    MSA_DOMAIN,
    merge_plans,
    restrict_kinds,
)
from .recovery import (
    BreakerState,
    CheckpointStore,
    CircuitBreaker,
    FaultStats,
    MsaCheckpoint,
    WorkerHealth,
)

__all__ = [
    "BreakerState",
    "ChaosConfig",
    "ChaosResult",
    "CheckpointStore",
    "CircuitBreaker",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultStats",
    "GPU_DOMAIN",
    "KillSwitch",
    "MSA_DOMAIN",
    "MsaCheckpoint",
    "SimulatedKill",
    "WorkerHealth",
    "merge_plans",
    "restrict_kinds",
    "run_campaign",
    "run_suite",
]

