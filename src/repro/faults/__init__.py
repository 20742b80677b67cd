"""Deterministic fault injection and recovery for the serving stack.

``plan`` defines seeded fault schedules (:class:`FaultPlan`), ``recovery``
the machinery that survives them (worker health, circuit breakers, MSA
scan checkpoints), ``audit`` the seeded chaos audit harness the serving
and cluster campaigns share, and ``kill`` the simulated process kill
the batch campaigns resume from.  The campaigns themselves sit next to
the simulators they audit (:mod:`repro.serving.chaos`,
:mod:`repro.cluster.chaos`), so this package imports nothing above
:mod:`repro.msa`.
"""

from .audit import ChaosResult
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
    finished_scan_shards,
)

__all__ = [
    "BreakerState",
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
    "finished_scan_shards",
    "merge_plans",
    "restrict_kinds",
]

