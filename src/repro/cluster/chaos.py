"""Cluster chaos campaigns: seeded fault storms + invariant audit.

The serving chaos harness (:mod:`repro.serving.chaos`) audits one
machine; this one audits the fleet.  A campaign builds a seeded job
stream, a seeded :class:`~repro.faults.plan.FaultPlan` mixing spot
preemption notices with hard crashes and feature-store corruption, a
fresh on-disk feature store, and runs them through the
:class:`~repro.cluster.scheduler.ClusterScheduler`.  Then it checks
the invariants a fault-tolerant scheduler must keep:

* **no job lost** — every submitted job ends completed or failed with
  a recorded reason; nothing hangs in the queue or on a node;
* **monotonic time** — the event loop never moves simulated time
  backwards and no job completes before it arrives;
* **balanced node accounting** — per node, dispatches equal
  completions plus aborts, a crashed node restarts exactly as many
  times as it crashes, and a preempted/scaled-in node is terminated;
* **no double execution** — a migrated job never re-runs a chain scan
  it completed before the drain, and shards a drain checkpointed are
  never billed a second time (``migrated_recomputed_chains == 0`` and
  ``double_billed_shards == 0``); store corruption is the audited
  exception — a rotten entry *must* be recomputed, and the ledger
  strikes it from the trusted set before the recompute happens;
* **determinism** — the same seed yields a byte-identical report
  (the shared harness in :mod:`repro.faults.audit` reruns the seed).
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from ..faults.audit import (
    ChaosResult,
    audit_campaign,
    audit_suite,
    check_all,
    monotone_time,
    seeded_plan,
    validate_fault_mix,
)
from ..store.feature_store import FeatureStore
from .jobs import build_job_stream
from .nodes import NodeState
from .scheduler import ClusterConfig, ClusterScheduler

__all__ = [
    "CLUSTER_INVARIANTS",
    "ClusterChaosConfig",
    "ClusterChaosResult",
    "build_campaign",
    "check_cluster_invariants",
    "run_cluster_campaign",
    "run_cluster_suite",
    "run_once",
]

#: Worker-index space for cluster fault plans.  Plans target abstract
#: indices; the scheduler wraps them over the eligible node set at
#: strike time, so any value comfortably above the fleet size works
#: and keeps one plan meaningful across autoscale policies.
_PLAN_WORKER_SPACE = 64

#: One campaign's audit result (the shared harness's result type).
ClusterChaosResult = ChaosResult


@dataclasses.dataclass(frozen=True)
class ClusterChaosConfig:
    """One seeded cluster campaign, fully determined by its fields."""

    seed: int = 0
    num_jobs: int = 60
    num_chains: int = 24
    #: Default load is a burst (5x the fleet's comfortable rate) so
    #: spot nodes are busy when notices land — drains with work in
    #: flight are the case the audit exists for.
    arrival_rate_per_hour: float = 120.0
    policy: str = "queue-depth"
    migration: bool = True
    max_attempts: int = 6
    #: Fleet-shared XLA compile cache ("none"/"shared"); validated by
    #: :class:`~repro.cluster.scheduler.ClusterConfig`.
    compile_cache: str = "none"
    # -- fault mix (counts over the campaign horizon) ------------------
    preemption_notices: int = 10
    crashes: int = 3
    preemptions: int = 2          # reclaims with zero warning
    slow_nodes: int = 2
    store_corruptions: int = 3
    #: Optional fault-kind whitelist, as in
    #: :class:`~repro.serving.chaos.ChaosConfig`.
    kinds: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        validate_fault_mix(self.kinds)

    def fault_counts(self) -> "OrderedDict[str, int]":
        """The per-kind event counts the plan generator is fed."""
        return OrderedDict(
            crashes=self.crashes,
            preemptions=self.preemptions,
            slow_nodes=self.slow_nodes,
            store_corruptions=self.store_corruptions,
            preemption_notices=self.preemption_notices,
        )

    def summary_head(self) -> "OrderedDict[str, object]":
        """The leading fields of this campaign's chaos summary."""
        return OrderedDict(
            seed=self.seed,
            jobs=self.num_jobs,
            policy=self.policy,
            migration=self.migration,
        )


def build_campaign(config: ClusterChaosConfig):
    """The seeded ``(jobs, plan, cluster_config)`` triple."""
    jobs = build_job_stream(
        config.num_jobs,
        num_chains=config.num_chains,
        seed=config.seed,
        arrival_rate_per_hour=config.arrival_rate_per_hour,
    )
    plan = seeded_plan(
        config, jobs[-1].arrival_seconds,
        _PLAN_WORKER_SPACE, _PLAN_WORKER_SPACE,
    )
    cluster_config = ClusterConfig(
        policy=config.policy,
        migration=config.migration,
        max_attempts=config.max_attempts,
        compile_cache=config.compile_cache,
    )
    return jobs, plan, cluster_config


def run_once(config: ClusterChaosConfig):
    """One full campaign run against a fresh throwaway store:
    ``(scheduler, report, plan)``."""
    jobs, plan, cluster_config = build_campaign(config)
    root = tempfile.mkdtemp(prefix="repro-cluster-chaos-")
    try:
        store = FeatureStore(root)
        scheduler = ClusterScheduler(
            cluster_config, store=store, fault_plan=plan
        )
        report = scheduler.run(jobs)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return scheduler, report, plan


def jobs_accounted(scheduler, report) -> Iterator[str]:
    """No job lost: completed + failed == submitted, nothing left
    queued, every failure has a reason and every completion a time no
    earlier than its arrival."""
    if report.completed + report.failed != report.submitted:
        yield (
            f"job conservation: {report.submitted} submitted but "
            f"{report.completed} completed + {report.failed} failed"
        )
    if len(scheduler.queue):
        yield f"{len(scheduler.queue)} jobs still queued at end"
    for job in scheduler.failed_jobs:
        if not job.failure_reason:
            yield f"job {job.job_id} failed with no recorded reason"
    for job in scheduler.completed_jobs:
        if job.completion_seconds is None:
            yield (
                f"job {job.job_id} counted complete without a "
                f"completion time"
            )
        elif job.completion_seconds < job.arrival_seconds:
            yield f"job {job.job_id} completed before it arrived"


def nodes_balanced(scheduler, report) -> Iterator[str]:
    """Per node: idle at the end, dispatches == completions + aborts,
    crashes == restarts, and preempted nodes terminated, not draining."""
    for node in scheduler.nodes:
        health = node.health
        if health.busy or node.job is not None:
            yield f"node {node.node_id} still busy at end"
        if health.dispatches != health.completions + health.aborts:
            yield (
                f"node {node.node_id} accounting is unbalanced: "
                f"{health.dispatches} dispatched vs "
                f"{health.completions} completed + "
                f"{health.aborts} aborted"
            )
        if health.crashes != health.restarts:
            yield (
                f"node {node.node_id} crashed {health.crashes} times "
                f"but restarted {health.restarts}"
            )
        if health.preemptions and node.state is not NodeState.TERMINATED:
            yield (
                f"node {node.node_id} was preempted but is "
                f"{node.state.value}, not terminated"
            )
        if node.state is NodeState.DRAINING:
            yield f"node {node.node_id} still draining at end"


def no_double_execution(scheduler, report) -> Iterator[str]:
    """A drain's completed scans and checkpointed shards never run or
    bill twice."""
    if report.migrated_recomputed_chains:
        yield (
            f"{report.migrated_recomputed_chains} chain scans re-run "
            f"after a drain had already completed them"
        )
    if report.double_billed_shards:
        yield (
            f"{report.double_billed_shards} checkpointed shards were "
            f"billed twice on resume"
        )


def work_conserved(scheduler, report) -> Iterator[str]:
    """No job completes with a chain it never scanned."""
    for job in scheduler.completed_jobs:
        undone = [
            w.key for w in job.chains if w.status == "pending"
        ]
        if undone:
            yield (
                f"job {job.job_id} completed with unscanned chains "
                f"{undone}"
            )


#: The fleet audit, in report order.
CLUSTER_INVARIANTS = (
    jobs_accounted,
    monotone_time,
    nodes_balanced,
    no_double_execution,
    work_conserved,
)


def check_cluster_invariants(scheduler, report) -> List[str]:
    """Audit one finished scheduler run; returns violation strings."""
    return check_all(CLUSTER_INVARIANTS, scheduler, report)


def run_cluster_campaign(
    config: Optional[ClusterChaosConfig] = None,
    check_determinism: bool = True,
) -> ChaosResult:
    """Run one seeded cluster campaign and audit its invariants."""
    return audit_campaign(
        config or ClusterChaosConfig(), run_once, CLUSTER_INVARIANTS,
        check_determinism,
    )


def run_cluster_suite(
    seeds: Tuple[int, ...] = (0, 1, 2),
    base: Optional[ClusterChaosConfig] = None,
    check_determinism: bool = True,
) -> Dict[int, ChaosResult]:
    """One campaign per seed (the CI cluster job's entry point)."""
    return audit_suite(
        seeds, base or ClusterChaosConfig(), run_cluster_campaign,
        check_determinism,
    )
