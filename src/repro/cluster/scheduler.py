"""The discrete-event cluster scheduler over the heterogeneous fleet.

This is the single-pool serving gateway's event loop lifted one level:
instead of MSA and GPU worker pools inside one machine, the scheduler
runs *jobs* on *nodes* drawn from priced node pools, with an
autoscaler adjusting pool sizes, spot notices draining nodes through
the migration protocol, and the shared feature store amortising chain
scans across the whole fleet.

Determinism contract (the chaos harness pins it byte-for-byte): the
event heap (:class:`~repro.events.EventQueue`, shared with the
gateway) orders by ``(time, kind, seq)`` with a fixed kind
precedence and a monotone sequence number, every random draw comes
from seeded streams created at build time, and node/job selection
rules are pure functions of scheduler state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..buckets.compile_cache import SharedCompileCache
from ..events import EventQueue, fault_handler
from ..faults.plan import FaultEvent, FaultKind, FaultPlan, GPU_DOMAIN
from ..faults.recovery import (
    CheckpointStore, FaultStats, MsaCheckpoint, finished_scan_shards,
)
from ..observability.instrument import NULL_CLUSTER_PROBE, ClusterProbe
from ..serving.cache import chain_store_payload
from ..store.feature_store import FeatureStore
from .autoscaler import Autoscaler, AutoscalePolicy, ClusterView, PoolView, get_policy
from .jobs import ChainStatus, ChainWork, ClusterJob, chain_scan_seconds
from .migration import MigrationLedger
from .nodes import DEFAULT_POOLS, Node, NodePoolSpec, NodeState
from .preemption import (
    drain_window,
    select_crash_target,
    select_spot_target,
)
from .queues import PriorityJobQueue

__all__ = ["ClusterConfig", "ClusterScheduler"]

# Event-kind precedence at equal timestamps: finish running work, then
# bring capacity up, then execute reclaims, then inject faults, then
# admit arrivals, then autoscale over the settled state.
_EV_CHAIN_DONE = 0
_EV_INFER_DONE = 1
_EV_NODE_READY = 2
_EV_DRAIN_FINAL = 3
_EV_FAULT = 4
_EV_ARRIVAL = 5
_EV_AUTOSCALE = 6

#: Simulated seconds between autoscaler evaluations.
AUTOSCALE_INTERVAL_SECONDS = 300.0


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Scheduler knobs (pools + policy + recovery + migration)."""

    pools: Tuple[NodePoolSpec, ...] = DEFAULT_POOLS
    policy: str = "queue-depth"
    restart_seconds: float = 300.0
    max_attempts: int = 6
    #: The robustness core: drain-time chain publication + in-flight
    #: checkpointing.  Disabled only for the differential audit that
    #: proves migration saves compute.
    migration: bool = True
    #: Fleet-shared XLA compile cache ("none" keeps per-node compile;
    #: "shared" models one --jax_compilation_cache_dir every node
    #: mounts, so scale-out stops re-paying compile per node and the
    #: autoscaler's cold-start cost drops to deserialize + warm-up).
    compile_cache: str = "none"

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("need at least one node pool")
        if sum(p.initial_nodes for p in self.pools) < 1:
            raise ValueError("the initial fleet must have >= 1 node")
        if self.restart_seconds <= 0:
            raise ValueError("restart_seconds must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        names = [p.name for p in self.pools]
        if len(set(names)) != len(names):
            raise ValueError("pool names must be unique")
        if self.compile_cache not in ("none", "shared"):
            raise ValueError(
                "compile_cache must be 'none' or 'shared', "
                f"got {self.compile_cache!r}"
            )


class _ScanState:
    """What a node knows about its in-flight chain scan."""

    __slots__ = ("work", "started", "planned", "resumed")

    def __init__(self, work, started, planned, resumed):
        self.work: ChainWork = work
        self.started = started
        self.planned = planned          # seconds this scan will take
        self.resumed = resumed          # shards inherited from checkpoint


class ClusterScheduler:
    """Run a job stream over the fleet; see the module docstring."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        store: Optional[FeatureStore] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe: Optional[ClusterProbe] = None,
        policy: Optional[AutoscalePolicy] = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self.store = store
        self.fault_plan = fault_plan
        self.probe = probe or NULL_CLUSTER_PROBE
        self.policy = policy or get_policy(self.config.policy)

    # -- the simulation --------------------------------------------------

    def run(self, jobs: Sequence[ClusterJob]):
        from .metrics import build_cluster_report

        cfg = self.config
        events = self._events = EventQueue()
        self._now = 0.0

        self.nodes: List[Node] = []
        #: Fleet-shared executable cache (the persistent artifact
        #: store every node mounts); crashes and reclaims never clear
        #: it, which is exactly the cold-start amortization it models.
        self.compile_cache = (
            SharedCompileCache() if cfg.compile_cache == "shared" else None
        )
        self.queue = PriorityJobQueue()
        self.ledger = MigrationLedger()
        self.checkpoints = CheckpointStore()
        self.fault_stats = FaultStats()
        self.autoscaler = Autoscaler(self.policy)
        self._scan_state: Dict[int, _ScanState] = {}
        self._pool_busy: Dict[str, float] = {
            p.name: 0.0 for p in cfg.pools
        }
        self.completed_jobs: List[ClusterJob] = []
        self.failed_jobs: List[ClusterJob] = []
        self._outstanding = len(jobs)
        self.store_chain_hits = 0
        self.chains_published = 0
        self.scale_in_terminations = 0

        self.probe.attach([p.name for p in cfg.pools])

        for pool in cfg.pools:
            for _ in range(pool.initial_nodes):
                self._boot_node(pool, at=0.0)
        for job in jobs:
            events.push(_EV_ARRIVAL, job.arrival_seconds, job)
        events.inject(self.fault_plan, _EV_FAULT, self.fault_stats)
        events.push(_EV_AUTOSCALE, AUTOSCALE_INTERVAL_SECONDS, None)
        handlers = {
            _EV_CHAIN_DONE: lambda p: self._chain_done(*p),
            _EV_INFER_DONE: lambda p: self._infer_done(*p),
            _EV_NODE_READY: lambda p: self._node_ready(*p),
            _EV_DRAIN_FINAL: self._drain_final,
            _EV_FAULT: fault_handler(self._on_fault, self.fault_stats),
            _EV_ARRIVAL: self._arrival,
            _EV_AUTOSCALE: lambda _: self._autoscale_tick(),
        }
        for self._now, kind, payload in events:
            handlers[kind](payload)
        self.monotonic_violations = events.monotonic_violations
        last_time = self._now = events.horizon
        return build_cluster_report(self, duration_seconds=last_time)

    # -- node lifecycle --------------------------------------------------

    def _boot_node(self, pool: NodePoolSpec, at: float) -> Node:
        node = Node(
            len(self.nodes), pool, booted_at=at,
            compile_cache=self.compile_cache,
        )
        self.nodes.append(node)
        self.probe.node_booted(node, at)
        self._events.push(
            _EV_NODE_READY, at + pool.provision_seconds,
            (node.node_id, "boot"),
        )
        return node

    def _node_ready(self, node_id: int, mode: str) -> None:
        node = self.nodes[node_id]
        if node.state is NodeState.TERMINATED:
            return   # reclaimed while provisioning/restarting
        node.state = NodeState.READY
        if mode == "restart":
            node.health.up = True
            node.health.restarts += 1
            self.fault_stats.restarts += 1
        self.probe.node_ready(node, self._now, mode)
        self._dispatch()

    def _terminate_node(self, node: Node, reason: str) -> None:
        node.state = NodeState.TERMINATED
        node.terminated_at = self._now
        self.probe.node_terminated(node, self._now, reason)

    # -- job flow --------------------------------------------------------

    def _arrival(self, job: ClusterJob) -> None:
        self.queue.push(job)
        self.probe.job_queued(job, self._now)
        self._dispatch()

    def _accepting_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.accepts_jobs]

    def _dispatch(self) -> None:
        """Pair queued jobs with accepting nodes.

        High-priority jobs take on-demand capacity first (the latency
        insurance the pool exists for); everything else fills the
        cheapest nodes first, keeping on-demand free for the next
        high-priority arrival.  Pure function of scheduler state.
        """
        while True:
            free = self._accepting_nodes()
            if not free:
                return
            job = self.queue.pop()
            if job is None:
                return
            if job.priority == 0:
                free.sort(key=lambda n: (n.pool.spot, n.node_id))
            else:
                free.sort(
                    key=lambda n: (n.pool.cost_per_hour, n.node_id)
                )
            self._assign(job, free[0])

    def _assign(self, job: ClusterJob, node: Node) -> None:
        job.attempts += 1
        health = node.health
        health.dispatches += 1
        health.busy = True
        health.job_started = self._now
        node.job = job
        self.probe.job_started(job, node, self._now)
        # Resolve chain states against the shared store: published
        # features (this job's earlier run, or any other job's) turn a
        # scan into a metadata read.
        if self.store is not None:
            for work in job.chains:
                if work.status == ChainStatus.PENDING:
                    payload = self.store.get(work.key)
                    if payload is not None:
                        work.status = ChainStatus.DURABLE
                        work.store_hit = True
                        self.store_chain_hits += 1
                        self.ledger.mark_durable(work.key)
        self._advance(node)

    def _advance(self, node: Node) -> None:
        """Schedule the node's next unit of work for its job."""
        job: ClusterJob = node.job
        if not job.msa_done:
            self._start_chain_scan(node, job)
            return
        self._publish_local_chains(node, job)
        self._start_inference(node, job)

    def _start_chain_scan(self, node: Node, job: ClusterJob) -> None:
        work = job.next_pending_chain()
        resumed = 0
        remaining = 1.0
        checkpoint = self.checkpoints.take(
            self._checkpoint_key(job, work)
        )
        if checkpoint is not None:
            resumed = checkpoint.completed_shards
            remaining = checkpoint.remaining_fraction
            job.resumed_shards += resumed
        self.ledger.record_scan_start(job, work.key, resumed)
        planned = (
            chain_scan_seconds(node.platform, work.chain) * remaining
            * node.health.active_slowdown(self._now)
        )
        self._scan_state[node.node_id] = _ScanState(
            work, self._now, planned, resumed
        )
        job.scan_seconds_billed += planned
        self._pool_busy[node.pool.name] += planned
        node.health.job_expected_end = self._now + planned
        self.probe.chain_started(
            job, node, work.key, self._now, planned, resumed
        )
        self._events.push(
            _EV_CHAIN_DONE, self._now + planned,
            (node.node_id, work.key, node.health.job_token),
        )

    def _chain_done(self, node_id: int, key: str, token: int) -> None:
        node = self.nodes[node_id]
        health = node.health
        if not health.busy or health.job_token != token:
            return   # stale: the node crashed or drained mid-scan
        job: ClusterJob = node.job
        state = self._scan_state.pop(node.node_id, None)
        work = state.work if state else None
        if work is None or work.key != key:   # pragma: no cover
            return
        work.status = ChainStatus.LOCAL
        job.chains_scanned += 1
        self.probe.chain_finished(job, node, key, self._now)
        self._advance(node)

    def _publish_local_chains(self, node: Node, job: ClusterJob) -> None:
        locals_ = job.local_chains()
        if not locals_:
            return
        for work in locals_:
            if self.store is not None:
                self.store.put(work.key, chain_store_payload(work.chain))
            work.status = ChainStatus.DURABLE
            self.ledger.mark_durable(work.key)
            self.chains_published += 1
        self.probe.chains_published(
            job, node, len(locals_), self._now
        )

    def _start_inference(self, node: Node, job: ClusterJob) -> None:
        result = node.engine.submit(job.sample, msa_depth=job.msa_depth)
        seconds = (
            result.latency_seconds
            * node.health.active_slowdown(self._now)
        )
        job.gpu_seconds_billed += seconds
        self._pool_busy[node.pool.name] += seconds
        node.health.job_expected_end = self._now + seconds
        self.probe.infer_started(
            job, node, self._now, seconds,
            cold=result.init_seconds + result.compile_seconds > 0,
        )
        self._events.push(
            _EV_INFER_DONE, self._now + seconds,
            (node.node_id, node.health.job_token),
        )

    def _infer_done(self, node_id: int, token: int) -> None:
        node = self.nodes[node_id]
        health = node.health
        if not health.busy or health.job_token != token:
            return   # stale: the node crashed or drained mid-inference
        job: ClusterJob = node.job
        health.busy = False
        health.completions += 1
        node.job = None
        job.completion_seconds = self._now
        self.completed_jobs.append(job)
        self._outstanding -= 1
        self.ledger.forget_job(job)
        self.probe.job_completed(job, node, self._now)
        self._dispatch()

    # -- aborts, requeues, drains ----------------------------------------

    def _checkpoint_key(self, job: ClusterJob, work: ChainWork) -> str:
        """Per-job checkpoint namespace: two jobs scanning the same
        chain content must not consume each other's resume points."""
        return f"job{job.job_id}:{work.key}"

    def _abort_node_job(
        self, node: Node
    ) -> Tuple[Optional[ClusterJob], Optional[_ScanState]]:
        """Take the running job off a dying node, handing back unrun
        busy seconds; the caller decides what the drain saved."""
        health = node.health
        if not health.busy:
            return None, None
        job: ClusterJob = node.job
        unrun = max(0.0, health.job_expected_end - self._now)
        self._pool_busy[node.pool.name] -= unrun
        state = self._scan_state.pop(node.node_id, None)
        if state is not None:
            job.scan_seconds_billed -= unrun
        else:
            job.gpu_seconds_billed -= unrun
        health.invalidate_job()
        health.aborts += 1
        node.job = None
        return job, state

    def _requeue(self, job: ClusterJob, migrated: bool) -> None:
        if job.attempts >= self.config.max_attempts:
            job.failure_reason = (
                f"retry budget exhausted after {job.attempts} attempts"
            )
            self.failed_jobs.append(job)
            self._outstanding -= 1
            self.ledger.forget_job(job)
            self.probe.job_failed(job, self._now, job.failure_reason)
            return
        if migrated:
            job.migrations += 1
        else:
            job.crash_requeues += 1
        self.queue.push(job, requeue=True)
        self.probe.job_requeued(job, self._now, migrated)

    def _drain_final(self, node_id: int) -> None:
        """The notice lead expired: save what we can, then terminate."""
        node = self.nodes[node_id]
        if node.state is not NodeState.DRAINING:
            return   # crashed (or otherwise left) before the deadline
        cfg = self.config
        job, state = self._abort_node_job(node)
        if job is not None:
            if cfg.migration:
                published = len(job.local_chains())
                self._publish_local_chains(node, job)
                self.ledger.drain_publishes += published
                checkpointed_key = ""
                checkpointed = 0
                if state is not None:
                    done = finished_scan_shards(
                        state.resumed, self._now - state.started,
                        state.planned,
                    )
                    if done > 0:
                        self.checkpoints.save(
                            self._checkpoint_key(job, state.work),
                            MsaCheckpoint(done),
                        )
                        checkpointed_key = state.work.key
                        checkpointed = done
                        self.fault_stats.checkpoints_saved += 1
                self.ledger.record_drain(
                    job, checkpointed_key, checkpointed
                )
            else:
                # No drain protocol: node-local results die with the
                # node, exactly like a crash.
                for work in job.local_chains():
                    work.status = ChainStatus.PENDING
            self._requeue(job, migrated=True)
        node.health.preemptions += 1
        self.fault_stats.preemptions += 1
        self._terminate_node(node, "preempted")
        self._dispatch()

    def _crash_node(self, node: Node, event: FaultEvent) -> bool:
        if node.state not in (NodeState.READY, NodeState.DRAINING):
            return False
        job, _ = self._abort_node_job(node)
        if job is not None:
            # No warning: unpublished local chains are lost with the
            # node's scratch disk, and the in-flight scan checkpoints
            # nothing.
            for work in job.local_chains():
                work.status = ChainStatus.PENDING
            self._requeue(job, migrated=False)
        node.state = NodeState.DOWN
        node.health.up = False
        node.health.crashes += 1
        if event.domain == GPU_DOMAIN:
            self.fault_stats.gpu_crashes += 1
        else:
            self.fault_stats.msa_crashes += 1
        if node.engine.warm:
            node.engine.reset()   # warm-up + XLA compile owed again
        self.probe.node_crashed(node, self._now)
        self._events.push(
            _EV_NODE_READY, self._now + self.config.restart_seconds,
            (node.node_id, "restart"),
        )
        self._dispatch()
        return True

    # -- fault injection -------------------------------------------------

    def _on_fault(self, event: FaultEvent) -> bool:
        kind = event.kind
        if kind is FaultKind.PREEMPTION_NOTICE:
            return self._handle_notice(event)
        if kind is FaultKind.PREEMPTION:
            return self._handle_no_notice_reclaim(event)
        if kind is FaultKind.WORKER_CRASH:
            target = select_crash_target(self.nodes, event)
            return target is not None and self._crash_node(target, event)
        if kind is FaultKind.STORE_CORRUPTION:
            return self._store_corruption(event)
        if kind is FaultKind.SLOW_NODE:
            return self._slow_node(event)
        # GPU OOM spikes and DB stalls/corruption are worker-level
        # faults the single-pool gateway models; at cluster
        # granularity they fold into slow-node behaviour.
        return False

    def _handle_notice(self, event: FaultEvent) -> bool:
        node = select_spot_target(self.nodes, event)
        if node is None:
            return False
        lead = drain_window(event)
        self.fault_stats.preemption_notices += 1
        node.state = NodeState.DRAINING
        node.drain_deadline = self._now + lead
        self.probe.node_draining(node, self._now, node.drain_deadline)
        self._events.push(
            _EV_DRAIN_FINAL, node.drain_deadline, node.node_id
        )
        return True

    def _handle_no_notice_reclaim(self, event: FaultEvent) -> bool:
        """A reclaim with zero warning: work is lost like a crash, but
        the node is gone for good like a preemption."""
        node = select_spot_target(self.nodes, event)
        if node is None:
            return False
        job, _ = self._abort_node_job(node)
        if job is not None:
            for work in job.local_chains():
                work.status = ChainStatus.PENDING
            self._requeue(job, migrated=False)
        node.health.preemptions += 1
        self.fault_stats.preemptions += 1
        self._terminate_node(node, "reclaimed-without-notice")
        self._dispatch()
        return True

    def _store_corruption(self, event: FaultEvent) -> bool:
        if self.store is None or len(self.store) == 0:
            return False
        keys = self.store.keys()
        key = keys[(event.event_id * 7919 + event.worker) % len(keys)]
        if not self.store.corrupt(key):   # pragma: no cover - key held
            return False
        self.fault_stats.store_corruptions += 1
        self.ledger.mark_untrusted(key)
        # Jobs that trusted the entry must rescan: demote the key for
        # every job that has not consumed it into an inference yet.
        for job in self._jobs_in_msa_scope():
            for work in job.chains:
                if work.key == key and work.status == ChainStatus.DURABLE:
                    work.status = ChainStatus.PENDING
                    work.store_hit = False
        self.probe.fault_instant(
            "store_corruption", None, self._now, key=key
        )
        return True

    def _jobs_in_msa_scope(self) -> List[ClusterJob]:
        """Jobs whose features may still be read from the store: queued
        jobs plus running jobs still in their MSA phase."""
        jobs: List[ClusterJob] = [
            entry[2] for entry in self.queue._heap
        ]
        for node in self.nodes:
            if node.job is not None and node.node_id in self._scan_state:
                jobs.append(node.job)
        return jobs

    def _slow_node(self, event: FaultEvent) -> bool:
        node = select_crash_target(self.nodes, event)
        if node is None or event.seconds <= 0 or event.magnitude <= 1.0:
            return False
        node.health.slow_until = self._now + event.seconds
        node.health.slow_factor = event.magnitude
        self.probe.fault_instant(
            "slow_node", node.node_id, self._now,
            factor=round(event.magnitude, 6),
            seconds=round(event.seconds, 6),
        )
        return True

    # -- autoscaling -----------------------------------------------------

    def _cluster_view(self) -> ClusterView:
        pools: Dict[str, PoolView] = {}
        for spec in self.config.pools:
            mine = [
                n for n in self.nodes
                if n.pool.name == spec.name and n.alive
            ]
            pools[spec.name] = PoolView(
                spec=spec,
                total_nodes=len(mine),
                busy_nodes=sum(1 for n in mine if n.health.busy),
                idle_nodes=sum(1 for n in mine if n.accepts_jobs),
                booting_nodes=sum(
                    1 for n in mine if n.state is NodeState.BOOTING
                ),
            )
        depths = self.queue.depths()
        return ClusterView(
            now=self._now,
            queue_depth=len(self.queue),
            high_priority_depth=depths.get(0, 0),
            pools=pools,
        )

    def _autoscale_tick(self) -> None:
        view = self._cluster_view()
        deltas = self.autoscaler.decide(view)
        for spec in self.config.pools:
            delta = deltas.get(spec.name, 0)
            if delta > 0:
                for _ in range(delta):
                    self._boot_node(spec, at=self._now)
                self.probe.autoscale(self._now, spec.name, delta)
            elif delta < 0:
                idle = sorted(
                    (
                        n for n in self.nodes
                        if n.pool.name == spec.name and n.accepts_jobs
                    ),
                    key=lambda n: -n.node_id,   # newest first
                )
                for node in idle[:-delta]:
                    self._terminate_node(node, "scaled-in")
                    self.scale_in_terminations += 1
                self.probe.autoscale(self._now, spec.name, delta)
        if self._outstanding > 0:
            self._events.push(
                _EV_AUTOSCALE,
                self._now + AUTOSCALE_INTERVAL_SECONDS,
                None,
            )
        self._dispatch()
