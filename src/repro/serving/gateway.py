"""The multi-worker serving gateway: a discrete-event AF3 front end.

The paper's Section VI argues that persistent, warm serving is the main
throughput lever for AF3; ParaFold-style systems add a second one by
decoupling the CPU-bound MSA phase from the GPU-bound inference phase
and scheduling them on independent worker pools; AF_Cache adds a third
by caching MSA results across a high-traffic request stream.  This
module composes all three over the existing simulators:

* arrivals (Poisson or trace-driven) feed a bounded admission queue —
  load past the bound is shed instead of growing latency without limit;
* an MSA worker pool serves cache misses, with requests for identical
  chain content coalesced onto one in-flight computation;
* a dynamic batcher coalesces same-bucket requests (max batch size,
  max-wait deadline) for the warm GPU workers, each of which is a
  :class:`~repro.core.server.InferenceServer` with its own warm state;
* per-attempt timeouts with bounded exponential-backoff retries bound
  tail latency, and batches that exceed device memory split instead of
  killing the worker.

A :class:`~repro.faults.plan.FaultPlan` threads failure domains through
the same event heap: workers crash (losing warm state — the restarted
worker pays the paper's cold-start again), nodes get preempted or run
slow, co-located allocations spike device memory, and database streams
stall or corrupt mid-scan.  The recovery machinery answers each one:
health-tracked restarts with re-warm cost accounting, MSA scan
checkpoints that resume from the last completed DB shard, per-worker
circuit breakers that eject repeatedly-failing workers and probe them
back in, and an optional reduced-depth degraded fallback when retries
are exhausted.

Everything runs in simulated time on one deterministic event heap, so
a seeded request stream — with or without a fault plan — reproduces
byte-identical reports.

The loop also narrates itself: every lifecycle transition (admission,
queue entry/exit, scan start/finish/abort, batch dispatch, crash,
restart ...) is reported to a
:class:`~repro.observability.instrument.GatewayProbe`.  The default
probe is a shared no-op, so observability is strictly additive — a
run with no probe attached produces the exact bytes it always did —
while a :class:`~repro.observability.instrument.SpanProbe` turns the
same narration into exportable per-request span timelines.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..buckets.compile_cache import SharedCompileCache
from ..buckets.optimizer import waste_report
from ..core.server import DEFAULT_BUCKETS, InferenceServer
from ..events import EventQueue, fault_handler
from ..faults.plan import FaultEvent, FaultKind, FaultPlan, GPU_DOMAIN
from ..faults.recovery import (
    CheckpointStore,
    CircuitBreaker,
    FaultStats,
    MsaCheckpoint,
    WorkerHealth,
)
from ..hardware.cpu import CpuSimulator
from ..hardware.gpu import GpuOutOfMemoryError
from ..hardware.platform import Platform
from ..model.config import ModelConfig
from ..msa.database import SCAN_SHARDS
from ..observability.instrument import NULL_PROBE, GatewayProbe
from ..sequences.sample import InputSample
from ..store.coalesce import InflightLeases
from ..store.feature_store import FeatureStore
from ..trace import OpRecord, Resource, WorkloadTrace
from .batching import DynamicBatcher
from .pool import WorkerPool
from .cache import (
    CachedMsa,
    MsaResultCache,
    chain_content_key,
    chain_store_payload,
)
from .metrics import ServingReport, build_report
from .queueing import BoundedFifo, RequestState, ServingRequest


@dataclasses.dataclass(frozen=True)
class MsaCost:
    """Service time and resulting depth of one MSA-phase execution."""

    seconds: float
    depth: int


class AnalyticMsaCostModel:
    """Closed-form MSA phase cost, calibrated to the paper's shape.

    Protein chains pay jackhmmer-style superlinear scan cost; RNA
    chains pay the far heavier nhmmer cost (the paper's Fig 2/4: RNA
    search dominates mixed inputs).  Costs scale with the platform's
    single-thread instruction rate and sublinearly with the worker's
    thread count — the same saturation the thread-sweep experiments
    show.  Deterministic and cheap: a 200-request stream costs 200
    dictionary lookups, not 200 profile-HMM searches.
    """

    #: Instruction-count coefficients (chain length in residues).
    PROTEIN_COEFF = 6.0e9
    PROTEIN_EXP = 1.2
    RNA_COEFF = 8.0e9
    RNA_EXP = 1.35
    OVERHEAD_INSTRUCTIONS = 1.2e11   # database streaming / setup
    THREAD_EXP = 0.75                # sublinear thread scaling

    def __init__(self, platform: Platform, threads: int = 8) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.platform = platform
        self.threads = threads
        self._cache: Dict[str, MsaCost] = {}

    def cost(self, sample: InputSample) -> MsaCost:
        """Scan seconds + MSA depth for ``sample``, cached per chain
        content (identical assemblies price identically)."""
        key = chain_content_key(sample.assembly)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        instructions = self.OVERHEAD_INSTRUCTIONS
        for chain in sample.msa_queries():
            if chain.molecule_type.value == "rna":
                instructions += self.RNA_COEFF * chain.length ** self.RNA_EXP
            else:
                instructions += (
                    self.PROTEIN_COEFF * chain.length ** self.PROTEIN_EXP
                )
        rate = (
            self.platform.host_single_thread_ips
            * self.threads ** self.THREAD_EXP
        )
        depth = min(254, 32 + sample.assembly.total_residues // 6)
        result = MsaCost(seconds=instructions / rate, depth=depth)
        self._cache[key] = result
        return result


class FunctionalMsaCostModel:
    """MSA cost from the functional engine + CPU simulator.

    Runs the real profile-HMM searches once per distinct input and
    replays the resulting trace on the platform's CPU model — full
    fidelity, at the price of actually doing the searches.  Use with a
    small :class:`~repro.msa.engine.MsaEngineConfig` in tests.
    """

    def __init__(self, platform: Platform, engine, threads: int = 8) -> None:
        self.platform = platform
        self.engine = engine
        self.threads = threads
        self._cpu_sim = CpuSimulator(platform.cpu)
        self._cache: Dict[str, MsaCost] = {}

    def cost(self, sample: InputSample) -> MsaCost:
        """Scan seconds + MSA depth from one real engine run per
        distinct chain content, replayed on the CPU simulator."""
        key = chain_content_key(sample.assembly)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        phase = self.engine.run(sample)
        report = self._cpu_sim.simulate(phase.trace, self.threads)
        result = MsaCost(
            seconds=report.seconds,
            depth=phase.features.max_msa_depth,
        )
        self._cache[key] = result
        return result


@dataclasses.dataclass(frozen=True)
class GatewayConfig:
    """All gateway knobs in one place (defaults favour throughput)."""

    num_gpu_workers: int = 4
    num_msa_workers: int = 4
    msa_threads_per_worker: int = 8
    max_batch: int = 4
    max_wait_seconds: float = 120.0   # batch-coalescing deadline
    queue_limit: int = 512            # admission bound (queued requests)
    timeout_seconds: Optional[float] = None   # per-attempt queue timeout
    max_retries: int = 2
    retry_backoff_seconds: float = 30.0       # doubles per attempt
    allow_unified_memory: bool = True
    msa_cache_entries: int = 128
    buckets: Tuple[int, ...] = DEFAULT_BUCKETS
    # -- fault-recovery policy (only exercised under a FaultPlan,
    #    except degraded_fallback which also covers plain timeouts) ----
    restart_seconds: float = 180.0    # crash -> process back up
    breaker_failure_threshold: int = 0    # consecutive failures to eject
    #                                     # a worker; 0 disables breaking
    breaker_cooldown_seconds: float = 1800.0
    degraded_fallback: bool = False   # serve reduced depth, don't error
    degraded_msa_depth: int = 16
    msa_scan_shards: int = SCAN_SHARDS    # checkpoint granularity
    # -- attention schedule for every GPU worker ("chunked" default,
    #    "resident", or a memory-planner "tiled" block); changes the
    #    per-batch memory demand and therefore the OOM/split admission
    #    path (docs/memory_planner.md) ------------------------------
    attention: str = "chunked"
    attention_block: Optional[int] = None
    # -- shared XLA compile cache across GPU workers ("none" keeps the
    #    historical per-worker compilation; "shared" models one
    #    --jax_compilation_cache_dir every worker mounts, so only the
    #    first compile per bucket pays full price; docs/bucketing.md) --
    compile_cache: str = "none"

    def __post_init__(self) -> None:
        if self.num_gpu_workers < 1 or self.num_msa_workers < 1:
            raise ValueError("worker counts must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive when set")
        if self.restart_seconds <= 0:
            raise ValueError("restart_seconds must be > 0")
        if self.breaker_failure_threshold < 0:
            raise ValueError("breaker_failure_threshold must be >= 0")
        if self.breaker_cooldown_seconds < 0:
            raise ValueError("breaker_cooldown_seconds must be >= 0")
        if self.degraded_msa_depth < 1:
            raise ValueError("degraded_msa_depth must be >= 1")
        if self.msa_scan_shards < 1:
            raise ValueError("msa_scan_shards must be >= 1")
        if self.attention not in ("chunked", "resident", "tiled"):
            raise ValueError(
                "attention must be 'chunked', 'resident' or 'tiled', "
                f"got {self.attention!r}"
            )
        if self.attention_block is not None and self.attention_block < 1:
            raise ValueError("attention_block must be >= 1 (or None)")
        if self.compile_cache not in ("none", "shared"):
            raise ValueError(
                "compile_cache must be 'none' or 'shared', "
                f"got {self.compile_cache!r}"
            )
        if len(self.buckets) < 1 or any(b < 1 for b in self.buckets):
            raise ValueError(f"buckets must be positive, got {self.buckets}")
        if len(set(self.buckets)) != len(self.buckets):
            raise ValueError(f"buckets must be unique, got {self.buckets}")


# Event kinds, in deterministic tie-break order at equal timestamps:
# completions free resources before recoveries return workers, both
# before faults strike, and all of those before new work claims
# anything.  (Fault-free runs only ever see the original five kinds,
# whose relative order is unchanged.)
_EV_GPU_DONE = 0
_EV_MSA_DONE = 1
_EV_WORKER_UP = 2
_EV_FAULT = 3
_EV_ARRIVAL = 4
_EV_RETRY = 5
_EV_TIMEOUT = 6
_EV_BATCH_DEADLINE = 7


class ServingGateway:
    """Simulates a warm, batched, multi-worker AF3 serving deployment."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[GatewayConfig] = None,
        msa_cost_model=None,
        model_config: Optional[ModelConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe: Optional[GatewayProbe] = None,
        store: Optional[FeatureStore] = None,
    ) -> None:
        self.platform = platform
        self.config = config or GatewayConfig()
        self.probe = probe or NULL_PROBE
        #: Optional durable feature store the gateway reads through
        #: *after* the in-memory LRU misses.  A warm store turns the
        #: MSA phase into a metadata read; an empty one is transparent.
        self.store = store
        self.msa_cost_model = msa_cost_model or AnalyticMsaCostModel(
            platform, threads=self.config.msa_threads_per_worker
        )
        self.fault_plan = fault_plan
        #: One fleet-shared executable cache across every GPU worker
        #: when enabled (the --jax_compilation_cache_dir model); it
        #: survives worker crashes/restarts by construction because it
        #: lives on the gateway, not the worker.
        self.compile_cache = (
            SharedCompileCache() if self.config.compile_cache == "shared"
            else None
        )
        self.workers: List[InferenceServer] = [
            InferenceServer(
                platform, model_config, self.config.buckets,
                attention=self.config.attention,
                attention_block=self.config.attention_block,
                compile_cache=self.compile_cache,
            )
            for _ in range(self.config.num_gpu_workers)
        ]

    # -- pool views -----------------------------------------------------

    @property
    def gpu_health(self) -> List[WorkerHealth]:
        """Per-GPU-worker health ledgers (chaos invariants read these)."""
        return self.gpu_pool.health

    @property
    def msa_health(self) -> List[WorkerHealth]:
        """Per-MSA-worker health ledgers (chaos invariants read these)."""
        return self.msa_pool.health

    # -- simulation -----------------------------------------------------

    def run(self, requests: Sequence[ServingRequest]) -> ServingReport:
        """Simulate the stream to completion and report.

        Resets all per-run state, seeds the heap with arrivals (and the
        fault plan's events, if any), then drains it: each pop advances
        the simulated clock and dispatches to the matching handler.
        Ties break on the fixed event-kind order, so reruns of the same
        seeded stream are byte-identical.
        """
        cfg = self.config
        events = self._events = EventQueue()
        self._now = 0.0
        self._cache = MsaResultCache(cfg.msa_cache_entries)
        self._batcher = DynamicBatcher(cfg.max_batch, cfg.max_wait_seconds)
        self._msa_queue = BoundedFifo()
        self._inflight: Dict[str, ServingRequest] = {}   # key -> leader
        self._waiters: Dict[str, List[ServingRequest]] = {}
        self._waiting_count = 0
        self._batch_sizes: List[int] = []
        self._retries = 0
        self._retries_exhausted = 0
        self._oom_events = 0
        self._coalesced = 0
        # -- feature-store state ---------------------------------------
        self._leases = InflightLeases()   # chain key -> in-flight leader
        self._store_hits = 0              # requests served from the store
        self._store_misses = 0            # requests that missed it
        self._store_coalesced = 0         # chain-level lease subscriptions
        #: Store counters at run start: the report shows this run's
        #: deltas, so a persistent store does not leak history between
        #: seeded runs.
        self._store_base = (
            dict(self.store.counters()) if self.store is not None else {}
        )
        # -- fault-injection state -------------------------------------
        self.fault_stats = FaultStats()
        self.checkpoints = CheckpointStore()
        #: Worker pools: health ledgers, sorted free lists, in-flight
        #: job payloads and busy-second accounting all live on the
        #: shared :class:`~repro.serving.pool.WorkerPool` abstraction
        #: (the MSA pool's payloads are ``[request, base_shards,
        #: planned_seconds, corrupted]`` lists, the GPU pool's are the
        #: executing batches).
        self.gpu_pool = WorkerPool(cfg.num_gpu_workers, self._make_breaker)
        self.msa_pool = WorkerPool(cfg.num_msa_workers, self._make_breaker)
        self.probe.attach(cfg.num_gpu_workers, cfg.num_msa_workers)

        for request in requests:
            events.push(_EV_ARRIVAL, request.arrival_seconds, request)
        events.inject(self.fault_plan, _EV_FAULT, self.fault_stats)
        handlers = {
            _EV_GPU_DONE: lambda p: self._gpu_done(*p),
            _EV_MSA_DONE: lambda p: self._msa_done(*p),
            _EV_WORKER_UP: lambda p: self._worker_up(*p),
            _EV_FAULT: fault_handler(self._on_fault, self.fault_stats),
            _EV_ARRIVAL: self._admit,
            _EV_RETRY: self._admit,
            _EV_TIMEOUT: lambda p: self._timeout(*p),
            _EV_BATCH_DEADLINE: self._batch_deadline,
        }
        for self._now, kind, payload in events:
            handlers[kind](payload)
        self.monotonic_violations = events.monotonic_violations
        last_time = events.horizon

        self.probe.run_finished(last_time)
        if self.store is not None:
            self.store.sync()   # flush read-recency to the disk index
        return build_report(
            platform_name=self.platform.name,
            requests=requests,
            num_gpu_workers=cfg.num_gpu_workers,
            num_msa_workers=cfg.num_msa_workers,
            duration_seconds=last_time,
            gpu_busy_seconds=self.gpu_pool.busy_seconds,
            msa_busy_seconds=self.msa_pool.busy_seconds,
            batch_sizes=self._batch_sizes,
            max_batch=cfg.max_batch,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
            coalesced_msa=self._coalesced,
            retries=self._retries,
            retries_exhausted=self._retries_exhausted,
            oom_events=self._oom_events,
            fault_summary=self._fault_summary(),
            store_summary=self._store_summary(),
            bucket_waste_summary=self._bucket_waste_summary(requests),
            compile_cache_summary=self._compile_cache_summary(),
        )

    def _make_breaker(self) -> CircuitBreaker:
        """One per-worker circuit breaker from the configured knobs."""
        return CircuitBreaker(
            self.config.breaker_failure_threshold,
            self.config.breaker_cooldown_seconds,
        )

    def _fault_summary(self) -> Optional[Dict[str, object]]:
        """The report's ``faults`` section: plan metadata + FaultStats
        with the checkpoint/cache/breaker counters folded in.  None for
        fault-free runs, keeping the historical summary schema."""
        if self.fault_plan is None:
            return None
        summary: Dict[str, object] = {"plan": self.fault_plan.kind_counts()}
        stats = self.fault_stats
        stats.checkpoints_saved = self.checkpoints.saved
        stats.checkpoint_resumes = self.checkpoints.resumed
        stats.checkpoint_shards_saved = self.checkpoints.shards_saved
        stats.cache_invalidations = self._cache.invalidations
        stats.breaker_opens = sum(
            h.breaker.opens for h in self.gpu_health + self.msa_health
        )
        stats.breaker_half_opens = sum(
            h.breaker.half_opens for h in self.gpu_health + self.msa_health
        )
        stats.breaker_closes = sum(
            h.breaker.closes for h in self.gpu_health + self.msa_health
        )
        summary.update(stats.as_dict())
        return summary

    def _store_summary(self) -> Optional[Dict[str, object]]:
        """The report's ``store`` section: this run's request-level
        hit/miss/coalesce counts plus the store's own operation deltas
        (chain-level reads, puts, evictions, corruption detections) and
        end-of-run occupancy.  None when no store is attached, keeping
        the historical summary schema."""
        if self.store is None:
            return None
        delta = {
            name: value - self._store_base.get(name, 0)
            for name, value in self.store.counters().items()
        }
        total = self._store_hits + self._store_misses
        return OrderedDict(
            [
                ("hits", self._store_hits),
                ("misses", self._store_misses),
                ("hit_rate",
                 round(self._store_hits / total, 9) if total else 0.0),
                ("coalesced", self._store_coalesced),
                ("chain_hits", delta["hits"]),
                ("chain_misses", delta["misses"]),
                ("puts", delta["puts"]),
                ("evictions", delta["evictions"]),
                ("invalidations", delta["invalidations"]),
                ("degraded_rejected", delta["degraded_rejected"]),
                ("corruption_detected", delta["corruption_detected"]),
                ("leases_acquired", self._leases.acquired),
                ("leases_contended", self._leases.contended),
                ("entries", len(self.store)),
                ("total_bytes", self.store.total_bytes),
            ]
        )

    def _bucket_waste_summary(
        self, requests: Sequence[ServingRequest]
    ) -> Optional[Dict[str, object]]:
        """The report's ``bucket_waste`` section: padded-token
        accounting of the configured bucket list over the submitted
        stream.  None on the stock ``DEFAULT_BUCKETS``, keeping the
        historical summary schema byte-identical."""
        if tuple(self.config.buckets) == DEFAULT_BUCKETS:
            return None
        lengths = [r.num_tokens for r in requests]
        return waste_report(lengths, self.config.buckets).summary()

    def _compile_cache_summary(self) -> Optional[Dict[str, object]]:
        """The report's ``compile_cache`` section: shared-cache
        counters across all GPU workers.  None in ``"none"`` mode,
        keeping the historical summary schema byte-identical."""
        if self.compile_cache is None:
            return None
        return self.compile_cache.summary()

    def _batch_deadline(self, request: ServingRequest) -> None:
        """A batch's coalescing wait expired: dispatch if the request
        is still waiting in the batcher."""
        if request.state is RequestState.QUEUED_BATCH:
            self._dispatch_gpu()

    def _queued_depth(self) -> int:
        """Total backlog admission control sheds against: MSA queue +
        coalesced waiters + the dynamic batcher."""
        return (
            len(self._msa_queue) + self._waiting_count
            + self._batcher.depth()
        )

    # -- admission and the MSA stage ------------------------------------

    def _admit(self, request: ServingRequest) -> None:
        """Handle an arrival or retry: shed if over the queue limit,
        else route by MSA availability — cache hit straight to the
        batcher, in-flight duplicate coalesces as a waiter, otherwise
        the request leads a new scan and queues for an MSA worker."""
        cfg, now = self.config, self._now
        if request.attempts == 0:
            self.probe.request_arrived(request, now)
        else:
            self.probe.retry_started(request, now)
        if self._queued_depth() >= cfg.queue_limit:
            request.state = RequestState.SHED
            request.failure_reason = "admission queue full"
            self.probe.request_shed(request, now)
            return
        request.attempts += 1
        request.admitted_at = now
        request.stage_entered_at = now
        if cfg.timeout_seconds is not None:
            self._events.push(
                _EV_TIMEOUT, now + cfg.timeout_seconds,
                (request, request.attempts),
            )
        self._route(request)

    def _route(self, request: ServingRequest) -> None:
        """Route one admitted (or re-released) request to its cheapest
        source of MSA features, in priority order: in-memory cache hit,
        same-key in-flight coalesce, disk-store hit, chain-level lease
        subscription, and finally leading a new scan.  Re-entrant: a
        store waiter re-routes here when its leader finishes."""
        now = self._now
        key = request.content_key()
        cached = self._cache.lookup(key)
        if cached is not None:
            request.msa_cache_hit = True
            request.msa_depth = cached.msa_depth
            self.probe.cache_hit(request, now)
            self._to_batcher(request)
            return
        if key in self._inflight:
            request.state = RequestState.WAIT_MSA_SHARED
            request.msa_coalesced = True
            request.waiting_on_key = key
            self._waiters.setdefault(key, []).append(request)
            self._waiting_count += 1
            self._coalesced += 1
            self.probe.msa_wait_shared(request, now)
            return
        chain_keys = request.chain_keys()
        if self.store is not None and chain_keys:
            missing = [
                k for k in chain_keys if self.store.get(k) is None
            ]
            if not missing:
                # Every chain's features are durably stored: the MSA
                # phase collapses to a metadata read.  Depth comes from
                # the cost model (cached per content key) so it is
                # bit-identical to what a fresh scan would report, and
                # the in-memory LRU is warmed for same-key followers.
                request.msa_store_hit = True
                self._store_hits += 1
                cost = self.msa_cost_model.cost(request.sample)
                request.msa_depth = cost.depth
                self._cache.insert(
                    key, CachedMsa(cost.seconds, cost.depth, degraded=False)
                )
                self.probe.store_hit(request, now)
                self._to_batcher(request)
                return
            self._store_misses += 1
            self.probe.store_miss(request, now)
            owner = next(
                (o for o in map(self._leases.owner_of, missing)
                 if o is not None),
                None,
            )
            if owner is not None:
                # Another key's leader is already computing (some of)
                # the missing chains: subscribe instead of duplicating
                # the search, and re-route when that leader publishes.
                request.state = RequestState.WAIT_MSA_SHARED
                request.msa_coalesced = True
                request.store_coalesced = True
                request.waiting_on_key = owner
                self._waiters.setdefault(owner, []).append(request)
                self._waiting_count += 1
                self._coalesced += 1
                self._store_coalesced += 1
                self.probe.store_wait_shared(request, now, owner)
                return
        request.state = RequestState.QUEUED_MSA
        request.waiting_on_key = None
        self._inflight[key] = request
        if self.store is not None and chain_keys:
            self._leases.acquire(chain_keys, key)
        self._msa_queue.push(request)
        self.probe.msa_queued(request, now)
        self._assign_msa()

    def _assign_msa(self) -> None:
        """Pair queued scans with free MSA workers.  Each assignment
        prices the scan (resuming from any checkpoint, applying
        slow-node factors and pending stalls) and schedules its
        completion event under the worker's current job token."""
        while self.msa_pool.has_free:
            request = self._msa_queue.pop_valid(
                lambda r: r.state is RequestState.QUEUED_MSA
            )
            if request is None:
                return
            worker = self.msa_pool.take()
            health = self.msa_pool.health[worker]
            request.msa_wait += self._now - request.stage_entered_at
            request.state = RequestState.IN_MSA
            cost = self.msa_cost_model.cost(request.sample)
            key = request.content_key()
            base_shards = 0
            checkpoint = self.checkpoints.take(key)
            if checkpoint is not None:
                base_shards = checkpoint.completed_shards
                request.resumed_shards += base_shards
            remaining = 1.0 - base_shards / self.config.msa_scan_shards
            stall = health.take_stall()
            if stall > 0:
                request.msa_stall_wait += stall
            planned = (
                cost.seconds * remaining * health.active_slowdown(self._now)
                + stall
            )
            request.msa_seconds = planned
            request.msa_depth = cost.depth
            self.probe.msa_started(
                request, worker, self._now, base_shards, planned, stall
            )
            health.dispatches += 1
            token = self.msa_pool.start_job(
                worker, [request, base_shards, planned, False],
                self._now, planned,
            )
            self._events.push(
                _EV_MSA_DONE, self._now + planned,
                (worker, request, token),
            )

    def _msa_done(
        self, worker: int, request: ServingRequest, token: int
    ) -> None:
        """An MSA scan finished: cache the result, release the leader
        and every coalesced waiter to the batcher, and free the worker.
        Corrupt streams instead invalidate cache/checkpoints and rerun;
        stale tokens (worker died mid-scan) are ignored outright."""
        health = self.msa_pool.health[worker]
        if not health.busy or health.job_token != token:
            return   # stale completion: the worker crashed mid-scan
        job = self.msa_pool.finish_job(worker)
        corrupted = bool(job and job[3])
        key = request.content_key()
        self.probe.msa_finished(request, worker, self._now, corrupted)
        if corrupted:
            # The scan finished but its stream was corrupt: nothing it
            # produced can be trusted — invalidate cached/checkpointed
            # state for this content and rerun from a clean stream.
            self._cache.invalidate(key)
            self.checkpoints.invalidate(key)
            health.breaker.record_failure()
            request.fault_failures += 1
            self.fault_stats.fault_retries += 1
            request.state = RequestState.QUEUED_MSA
            request.stage_entered_at = self._now
            self._msa_queue.push(request)
            self.probe.msa_queued(request, self._now)
        else:
            health.breaker.record_success()
            cost = self.msa_cost_model.cost(request.sample)
            self._cache.insert(
                key,
                CachedMsa(cost.seconds, cost.depth, degraded=False),
            )
            if self.store is not None:
                self._publish_chains(request)
                self._leases.release(key)
            self._inflight.pop(key, None)
            self._to_batcher(request)
            for waiter in self._waiters.pop(key, []):
                self._waiting_count -= 1
                waiter.msa_wait += self._now - waiter.stage_entered_at
                waiter.waiting_on_key = None
                if waiter.store_coalesced:
                    # A chain-level subscriber: the leader's chains are
                    # in the store now, but the waiter's own assembly
                    # may still need others — send it back through the
                    # router (store hit, new subscription, or its own
                    # scan).
                    waiter.stage_entered_at = self._now
                    self.probe.store_waiter_released(waiter, self._now)
                    self._route(waiter)
                else:
                    waiter.msa_depth = request.msa_depth
                    self.probe.msa_waiter_released(waiter, self._now)
                    self._to_batcher(waiter)
        self.msa_pool.release(worker)
        self._assign_msa()

    def _publish_chains(self, request: ServingRequest) -> None:
        """Persist the finished scan's per-chain features to the store.

        Payloads are pure functions of chain content, so a re-publish
        of an unchanged chain rewrites identical bytes (no invalidation
        counted) and an offline precompute fill is bit-identical to a
        gateway fill.
        """
        chains = request.sample.assembly.msa_chains()
        for chain_key, chain in zip(request.chain_keys(), chains):
            self.store.put(chain_key, chain_store_payload(chain))

    # -- the GPU stage --------------------------------------------------

    def _to_batcher(self, request: ServingRequest) -> None:
        """Queue the request in its token bucket and (re)arm the
        batcher's max-wait deadline for it."""
        request.state = RequestState.QUEUED_BATCH
        request.stage_entered_at = self._now
        bucket = request.bucket(self.config.buckets)
        self.probe.batch_queued(request, self._now)
        self._batcher.add(bucket, request, self._now)
        if self.config.max_wait_seconds > 0:
            self._events.push(
                _EV_BATCH_DEADLINE,
                self._now + self.config.max_wait_seconds,
                request,
            )
        self._dispatch_gpu()

    def _dispatch_gpu(self) -> None:
        """Pair ready batches with free GPU workers.  A dispatch that
        OOMs splits the batch (or fails a singleton) and may open the
        worker's breaker; a successful one charges any post-crash
        re-warm cost and schedules the batch completion under the
        worker's job token."""
        while self.gpu_pool.has_free:
            popped = self._batcher.pop_ready(self._now)
            if popped is None:
                return
            bucket, batch = popped
            worker_idx = self.gpu_pool.take()
            health = self.gpu_pool.health[worker_idx]
            engine = self.workers[worker_idx]
            for member in batch:
                member.batch_wait += self._now - member.stage_entered_at
                member.state = RequestState.IN_GPU
            depth = max(m.msa_depth for m in batch)
            health.dispatches += 1
            try:
                result = engine.serve_batch(
                    [m.num_tokens for m in batch],
                    msa_depth=depth,
                    allow_unified_memory=self.config.allow_unified_memory,
                    memory_pressure_bytes=health.active_pressure(self._now),
                    slowdown=health.active_slowdown(self._now),
                )
            except GpuOutOfMemoryError:
                self._oom_events += 1
                health.aborts += 1
                self.probe.batch_oom(worker_idx, batch, self._now)
                if health.active_pressure(self._now) > 0:
                    self.fault_stats.oom_spike_ooms += 1
                newly_open = health.breaker.record_failure()
                if health.breaker.allows_dispatch:
                    self.gpu_pool.release(worker_idx)
                elif newly_open:
                    self.probe.breaker_opened(
                        GPU_DOMAIN, worker_idx, self._now
                    )
                    self._events.push(
                        _EV_WORKER_UP,
                        self._now + health.breaker.cooldown_seconds,
                        (GPU_DOMAIN, worker_idx, "probe"),
                    )
                self._handle_oom(batch)
                continue
            rewarm = 0.0
            if health.needs_rewarm:
                rewarm = result.init_seconds + result.compile_seconds
                self.fault_stats.rewarm_events += 1
                self.fault_stats.rewarm_seconds += rewarm
                for member in batch:
                    member.rewarm_seconds += rewarm
                health.needs_rewarm = False
            self.probe.batch_started(
                worker_idx, batch, self._now, bucket,
                result.latency_seconds, rewarm,
            )
            self._batch_sizes.append(len(batch))
            for member in batch:
                member.gpu_seconds = result.latency_seconds
                member.batch_size = len(batch)
            token = self.gpu_pool.start_job(
                worker_idx, list(batch), self._now, result.latency_seconds
            )
            self._events.push(
                _EV_GPU_DONE,
                self._now + result.latency_seconds,
                (worker_idx, batch, token),
            )

    def _handle_oom(self, batch: List[ServingRequest]) -> None:
        """A batch exceeded device memory: split it, or fail a singleton."""
        if len(batch) == 1:
            batch[0].state = RequestState.FAILED_OOM
            batch[0].completion_seconds = None
            batch[0].failure_reason = "single request exceeds device memory"
            self.probe.request_failed(
                batch[0], self._now, batch[0].failure_reason
            )
            return
        bucket = max(m.bucket(self.config.buckets) for m in batch)
        half = len(batch) // 2
        for part in (batch[:half], batch[half:]):
            for member in part:
                member.state = RequestState.QUEUED_BATCH
                member.stage_entered_at = self._now
                self.probe.batch_queued(member, self._now)
            self._batcher.add_forced(bucket, part)

    def _gpu_done(
        self, worker_idx: int, batch: List[ServingRequest], token: int
    ) -> None:
        """A GPU batch finished: complete every member, free the
        worker, and pull the next batch.  Stale tokens (worker died
        mid-batch; members were already requeued) are ignored."""
        health = self.gpu_pool.health[worker_idx]
        if not health.busy or health.job_token != token:
            return   # stale completion: the worker crashed mid-batch
        self.gpu_pool.finish_job(worker_idx)
        health.breaker.record_success()
        self.probe.batch_finished(worker_idx, batch, self._now)
        for member in batch:
            member.state = RequestState.DONE
            member.completion_seconds = self._now
            self.probe.request_done(member, self._now)
        self.gpu_pool.release(worker_idx)
        self._dispatch_gpu()

    # -- robustness -----------------------------------------------------

    def _timeout(self, request: ServingRequest, attempt: int) -> None:
        """Per-attempt queue timeout: only waiting states are preempted."""
        if request.attempts != attempt or not request.state.waiting:
            return
        cfg, now = self.config, self._now
        key = request.content_key()
        if request.state is RequestState.QUEUED_MSA:
            self._msa_queue.note_removed()
            self._relinquish_leadership(request, key)
        elif request.state is RequestState.WAIT_MSA_SHARED:
            # Store-coalesced waiters queue under their *leader's* key,
            # not their own — waiting_on_key remembers which.
            self._waiters[request.waiting_on_key or key].remove(request)
            request.waiting_on_key = None
            self._waiting_count -= 1
        elif request.state is RequestState.QUEUED_BATCH:
            self._batcher.remove(request)
        self.probe.attempt_timed_out(request, now)
        if request.attempts >= 1 + cfg.max_retries:
            self._retries_exhausted += 1
            if cfg.degraded_fallback:
                self._degrade(request, "retries exhausted")
                return
            request.state = RequestState.TIMED_OUT
            request.failure_reason = "retries exhausted"
            self.probe.request_timed_out(request, now)
            return
        request.state = RequestState.CREATED
        backoff = cfg.retry_backoff_seconds * 2 ** (request.attempts - 1)
        request.backoff_wait += backoff
        self._retries += 1
        self.probe.backoff_started(request, now, backoff)
        self._events.push(_EV_RETRY, now + backoff, request)

    def _degrade(self, request: ServingRequest, why: str) -> None:
        """Serve a reduced-depth result instead of erroring.

        The request skips (or abandons) the full MSA phase and goes to
        the GPU with a shallow ``degraded_msa_depth`` — the answer is
        worse, never silently so: the request is flagged, counted
        separately from full-quality completions, and its result is
        barred from the MSA cache.
        """
        request.degraded = True
        request.failure_reason = f"degraded fallback: {why}"
        request.msa_depth = self.config.degraded_msa_depth
        self.fault_stats.degraded_served += 1
        self.probe.degraded_fallback(request, self._now, why)
        self._to_batcher(request)

    def _relinquish_leadership(self, request: ServingRequest, key: str) -> None:
        """A queued MSA leader left; promote a waiter or drop the key.

        Only a *same-key* waiter can inherit the scan (a chain-level
        subscriber's assembly is different content); with no successor
        the key's leases are released and any store subscribers are
        re-routed — one of them becomes a leader in its own right.
        """
        if self._inflight.get(key) is not request:
            return
        waiters = self._waiters.get(key, [])
        successor = next(
            (w for w in waiters if not w.store_coalesced), None
        )
        if successor is not None:
            waiters.remove(successor)
            self._waiting_count -= 1
            successor.state = RequestState.QUEUED_MSA
            successor.waiting_on_key = None
            self._inflight[key] = successor
            self._msa_queue.push(successor)
            self.probe.msa_leader_promoted(successor, self._now)
            self._assign_msa()
        else:
            del self._inflight[key]
            orphans = self._waiters.pop(key, [])
            if self.store is not None:
                self._leases.release(key)
            for waiter in orphans:
                self._waiting_count -= 1
                waiter.msa_wait += self._now - waiter.stage_entered_at
                waiter.stage_entered_at = self._now
                waiter.waiting_on_key = None
                self.probe.store_waiter_released(waiter, self._now)
                self._route(waiter)

    # -- fault injection and recovery -----------------------------------

    def _on_fault(self, event: FaultEvent) -> bool:
        """Dispatch one planned fault to its handler; True when it
        changed state (applied), False when it hit a dead or idle
        target (noop)."""
        kind = event.kind
        if kind is FaultKind.WORKER_CRASH:
            return self._take_down(event, restart_after=None)
        if kind is FaultKind.PREEMPTION:
            return self._take_down(event, restart_after=event.seconds)
        if kind is FaultKind.GPU_OOM_SPIKE:
            return self._oom_spike(event)
        if kind is FaultKind.DB_READ_STALL:
            return self._db_stall(event)
        if kind is FaultKind.DB_CORRUPTION:
            return self._db_corruption(event)
        if kind is FaultKind.SLOW_NODE:
            return self._slow_node(event)
        if kind is FaultKind.STORE_CORRUPTION:
            return self._store_corruption(event)
        if kind is FaultKind.PREEMPTION_NOTICE:
            return self._preemption_notice(event)
        return False   # pragma: no cover - exhaustive over FaultKind

    def _preemption_notice(self, event: FaultEvent) -> bool:
        """A spot reclaim warning: the worker leaves after the notice
        lead-time (``magnitude`` seconds) for ``seconds``.  The
        single-pool gateway has no drain protocol — it schedules the
        preemption at notice + lead and keeps serving; the cluster
        scheduler spends the lead checkpointing and migrating work."""
        health = self._health_for(event)
        if health is None:
            return False
        lead = max(0.0, event.magnitude)
        self.fault_stats.preemption_notices += 1
        self.probe.fault_instant(
            event.domain, event.worker, "preemption_notice", self._now,
            seconds=round(event.seconds, 6), lead=round(lead, 6),
        )
        self._events.push(_EV_FAULT, self._now + lead, dataclasses.replace(
            event,
            event_id=-event.event_id - 1,   # derived: never re-counted
            time=self._now + lead,
            kind=FaultKind.PREEMPTION,
            magnitude=0.0,
        ))
        return True

    def _health_for(self, event: FaultEvent) -> Optional[WorkerHealth]:
        """The targeted worker's health record, or None when the plan
        was generated for a larger deployment than this run's."""
        pool = (
            self.gpu_health if event.domain == GPU_DOMAIN
            else self.msa_health
        )
        if event.worker >= len(pool):
            return None   # plan generated for a larger deployment
        return pool[event.worker]

    def _take_down(
        self, event: FaultEvent, restart_after: Optional[float]
    ) -> bool:
        """A worker leaves — crash (warm state lost, fixed restart
        delay) or preemption (returns warm after the event window)."""
        health = self._health_for(event)
        if health is None or not health.up:
            return False
        crash = restart_after is None
        health.up = False
        self.probe.worker_down(
            event.domain, event.worker, self._now,
            "crash" if crash else "preemption",
        )
        if crash:
            health.crashes += 1
            if event.domain == GPU_DOMAIN:
                self.fault_stats.gpu_crashes += 1
            else:
                self.fault_stats.msa_crashes += 1
        else:
            health.preemptions += 1
            self.fault_stats.preemptions += 1
        if event.domain == GPU_DOMAIN:
            self._abort_gpu_job(event.worker, health)
            engine = self.workers[event.worker]
            if crash and engine.warm:
                engine.reset()
                health.needs_rewarm = True
            self.gpu_pool.withdraw(event.worker)
        else:
            self._abort_msa_job(event.worker, health)
            self.msa_pool.withdraw(event.worker)
        if crash:
            if health.breaker.record_failure():
                self.probe.breaker_opened(
                    event.domain, event.worker, self._now
                )
                self._events.push(
                    _EV_WORKER_UP,
                    self._now + health.breaker.cooldown_seconds,
                    (event.domain, event.worker, "probe"),
                )
            delay = self.config.restart_seconds
            mode = "restart"
        else:
            delay = event.seconds
            mode = "return"
        self._events.push(
            _EV_WORKER_UP, self._now + delay,
            (event.domain, event.worker, mode),
        )
        # Work the dead worker dropped goes back to the survivors now.
        if event.domain == GPU_DOMAIN:
            self._dispatch_gpu()
        else:
            self._assign_msa()
        return True

    def _abort_gpu_job(self, worker: int, health: WorkerHealth) -> None:
        """The worker died mid-batch: invalidate its completion event
        via the job token and force the batch back into the batcher
        intact for a full rerun."""
        if not health.busy:
            return
        # Un-run GPU time is handed back; the elapsed part stays burnt.
        batch = self.gpu_pool.abort_job(worker, self._now) or []
        if batch:
            self.probe.batch_aborted(worker, batch, self._now)
            bucket = max(m.bucket(self.config.buckets) for m in batch)
            for member in batch:
                member.gpu_seconds = 0.0
                member.state = RequestState.QUEUED_BATCH
                member.stage_entered_at = self._now
                self.fault_stats.fault_retries += 1
                self.probe.batch_queued(member, self._now)
            self._batcher.add_forced(bucket, batch)

    def _abort_msa_job(self, worker: int, health: WorkerHealth) -> None:
        """The worker died mid-scan: checkpoint the shards completed
        so far (a clean stream permitting), so the requeued request
        resumes instead of restarting from shard zero."""
        if not health.busy:
            return
        job = self.msa_pool.abort_job(worker, self._now)
        if not job:
            return
        request, base_shards, planned, corrupted = job
        elapsed = self._now - health.job_started
        shards = self.config.msa_scan_shards
        if planned > 0 and not corrupted:
            progressed = int(
                (shards - base_shards) * (elapsed / planned)
            )
            completed = min(shards - 1, base_shards + progressed)
        else:
            completed = 0
        self.probe.msa_aborted(request, worker, self._now, completed)
        key = request.content_key()
        cost = self.msa_cost_model.cost(request.sample)
        if completed > 0:
            self.checkpoints.save(key, MsaCheckpoint(
                completed_shards=completed,
                total_shards=shards,
                full_seconds=cost.seconds,
                depth=cost.depth,
            ))
        request.fault_failures += 1
        self.fault_stats.fault_retries += 1
        request.state = RequestState.QUEUED_MSA
        request.stage_entered_at = self._now
        self._msa_queue.push(request)
        self.probe.msa_queued(request, self._now)

    def _oom_spike(self, event: FaultEvent) -> bool:
        """Co-tenant memory pressure: shrink the worker's usable HBM
        by ``magnitude`` of capacity for the event window."""
        health = self._health_for(event)
        if health is None or event.seconds <= 0:
            return False
        device = self.workers[event.worker]._sim.gpu
        health.pressure_until = self._now + event.seconds
        health.pressure_bytes = event.magnitude * device.memory_bytes
        self.probe.fault_window(
            event.domain, event.worker, "oom_spike", self._now,
            event.seconds, magnitude=round(event.magnitude, 6),
        )
        return True

    def _db_stall(self, event: FaultEvent) -> bool:
        """A database read stall: extend the in-flight scan by the
        stall (rescheduling its completion under a fresh job token), or
        bank it against the worker's next scan when idle."""
        health = self._health_for(event)
        if health is None or event.seconds <= 0:
            return False
        stall = event.seconds
        self.fault_stats.stalls_applied += 1
        self.fault_stats.stall_seconds += stall
        if health.busy:
            job = self.msa_pool.jobs.get(event.worker)
            old_token = health.job_token
            health.job_token += 1   # invalidate the scheduled finish
            health.job_expected_end += stall
            self.msa_pool.busy_seconds += stall
            if job is not None:
                request = job[0]
                job[2] += stall
                request.msa_seconds += stall
                request.msa_stall_wait += stall
                self._events.push(
                    _EV_MSA_DONE, health.job_expected_end,
                    (event.worker, request, health.job_token),
                )
                self.probe.fault_instant(
                    event.domain, event.worker, "db_stall", self._now,
                    request_id=request.request_id,
                    seconds=round(stall, 6),
                )
            else:   # pragma: no cover - busy workers always have a job
                health.job_token = old_token
        else:
            # Nothing in flight: the stalled stream hits whatever scan
            # starts next on this worker.
            health.pending_stall += stall
            self.probe.fault_instant(
                event.domain, event.worker, "db_stall", self._now,
                seconds=round(stall, 6),
            )
        return True

    def _db_corruption(self, event: FaultEvent) -> bool:
        """Mark the in-flight scan's stream corrupt; detection happens
        at completion (``_msa_done``), which forces a clean rerun."""
        health = self._health_for(event)
        if health is None or not health.busy:
            return False
        job = self.msa_pool.jobs.get(event.worker)
        if job is None:   # pragma: no cover - busy implies a job
            return False
        job[3] = True
        self.fault_stats.corruptions += 1
        self.probe.fault_instant(
            event.domain, event.worker, "db_corruption", self._now,
            request_id=job[0].request_id,
        )
        return True

    def _store_corruption(self, event: FaultEvent) -> bool:
        """Tamper one persisted feature-store entry on disk.

        The target key is a deterministic function of the event (so
        seeded chaos runs reproduce), chosen from whatever the store
        holds at strike time.  Detection happens at the next read: the
        checksum fails, the entry is invalidated, and the requesting
        pair re-leads a scan — corrupt features are never served.
        """
        if self.store is None or len(self.store) == 0:
            return False
        keys = self.store.keys()
        key = keys[(event.event_id * 7919 + event.worker) % len(keys)]
        if not self.store.corrupt(key):   # pragma: no cover - key held
            return False
        self.fault_stats.store_corruptions += 1
        self.probe.fault_instant(
            event.domain, event.worker, "store_corruption", self._now,
            key=key,
        )
        return True

    def _slow_node(self, event: FaultEvent) -> bool:
        """Degrade the worker by ``magnitude``x for the event window
        (thermal throttling / noisy neighbour); scans and batches
        started inside the window run proportionally longer."""
        health = self._health_for(event)
        if health is None or event.seconds <= 0 or event.magnitude <= 1.0:
            return False
        health.slow_until = self._now + event.seconds
        health.slow_factor = event.magnitude
        self.probe.fault_window(
            event.domain, event.worker, "slow_node", self._now,
            event.seconds, factor=round(event.magnitude, 6),
        )
        return True

    def _worker_up(self, domain: str, worker: int, mode: str) -> None:
        """Re-admit a worker to its free pool: ``restart``/``return``
        bring it back up (breaker permitting); ``probe`` half-opens an
        expired breaker so one trial dispatch can close it."""
        pool = self.gpu_pool if domain == GPU_DOMAIN else self.msa_pool
        health = pool.health[worker]
        if mode == "probe":
            self.probe.breaker_probe(domain, worker, self._now)
            health.breaker.to_half_open()
            if not health.up or health.busy:
                return   # still down/busy; re-entry happens on its event
        else:
            health.up = True
            health.restarts += 1
            self.fault_stats.restarts += 1
            self.probe.worker_up(domain, worker, self._now, mode)
            if not health.breaker.allows_dispatch:
                return   # breaker is open; the probe event re-admits it
        pool.release(worker)
        if domain == GPU_DOMAIN:
            self._dispatch_gpu()
        else:
            self._assign_msa()


def serving_trace(requests: Sequence[ServingRequest]) -> WorkloadTrace:
    """A :class:`WorkloadTrace` of the stream's waits and service times.

    Queue and backoff intervals become ``Resource.WAIT`` records; MSA
    and GPU service intervals carry their simulated seconds, so
    ``trace.by_phase()`` reads back the latency decomposition the
    gateway produced.  Fault-recovery costs surface too: re-warm
    (post-crash cold start) seconds under ``serving.rewarm`` and
    injected DB stalls under ``serving.stall``.
    """
    trace = WorkloadTrace()
    for request in requests:
        tag = f"req{request.request_id}"
        trace.add(OpRecord.wait(tag, "serving.queue.msa", request.msa_wait))
        trace.add(
            OpRecord.wait(tag, "serving.queue.batch", request.batch_wait)
        )
        trace.add(
            OpRecord.wait(tag, "serving.backoff", request.backoff_wait)
        )
        if request.rewarm_seconds:
            trace.add(
                OpRecord.wait(tag, "serving.rewarm", request.rewarm_seconds)
            )
        if request.msa_stall_wait:
            trace.add(
                OpRecord.wait(tag, "serving.stall", request.msa_stall_wait)
            )
        if (
            not request.msa_cache_hit
            and not request.msa_coalesced
            and not request.msa_store_hit
        ):
            trace.add(OpRecord(
                function=tag, phase="serving.msa",
                resource=Resource.CPU, seconds=request.msa_seconds,
                parallel=True,
            ))
        if request.gpu_seconds:
            trace.add(OpRecord(
                function=tag, phase="serving.gpu",
                resource=Resource.GPU, seconds=request.gpu_seconds,
                parallel=False,
            ))
    return trace


def sequential_warm_baseline(
    platform: Platform,
    requests: Sequence[ServingRequest],
    msa_cost_model=None,
    model_config: Optional[ModelConfig] = None,
) -> float:
    """Total seconds for the pre-gateway deployment: one warm
    single-stream server handling the same requests back to back —
    warm init/executable reuse, but no worker parallelism, no
    batching, and no MSA cache."""
    engine = InferenceServer(platform, model_config)
    cost_model = msa_cost_model or AnalyticMsaCostModel(platform)
    total = 0.0
    for request in requests:
        cost = cost_model.cost(request.sample)
        total += cost.seconds
        total += engine.submit(
            request.sample, msa_depth=cost.depth
        ).latency_seconds
    return total
