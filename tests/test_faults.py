"""Unit tests for the fault-injection layer: plans, recovery, hooks.

Covers the seeded fault schedules, the recovery primitives (circuit
breaker, checkpoints, worker health), and the fault hooks added to the
hardware simulators, the inference server, the MSA database model, and
the serving cache/metrics layers.
"""

import pytest

from repro.core.server import InferenceServer
from repro.faults import (
    BreakerState,
    CheckpointStore,
    CircuitBreaker,
    FaultEvent,
    FaultKind,
    FaultPlan,
    GPU_DOMAIN,
    MSA_DOMAIN,
    MsaCheckpoint,
    WorkerHealth,
    finished_scan_shards,
    merge_plans,
)
from repro.hardware.cpu import CpuSimulator
from repro.hardware.gpu import GpuOutOfMemoryError
from repro.hardware.platform import DESKTOP, SERVER
from repro.msa.database import (
    BufferedDatabaseReader,
    PROTEIN_SEARCH_DBS,
    SCAN_SHARDS,
    build_database,
)
from repro.msa.engine import MsaEngine, MsaEngineConfig
from repro.sequences.builtin import get_sample
from repro.serving import LatencyStats, percentile
from repro.serving.cache import CachedMsa, MsaResultCache, chain_content_key
from repro.trace import WorkloadTrace


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        kwargs = dict(
            horizon_seconds=10_000.0, num_gpu_workers=4,
            num_msa_workers=4, crashes=3, preemptions=2, oom_spikes=2,
            db_stalls=3, db_corruptions=2, slow_nodes=2,
        )
        a = FaultPlan.generate(seed=5, **kwargs)
        b = FaultPlan.generate(seed=5, **kwargs)
        assert [e.as_dict() for e in a] == [e.as_dict() for e in b]
        c = FaultPlan.generate(seed=6, **kwargs)
        assert [e.as_dict() for e in a] != [e.as_dict() for e in c]

    def test_generation_honours_counts_and_domains(self):
        plan = FaultPlan.generate(
            seed=0, horizon_seconds=1000.0, num_gpu_workers=2,
            num_msa_workers=3, crashes=4, oom_spikes=3, db_stalls=5,
        )
        counts = plan.kind_counts()
        assert counts["worker_crash"] == 4
        assert counts["gpu_oom_spike"] == 3
        assert counts["db_read_stall"] == 5
        assert counts["preemption"] == 0
        for event in plan:
            assert 0.0 <= event.time < 1000.0
            if event.kind is FaultKind.GPU_OOM_SPIKE:
                assert event.domain == GPU_DOMAIN
                assert event.worker < 2
                assert 0.3 <= event.magnitude <= 0.9
            if event.kind is FaultKind.DB_READ_STALL:
                assert event.domain == MSA_DOMAIN
                assert event.worker < 3

    def test_events_sorted_by_time(self):
        plan = FaultPlan.generate(
            seed=1, horizon_seconds=5000.0, num_gpu_workers=2,
            num_msa_workers=2, crashes=5, db_stalls=5,
        )
        times = [e.time for e in plan]
        assert times == sorted(times)

    def test_domain_constraints_enforced(self):
        with pytest.raises(ValueError):
            FaultEvent(0, 0.0, FaultKind.GPU_OOM_SPIKE, MSA_DOMAIN, 0)
        with pytest.raises(ValueError):
            FaultEvent(0, 0.0, FaultKind.DB_CORRUPTION, GPU_DOMAIN, 0)

    def test_duplicate_ids_rejected(self):
        event = FaultEvent(1, 0.0, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0)
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan([event, event])

    def test_merge_reassigns_ids(self):
        a = FaultPlan.generate(
            seed=0, horizon_seconds=100.0, num_gpu_workers=1,
            num_msa_workers=1, crashes=2,
        )
        b = FaultPlan.generate(
            seed=1, horizon_seconds=100.0, num_gpu_workers=1,
            num_msa_workers=1, db_stalls=2,
        )
        merged = merge_plans(a, b, None)
        assert len(merged) == 4
        assert sorted(e.event_id for e in merged) == [0, 1, 2, 3]
        assert [e.time for e in merged] == sorted(e.time for e in merged)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        breaker.record_success()   # resets the consecutive count
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allows_dispatch

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure()
        breaker.to_half_open()
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allows_dispatch
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert (breaker.opens, breaker.half_opens, breaker.closes) == (1, 1, 1)

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        breaker.to_half_open()
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(failure_threshold=0)
        for _ in range(10):
            assert breaker.record_failure() is False
        assert breaker.state is BreakerState.CLOSED


class TestCheckpoints:
    def test_remaining_math(self):
        cp = MsaCheckpoint(completed_shards=12)
        assert SCAN_SHARDS == 16
        assert cp.remaining_fraction == 0.25
        assert MsaCheckpoint(0).remaining_fraction == 1.0

    def test_store_counts_saves_resumes_and_shards(self):
        store = CheckpointStore()
        cp = MsaCheckpoint(4)
        store.save("k", cp)
        assert "k" in store and len(store) == 1
        assert store.take("k") is cp
        assert store.take("k") is None
        assert (store.saved, store.resumed, store.shards_saved) == (1, 1, 4)

    def test_invalidate_drops_untrusted_checkpoints(self):
        store = CheckpointStore()
        store.save("k", MsaCheckpoint(4))
        assert store.invalidate("k") is True
        assert store.invalidate("k") is False
        assert store.take("k") is None
        assert store.invalidated == 1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            MsaCheckpoint(SCAN_SHARDS + 1)
        with pytest.raises(ValueError):
            MsaCheckpoint(-1)


class TestFinishedScanShards:
    def test_zero_before_any_progress(self):
        assert finished_scan_shards(0, 0.0, 100.0) == 0
        assert finished_scan_shards(0, -5.0, 100.0) == 0
        assert finished_scan_shards(0, 50.0, 0.0) == 0
        # A resumed scan keeps what it started from.
        assert finished_scan_shards(6, 0.0, 100.0) == 6

    def test_floor_of_elapsed_fraction(self):
        assert finished_scan_shards(0, 50.0, 100.0) == 8
        assert finished_scan_shards(0, 99.0, 100.0) == 15
        # Progress is a share of the shards left after the resume.
        assert finished_scan_shards(8, 50.0, 100.0) == 12

    def test_never_reports_a_complete_scan(self):
        # elapsed >= planned still caps at SCAN_SHARDS - 1: completion
        # is the finish event's job, not the interruption's.
        assert finished_scan_shards(0, 100.0, 100.0) == 15
        assert finished_scan_shards(0, 500.0, 100.0) == 15
        assert finished_scan_shards(15, 500.0, 100.0) == 15


class TestWorkerHealth:
    def test_balanced_accounting(self):
        health = WorkerHealth(index=0)
        health.dispatches = 5
        health.completions = 4
        health.aborts = 1
        assert health.balanced
        health.crashes = 2
        assert not health.balanced
        health.restarts = 2
        assert health.balanced

    def test_windows_expire(self):
        health = WorkerHealth(index=0)
        health.pressure_until, health.pressure_bytes = 100.0, 1e9
        health.slow_until, health.slow_factor = 100.0, 2.0
        assert health.active_pressure(50.0) == 1e9
        assert health.active_pressure(100.0) == 0.0
        assert health.active_slowdown(50.0) == 2.0
        assert health.active_slowdown(100.0) == 1.0

    def test_take_stall_consumes(self):
        health = WorkerHealth(index=0)
        health.pending_stall = 30.0
        assert health.take_stall() == 30.0
        assert health.take_stall() == 0.0


class TestHardwareFaultHooks:
    def test_gpu_memory_pressure_triggers_oom(self):
        sim = InferenceServer(DESKTOP)._sim
        tokens = 512
        baseline = sim.run(tokens, allow_unified_memory=False)
        assert not baseline.used_unified_memory
        with pytest.raises(GpuOutOfMemoryError, match="external pressure"):
            sim.run(
                tokens, allow_unified_memory=False,
                memory_pressure_bytes=float(sim.gpu.memory_bytes),
            )

    def test_gpu_slowdown_scales_compute_only(self):
        sim = InferenceServer(SERVER)._sim
        base = sim.run(1024)
        slow = sim.run(1024, slowdown=2.0)
        assert slow.gpu_compute == pytest.approx(2.0 * base.gpu_compute)
        assert slow.initialization == base.initialization

    def test_cpu_slowdown_scales_report(self):
        trace = WorkloadTrace()
        engine = MsaEngine(MsaEngineConfig(
            num_background=10, homologs_per_query=2, band=16,
        ))
        trace = engine.run(get_sample("2PV7")).trace
        cpu = CpuSimulator(SERVER.cpu)
        base = cpu.simulate(trace, threads=4)
        slow = cpu.simulate(trace, threads=4, slowdown=3.0)
        assert slow.seconds == pytest.approx(3.0 * base.seconds)
        assert slow.instructions == base.instructions   # arch counts fixed
        with pytest.raises(ValueError):
            cpu.simulate(trace, threads=4, slowdown=0.0)

    def test_server_reset_loses_warm_state_and_counts(self):
        server = InferenceServer(SERVER)
        first = server.submit(get_sample("2PV7"))
        assert server.warm
        warm = server.submit(get_sample("2PV7"))
        assert warm.init_seconds == 0.0
        server.reset()
        assert not server.warm
        assert server.cold_starts == 1
        again = server.submit(get_sample("2PV7"))
        assert again.init_seconds == pytest.approx(first.init_seconds)


class TestDatabaseFaultHooks:
    def _db(self):
        return BufferedDatabaseReader(build_database(
            PROTEIN_SEARCH_DBS[0], ["ACDEFGHIKLMNPQRSTVWY" * 5],
            num_background=20, homologs_per_query=2,
        ))

    def test_partial_scan_streams_remaining_fraction(self):
        db = self._db()
        full = db.trace_full_scan().total_bytes()
        half = db.trace_partial_scan(SCAN_SHARDS // 2).total_bytes()
        assert half == pytest.approx(full / 2)
        assert db.trace_partial_scan(SCAN_SHARDS).total_bytes() == 0.0
        with pytest.raises(ValueError):
            db.trace_partial_scan(-1)

    def test_stall_trace_is_pure_wait(self):
        db = self._db()
        trace = db.trace_stall(42.0)
        (record,) = trace.records
        assert record.seconds == 42.0
        assert record.phase.endswith(".stall")

    def test_engine_resume_bytes_strictly_less_than_cold(self):
        engine = MsaEngine(MsaEngineConfig(
            num_background=10, homologs_per_query=2,
        ))
        sample = get_sample("2PV7")
        cold = engine.database_footprint_bytes(sample)
        assert engine.resume_stream_bytes(sample, 0) == cold
        shards = engine.config.scan_shards
        previous = cold
        for done in range(1, shards + 1):
            remaining = engine.resume_stream_bytes(sample, done)
            assert remaining < previous
            previous = remaining
        assert engine.resume_stream_bytes(sample, shards) == 0
        with pytest.raises(ValueError):
            engine.resume_stream_bytes(sample, shards + 1)


class TestServingSatellites:
    def test_chain_key_is_128_bits(self):
        key = chain_content_key(get_sample("2PV7").assembly)
        assert len(key) == 32
        int(key, 16)   # hex

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_latency_stats_of_empty_is_zero_stats(self):
        stats = LatencyStats.of([])
        assert stats.count == 0
        assert stats.p99 == 0.0

    def test_cache_rejects_degraded_entries(self):
        cache = MsaResultCache(capacity=4)
        assert cache.insert("k", CachedMsa(10.0, 64, degraded=True)) is False
        assert "k" not in cache
        assert cache.degraded_rejected == 1
        assert cache.insert("k", CachedMsa(10.0, 64)) is True
        assert "k" in cache

    def test_cache_invalidate(self):
        cache = MsaResultCache(capacity=4)
        cache.insert("k", CachedMsa(10.0, 64))
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.lookup("k") is None
        assert cache.invalidations == 1
