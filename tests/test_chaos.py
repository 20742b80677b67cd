"""Chaos tests: fault injection through the gateway, end to end.

Targeted single-fault scenarios pin each recovery mechanism (crash ->
restart -> re-warm, checkpoint/resume, circuit breaker, degraded
fallback, stalls, corruption, OOM spikes, preemption), and seeded
campaigns check the serving invariants plus a golden summary.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.faults import (
    ChaosConfig,
    FaultEvent,
    FaultKind,
    FaultPlan,
    GPU_DOMAIN,
    MSA_DOMAIN,
    run_campaign,
    run_suite,
)
from repro.faults.chaos import check_invariants
from repro.hardware.platform import SERVER
from repro.msa.cost import MsaCost
from repro.sequences import Assembly, Chain, MoleculeType
from repro.sequences.generator import random_sequence
from repro.sequences.sample import ComplexityClass, InputSample
from repro.serving import (
    GatewayConfig,
    RequestState,
    ServingGateway,
    ServingRequest,
    chain_content_key,
    serving_trace,
)

CHAOS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "chaos_summary.json"

MSA_SECONDS = 600.0


class FixedMsaCost:
    """Constant-cost MSA model: timings in tests become arithmetic."""

    def __init__(self, seconds=MSA_SECONDS, depth=64):
        self.fixed = MsaCost(seconds=seconds, depth=depth)

    def cost(self, sample, key):
        return self.fixed


def make_sample(name, length=200, seed=1):
    return InputSample(
        name,
        Assembly(name, [
            Chain("A", MoleculeType.PROTEIN,
                  random_sequence(length, seed=seed)),
        ]),
        ComplexityClass.LOW,
        "chaos test",
    )


def requests_at(samples_and_times):
    return [
        ServingRequest(request_id=i, sample=sample, arrival_seconds=t)
        for i, (sample, t) in enumerate(samples_and_times)
    ]


def single_worker_config(**kwargs):
    defaults = dict(
        num_gpu_workers=1, num_msa_workers=1, max_batch=4,
        max_wait_seconds=0.0, restart_seconds=100.0,
    )
    defaults.update(kwargs)
    return GatewayConfig(**defaults)


def run_gateway(config, stream, plan=None):
    gateway = ServingGateway(
        SERVER, config, msa_cost_model=FixedMsaCost(), fault_plan=plan
    )
    report = gateway.run(stream)
    return gateway, report


class TestCrashRestartRewarm:
    """A crashed GPU worker loses warm state and pays cold start again."""

    def _baseline_gpu_seconds(self):
        stream = requests_at([(make_sample("a"), 0.0)])
        _, report = run_gateway(single_worker_config(), stream)
        (request,) = report.requests
        assert request.state is RequestState.DONE
        return request.gpu_seconds, request.completion_seconds

    def test_crash_mid_batch_requeues_and_pays_rewarm(self):
        gpu_seconds, fault_free_done = self._baseline_gpu_seconds()
        crash_at = MSA_SECONDS + gpu_seconds / 2
        plan = FaultPlan([FaultEvent(
            0, crash_at, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0,
        )])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        (request,) = report.requests

        # The request survived the crash and completed at full quality.
        assert request.state is RequestState.DONE
        assert not request.degraded
        # ... but strictly later than the fault-free run, having paid
        # the restart delay plus a fresh cold start on the way.
        assert request.completion_seconds > fault_free_done
        assert request.rewarm_seconds > 0.0
        assert gateway.workers[0].cold_starts == 1

        faults = report.fault_summary
        assert faults["gpu_crashes"] == 1
        assert faults["restarts"] == 1
        assert faults["rewarm_events"] == 1
        assert faults["rewarm_seconds"] == pytest.approx(
            request.rewarm_seconds
        )

        # Worker accounting balances: 2 dispatches = 1 done + 1 abort.
        health = gateway.gpu_health[0]
        assert health.dispatches == 2
        assert health.completions == 1
        assert health.aborts == 1
        assert health.balanced

        # The re-warm cost shows up in the serving trace.
        phases = serving_trace(report.requests).by_phase()
        assert "serving.rewarm" in phases
        assert phases["serving.rewarm"].seconds == pytest.approx(
            request.rewarm_seconds
        )

    def test_preempted_worker_returns_warm(self):
        gpu_seconds, _ = self._baseline_gpu_seconds()
        first_done = MSA_SECONDS + gpu_seconds
        sample = make_sample("a")
        plan = FaultPlan([FaultEvent(
            0, first_done + 5.0, FaultKind.PREEMPTION, GPU_DOMAIN, 0,
            seconds=300.0,
        )])
        # The second request hits the MSA cache, so it only needs a GPU
        # worker — which is away being preempted when it arrives.
        stream = requests_at([
            (sample, 0.0), (sample, first_done + 10.0),
        ])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        first, second = report.requests
        assert second.state is RequestState.DONE
        assert second.msa_cache_hit
        # Preemption suspends, it does not kill: no cold start is paid.
        assert second.rewarm_seconds == 0.0
        assert gateway.workers[0].cold_starts == 0
        faults = report.fault_summary
        assert faults["preemptions"] == 1
        assert faults["restarts"] == 1
        assert faults["rewarm_events"] == 0
        # The worker was gone for the preemption window.
        assert second.completion_seconds >= first_done + 5.0 + 300.0


class TestCheckpointResume:
    """An interrupted MSA scan resumes from its last completed shard."""

    def test_resume_does_strictly_less_work_than_cold_rescan(self):
        # Crash the only MSA worker exactly halfway through the scan.
        plan = FaultPlan([FaultEvent(
            0, MSA_SECONDS / 2, FaultKind.WORKER_CRASH, MSA_DOMAIN, 0,
        )])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        (request,) = report.requests
        assert request.state is RequestState.DONE

        # 8 of 16 shards completed before the crash; the resumed scan
        # streams only the remaining half of the database.
        assert request.resumed_shards == 8
        assert request.msa_seconds == pytest.approx(MSA_SECONDS / 2)
        assert request.msa_seconds < MSA_SECONDS

        faults = report.fault_summary
        assert faults["msa_crashes"] == 1
        assert faults["checkpoints_saved"] == 1
        assert faults["checkpoint_resumes"] == 1
        assert faults["checkpoint_shards_saved"] == 8
        # Scan halves: 300 s before the crash are lost, the restart
        # takes 100 s, the resume streams the remaining 300 s.
        assert request.completion_seconds > MSA_SECONDS
        health = gateway.msa_health[0]
        assert health.balanced

    def test_completed_result_is_cached_at_full_cost(self):
        plan = FaultPlan([FaultEvent(
            0, MSA_SECONDS / 2, FaultKind.WORKER_CRASH, MSA_DOMAIN, 0,
        )])
        sample = make_sample("a")
        stream = requests_at([(sample, 0.0), (sample, 5000.0)])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        first, second = report.requests
        assert second.msa_cache_hit
        key = chain_content_key(sample.assembly)
        cached = gateway._cache.lookup(key)
        # The cache entry records the cold-scan cost, not the partial
        # resumed attempt the first request happened to pay.
        assert cached.msa_seconds == pytest.approx(MSA_SECONDS)


class TestCircuitBreaker:
    """Repeatedly-failing workers are ejected and probed back in."""

    def test_open_half_open_close_cycle(self):
        config = single_worker_config(
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=200.0,
        )
        plan = FaultPlan([
            FaultEvent(0, 10.0, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0),
            FaultEvent(1, 500.0, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0),
        ])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(config, stream, plan)
        (request,) = report.requests

        breaker = gateway.gpu_health[0].breaker
        # Second crash trips the threshold: open at t=500, probe
        # (half-open) at t=700, and the probe batch closes it.
        assert breaker.opens == 1
        assert breaker.half_opens == 1
        assert breaker.closes == 1
        faults = report.fault_summary
        assert faults["breaker_opens"] == 1
        assert faults["breaker_half_opens"] == 1
        assert faults["breaker_closes"] == 1

        # The request could only dispatch once the probe re-admitted
        # the worker: restart at t=600 is withheld, probe at t=700.
        assert request.state is RequestState.DONE
        assert request.batch_wait >= 100.0
        assert request.completion_seconds > 700.0

    def test_withheld_worker_not_dispatched_while_open(self):
        config = single_worker_config(
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=10_000.0,
        )
        plan = FaultPlan([
            FaultEvent(0, 10.0, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0),
            FaultEvent(1, 500.0, FaultKind.WORKER_CRASH, GPU_DOMAIN, 0),
        ])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(config, stream, plan)
        (request,) = report.requests
        # Nothing else can serve it, so completion waits for the probe
        # at t = 500 + 10000.
        assert request.state is RequestState.DONE
        assert request.completion_seconds > 10_500.0


class TestDegradedFallback:
    """Retry-exhausted requests degrade explicitly instead of erroring."""

    def _run(self, degraded_fallback):
        config = single_worker_config(
            timeout_seconds=100.0, max_retries=0,
            retry_backoff_seconds=10.0,
            degraded_fallback=degraded_fallback, degraded_msa_depth=8,
        )
        # Two distinct inputs: the second queues behind the first's
        # 600 s scan on the only MSA worker and times out at t=101.
        stream = requests_at([
            (make_sample("a", seed=1), 0.0),
            (make_sample("b", seed=2), 1.0),
        ])
        return run_gateway(config, stream)

    def test_degraded_served_instead_of_timed_out(self):
        gateway, report = self._run(degraded_fallback=True)
        first, second = report.requests
        assert first.state is RequestState.DONE and not first.degraded
        assert second.state is RequestState.DONE and second.degraded
        assert second.msa_depth == 8
        assert "degraded" in second.failure_reason
        # Degraded responses are counted apart from full completions...
        assert report.completed == 1
        assert report.degraded == 1
        assert report.timed_out == 0
        assert report.summary()["degraded"] == 1
        # ... and nothing degraded ever enters the MSA cache.
        key = chain_content_key(second.sample.assembly)
        assert key not in gateway._cache

    def test_without_fallback_the_same_request_times_out(self):
        _, report = self._run(degraded_fallback=False)
        first, second = report.requests
        assert second.state is RequestState.TIMED_OUT
        assert second.failure_reason == "retries exhausted"
        assert report.degraded == 0
        assert report.timed_out == 1


class TestMsaStreamFaults:
    def test_db_stall_extends_inflight_scan(self):
        plan = FaultPlan([FaultEvent(
            0, 100.0, FaultKind.DB_READ_STALL, MSA_DOMAIN, 0,
            seconds=50.0,
        )])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        (request,) = report.requests
        assert request.state is RequestState.DONE
        assert request.msa_stall_wait == pytest.approx(50.0)
        assert request.msa_seconds == pytest.approx(MSA_SECONDS + 50.0)
        faults = report.fault_summary
        assert faults["stalls_applied"] == 1
        assert faults["stall_seconds"] == pytest.approx(50.0)
        phases = serving_trace(report.requests).by_phase()
        assert phases["serving.stall"].seconds == pytest.approx(50.0)

    def test_stall_on_idle_worker_hits_next_scan(self):
        plan = FaultPlan([FaultEvent(
            0, 10.0, FaultKind.DB_READ_STALL, MSA_DOMAIN, 0,
            seconds=40.0,
        )])
        stream = requests_at([(make_sample("a"), 100.0)])
        _, report = run_gateway(single_worker_config(), stream, plan)
        (request,) = report.requests
        assert request.msa_stall_wait == pytest.approx(40.0)
        assert request.msa_seconds == pytest.approx(MSA_SECONDS + 40.0)

    def test_corruption_forces_clean_rerun(self):
        plan = FaultPlan([FaultEvent(
            0, 100.0, FaultKind.DB_CORRUPTION, MSA_DOMAIN, 0,
        )])
        sample = make_sample("a")
        stream = requests_at([(sample, 0.0), (sample, 5000.0)])
        gateway, report = run_gateway(single_worker_config(), stream, plan)
        first, second = report.requests
        # The corrupted scan ran to completion, was thrown away, and
        # the search reran from a clean stream.
        assert first.state is RequestState.DONE
        assert not first.degraded
        assert first.fault_failures == 1
        assert first.completion_seconds > 2 * MSA_SECONDS
        faults = report.fault_summary
        assert faults["corruptions"] == 1
        assert faults["fault_retries"] == 1
        # The rerun's (clean) result is cached and trusted.
        assert second.msa_cache_hit
        assert gateway.msa_health[0].completions == 2

    def test_slow_node_stretches_scans_in_window(self):
        plan = FaultPlan([FaultEvent(
            0, 0.0, FaultKind.SLOW_NODE, MSA_DOMAIN, 0,
            seconds=10.0, magnitude=3.0,
        )])
        stream = requests_at([(make_sample("a"), 5.0)])
        _, report = run_gateway(single_worker_config(), stream, plan)
        (request,) = report.requests
        assert request.msa_seconds == pytest.approx(3.0 * MSA_SECONDS)


class TestOomSpike:
    def test_spike_ooms_the_dispatched_singleton(self):
        config = single_worker_config(allow_unified_memory=False)
        plan = FaultPlan([FaultEvent(
            0, MSA_SECONDS - 10.0, FaultKind.GPU_OOM_SPIKE, GPU_DOMAIN, 0,
            seconds=100.0, magnitude=1.0,
        )])
        stream = requests_at([(make_sample("a"), 0.0)])
        gateway, report = run_gateway(config, stream, plan)
        (request,) = report.requests
        assert request.state is RequestState.FAILED_OOM
        assert "memory" in request.failure_reason
        assert report.failed_oom == 1
        assert report.oom_events == 1
        assert report.fault_summary["oom_spike_ooms"] == 1
        assert gateway.gpu_health[0].balanced

    def test_dispatch_after_window_succeeds(self):
        config = single_worker_config(allow_unified_memory=False)
        plan = FaultPlan([FaultEvent(
            0, 10.0, FaultKind.GPU_OOM_SPIKE, GPU_DOMAIN, 0,
            seconds=100.0, magnitude=1.0,
        )])
        stream = requests_at([(make_sample("a"), 0.0)])
        _, report = run_gateway(config, stream, plan)
        (request,) = report.requests
        # The spike expired long before the batch dispatched at t=600.
        assert request.state is RequestState.DONE
        assert report.fault_summary["oom_spike_ooms"] == 0


class TestEmptyPlan:
    def test_empty_plan_changes_nothing_but_adds_fault_section(self):
        stream_a = requests_at([(make_sample("a"), 0.0)])
        stream_b = requests_at([(make_sample("a"), 0.0)])
        _, plain = run_gateway(single_worker_config(), stream_a)
        _, with_plan = run_gateway(
            single_worker_config(), stream_b, FaultPlan([])
        )
        assert plain.fault_summary is None
        assert with_plan.fault_summary is not None
        assert all(
            not v for k, v in with_plan.fault_summary.items() if k != "plan"
        )
        a, b = plain.summary(), with_plan.summary()
        b.pop("faults")
        assert json.dumps(a) == json.dumps(b)


class TestCampaigns:
    """Seeded chaos campaigns hold the serving invariants."""

    QUICK = ChaosConfig(num_requests=60)

    def test_invariants_hold_across_seeds(self):
        results = run_suite(
            (0, 1, 2), self.QUICK, check_determinism=False
        )
        for seed, result in results.items():
            assert result.violations == [], (seed, result.violations)
            # Each campaign schedules all six fault kinds; at least
            # four distinct kinds must have actually applied events.
            assert len(result.plan.active_kinds) >= 4
            assert result.report.fault_summary["events_applied"] > 0

    def test_campaign_is_byte_deterministic(self):
        a = run_campaign(self.QUICK, check_determinism=False)
        b = run_campaign(self.QUICK, check_determinism=False)
        assert a.to_json() == b.to_json()
        assert a.deterministic is None
        c = run_campaign(self.QUICK, check_determinism=True)
        assert c.deterministic is True
        assert c.ok

    def test_every_request_reaches_a_terminal_state(self):
        heavy = dataclasses.replace(
            self.QUICK, seed=7, arrival_rps=0.05,
            num_gpu_workers=2, num_msa_workers=2,
            crashes=6, preemptions=3, oom_spikes=4,
            db_stalls=5, db_corruptions=4, slow_nodes=3,
            timeout_seconds=7200.0,
        )
        result = run_campaign(heavy, check_determinism=False)
        assert result.violations == []
        for request in result.report.requests:
            assert request.state.terminal
            if request.state is not RequestState.DONE:
                assert request.failure_reason

    def test_invariant_checker_catches_imbalance(self):
        result = run_campaign(self.QUICK, check_determinism=False)
        gateway_like = type("G", (), {
            "monotonic_violations": 0,
            "gpu_health": [],
            "msa_health": [],
        })()
        # Sanity: the checker is not vacuous — corrupt one request's
        # terminal state and it must object.
        report = result.report
        report.requests[0].state = RequestState.IN_GPU
        violations = check_invariants(gateway_like, report)
        assert any("non-terminal" in v for v in violations)

    def test_golden_chaos_summary(self):
        result = run_campaign(self.QUICK, check_determinism=False)
        got = json.loads(json.dumps(result.summary()))
        golden = json.loads(CHAOS_GOLDEN.read_text())
        assert got == golden
