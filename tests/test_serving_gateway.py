"""Serving gateway tests: batching, retries, shedding, OOM, golden runs.

These lock down the discrete-event simulator so refactors of the
serving layer (or of the cost models underneath it) cannot silently
shift results: behavioural tests pin the scheduling policies, and the
golden regression test pins the exact numbers.
"""

import json
import pathlib

import pytest

from repro.core.server import InferenceServer
from repro.hardware.platform import DESKTOP, SERVER
from repro.sequences import Assembly, Chain, MoleculeType
from repro.sequences.builtin import builtin_samples, get_sample
from repro.sequences.generator import random_sequence
from repro.sequences.sample import ComplexityClass, InputSample
from repro.serving import (
    GatewayConfig,
    MsaResultCache,
    PoissonArrivals,
    RequestState,
    ServingGateway,
    ServingRequest,
    TraceArrivals,
    build_request_stream,
    chain_content_key,
    percentile,
    sequential_warm_baseline,
    serving_trace,
)
from repro.serving.cache import CachedMsa

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serving_summary.json"


def make_sample(name: str, length: int, seed: int) -> InputSample:
    return InputSample(
        name,
        Assembly(name, [
            Chain("A", MoleculeType.PROTEIN,
                  random_sequence(length, seed=seed)),
        ]),
        ComplexityClass.LOW,
        "serving test",
    )


def requests_at(samples_and_times) -> list:
    return [
        ServingRequest(request_id=i, sample=sample, arrival_seconds=t)
        for i, (sample, t) in enumerate(samples_and_times)
    ]


class TestDynamicBatching:
    def test_same_bucket_requests_coalesce(self):
        """Two same-content requests arriving together share one batch."""
        sample = make_sample("a", 400, seed=1)
        stream = requests_at([(sample, 0.0), (sample, 1.0)])
        config = GatewayConfig(
            num_gpu_workers=2, num_msa_workers=2,
            max_batch=4, max_wait_seconds=50.0,
        )
        report = ServingGateway(SERVER, config).run(stream)
        assert report.completed == 2
        assert report.batches_dispatched == 1
        assert report.mean_batch_size == 2.0
        assert all(r.batch_size == 2 for r in report.requests)
        # The second request never ran its own MSA.
        assert report.coalesced_msa == 1

    def test_batch_amortises_gpu_time(self):
        """A coalesced batch finishes faster than two serial runs."""
        sample = make_sample("a", 400, seed=1)
        batched = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=2, max_wait_seconds=10.0,
        )).run(requests_at([(sample, 0.0), (sample, 0.0)]))
        serial = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=1, max_wait_seconds=0.0,
        )).run(requests_at([(sample, 0.0), (sample, 0.0)]))
        assert batched.completed == serial.completed == 2
        assert batched.requests[0].gpu_seconds < (
            serial.requests[0].gpu_seconds + serial.requests[1].gpu_seconds
        )

    def test_max_wait_bounds_added_latency(self):
        """A lone request dispatches at the deadline, not at max_batch."""
        sample = make_sample("a", 400, seed=1)
        max_wait = 40.0
        report = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=8, max_wait_seconds=max_wait,
        )).run(requests_at([(sample, 0.0)]))
        assert report.completed == 1
        request = report.requests[0]
        assert request.batch_wait == pytest.approx(max_wait)

    def test_zero_max_wait_dispatches_immediately(self):
        sample = make_sample("a", 400, seed=1)
        report = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=8, max_wait_seconds=0.0,
        )).run(requests_at([(sample, 0.0)]))
        assert report.requests[0].batch_wait == pytest.approx(0.0)

    def test_different_buckets_do_not_share_batches(self):
        small = make_sample("small", 300, seed=1)   # bucket 512
        big = make_sample("big", 700, seed=2)       # bucket 768
        stream = requests_at([(small, 0.0), (big, 0.0)])
        report = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=2, num_msa_workers=2,
            max_batch=4, max_wait_seconds=30.0,
        )).run(stream)
        assert report.completed == 2
        assert report.batches_dispatched == 2
        assert report.mean_batch_size == 1.0


class TestRobustness:
    def test_retry_after_timeout(self):
        """Queued requests past the timeout retry with backoff."""
        # One slow MSA worker; the second distinct sample waits in the
        # MSA queue past its timeout, retries, and still completes.
        a = make_sample("a", 400, seed=1)
        b = make_sample("b", 410, seed=2)
        config = GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=1, max_wait_seconds=0.0,
            timeout_seconds=60.0, max_retries=5,
            retry_backoff_seconds=120.0,
        )
        report = ServingGateway(SERVER, config).run(
            requests_at([(a, 0.0), (b, 0.0)])
        )
        assert report.retries >= 1
        assert report.completed == 2
        retried = [r for r in report.requests if r.attempts > 1]
        assert retried and retried[0].backoff_wait > 0

    def test_bounded_retries_then_timeout(self):
        """Retries are bounded: a hopeless request ends TIMED_OUT."""
        a = make_sample("a", 400, seed=1)
        b = make_sample("b", 410, seed=2)
        config = GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=1, max_wait_seconds=0.0,
            timeout_seconds=5.0, max_retries=1,
            retry_backoff_seconds=1.0,
        )
        report = ServingGateway(SERVER, config).run(
            requests_at([(a, 0.0), (b, 0.0)])
        )
        timed_out = [
            r for r in report.requests
            if r.state is RequestState.TIMED_OUT
        ]
        assert report.timed_out == len(timed_out) >= 1
        # Bounded: each request was admitted at most 1 + max_retries times.
        assert all(r.attempts <= 2 for r in report.requests)

    def test_load_shedding_at_queue_bound(self):
        samples = list(builtin_samples().values())
        stream = build_request_stream(
            samples, 40, PoissonArrivals(1.0, seed=7), seed=7
        )
        config = GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1, queue_limit=5,
        )
        report = ServingGateway(SERVER, config).run(stream)
        assert report.shed > 0
        assert report.shed + report.completed == report.submitted
        shed = [r for r in report.requests if r.state is RequestState.SHED]
        assert all(r.completion_seconds is None for r in shed)

    def test_oom_batch_splits_and_completes(self):
        """A batch too big for the device splits instead of failing."""
        # promo-sized inputs (bucket 1024): one fits the RTX 4080, two
        # do not — with unified memory disallowed the pair must split.
        sample = make_sample("p", 1000, seed=3)
        config = GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=2, max_wait_seconds=10.0,
            allow_unified_memory=False,
        )
        report = ServingGateway(DESKTOP, config).run(
            requests_at([(sample, 0.0), (sample, 0.0)])
        )
        assert report.oom_events >= 1
        assert report.completed == 2
        assert report.failed_oom == 0
        assert report.mean_batch_size == 1.0

    def test_oom_singleton_fails_terminally(self):
        sample = make_sample("x", 1395, seed=4)   # bucket 1536
        config = GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=1, max_wait_seconds=0.0,
            allow_unified_memory=False,
        )
        report = ServingGateway(DESKTOP, config).run(
            requests_at([(sample, 0.0)])
        )
        assert report.failed_oom == 1
        assert report.completed == 0


class TestCacheAndQueue:
    def test_msa_cache_hit_skips_msa_stage(self):
        sample = make_sample("a", 400, seed=1)
        # Far apart arrivals: the second finds a completed cache entry.
        stream = requests_at([(sample, 0.0), (sample, 50_000.0)])
        report = ServingGateway(SERVER, GatewayConfig(
            num_gpu_workers=1, num_msa_workers=1,
            max_batch=1, max_wait_seconds=0.0,
        )).run(stream)
        assert report.cache_hits == 1
        second = report.requests[1]
        assert second.msa_cache_hit and second.msa_wait == 0.0

    def test_cache_lru_eviction(self):
        cache = MsaResultCache(capacity=2)
        cache.insert("a", CachedMsa(1.0, 10))
        cache.insert("b", CachedMsa(2.0, 20))
        assert cache.lookup("a") is not None   # refresh a
        cache.insert("c", CachedMsa(3.0, 30))  # evicts b (LRU)
        assert "b" not in cache
        assert cache.lookup("b") is None
        assert cache.evictions == 1
        assert cache.lookup("a").msa_depth == 10

    def test_chain_content_key_is_order_insensitive(self):
        s1 = random_sequence(50, seed=1)
        s2 = random_sequence(60, seed=2)
        a = Assembly("x", [
            Chain("A", MoleculeType.PROTEIN, s1),
            Chain("B", MoleculeType.PROTEIN, s2),
        ])
        b = Assembly("y", [
            Chain("B", MoleculeType.PROTEIN, s2),
            Chain("A", MoleculeType.PROTEIN, s1),
        ])
        assert chain_content_key(a) == chain_content_key(b)
        c = Assembly("z", [
            Chain("A", MoleculeType.PROTEIN, s1, copies=2),
            Chain("B", MoleculeType.PROTEIN, s2),
        ])
        assert chain_content_key(a) != chain_content_key(c)

    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            percentile(values, 101)


class TestThroughputAcceptance:
    def test_gateway_beats_sequential_warm_server_2x(self):
        """The ISSUE acceptance bar: >= 2x on a seeded 200-req stream."""
        samples = list(builtin_samples().values())
        stream = build_request_stream(
            samples, 200, PoissonArrivals(0.02, seed=0), seed=0
        )
        report = ServingGateway(SERVER).run(stream)
        assert report.completed == 200
        baseline = sequential_warm_baseline(SERVER, stream)
        assert baseline / report.duration_seconds >= 2.0

    def test_serving_trace_decomposes_latency(self):
        samples = list(builtin_samples().values())
        stream = build_request_stream(
            samples, 30, PoissonArrivals(0.05, seed=3), seed=3
        )
        report = ServingGateway(SERVER).run(stream)
        trace = serving_trace(stream)
        phases = trace.by_phase()
        assert set(phases) == {
            "serving.queue.msa", "serving.queue.batch",
            "serving.backoff", "serving.msa", "serving.gpu",
        }
        done = [r for r in stream if r.state is RequestState.DONE]
        assert phases["serving.queue.batch"].seconds == pytest.approx(
            sum(r.batch_wait for r in stream)
        )
        assert phases["serving.gpu"].seconds == pytest.approx(
            sum(r.gpu_seconds for r in done)
        )


class TestGoldenRegression:
    """A fixed seeded stream must reproduce byte-identical summaries."""

    @staticmethod
    def _golden_run():
        samples = list(builtin_samples().values())
        stream = build_request_stream(
            samples, 200, PoissonArrivals(0.02, seed=42), seed=42
        )
        config = GatewayConfig(
            num_gpu_workers=4, num_msa_workers=4,
            max_batch=4, max_wait_seconds=120.0,
        )
        return ServingGateway(SERVER, config).run(stream)

    def test_two_consecutive_runs_identical(self):
        first = self._golden_run().to_json()
        second = self._golden_run().to_json()
        assert first == second

    def test_summary_matches_golden_file(self):
        got = self._golden_run().summary()
        golden = json.loads(GOLDEN_PATH.read_text())
        assert json.loads(json.dumps(got)) == golden


class TestColdEquivalentRegression:
    """cold_equivalent_seconds must reuse each request's actual depth."""

    def test_history_reuses_served_msa_depth(self):
        server = InferenceServer(SERVER)
        server.submit(get_sample("2PV7"), msa_depth=512)
        recorded = server.history[0]
        assert recorded.msa_depth == 512
        expected = server._sim.run(
            recorded.num_tokens, threads=1, msa_depth=512
        ).total
        assert server.cold_equivalent_seconds() == pytest.approx(expected)
        # The old hardcoded depth=128 gave a strictly smaller total
        # (deeper MSAs mean more msa_module work per request).
        hardcoded = server._sim.run(
            recorded.num_tokens, threads=1, msa_depth=128
        ).total
        assert server.cold_equivalent_seconds() > hardcoded

    def test_explicit_requests_accept_depth(self):
        server = InferenceServer(SERVER)
        sample = get_sample("2PV7")
        server.submit(sample, msa_depth=64)
        deep = server.cold_equivalent_seconds([sample], msa_depth=256)
        shallow = server.cold_equivalent_seconds([sample], msa_depth=64)
        assert deep > shallow
