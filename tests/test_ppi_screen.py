"""The all-vs-all PPI screening workload and its store-driven goldens.

Three layers:

* **differential** — a seeded serve-sim with an *empty* disk store
  produces exactly the same request outcomes and trace ledger as the
  in-memory cache alone, across seeds.  The store may only change
  *when* work happens once entries exist, never *what* a fresh run
  computes (builtin samples share no chains, so a cold store can
  shortcut nothing).
* **golden** — a seeded 10^5-request screen over ~100 chains with a
  precomputed store pins hit rate, coalesce count and latency
  percentiles, plus the throughput ratio over the store-less cold
  baseline (the AF_Cache N-MSAs-amortised-over-N^2-pairs claim).
* **chaos** — the same screen with store-corruption faults injected
  must lose no request: corrupt entries are detected, invalidated and
  recomputed, never served.
"""

import json
import pathlib

import pytest

from repro.faults import FaultPlan
from repro.hardware.platform import get_platform
from repro.sequences.builtin import builtin_samples
from repro.serving import (
    GatewayConfig,
    PoissonArrivals,
    ServingGateway,
    build_request_stream,
    ppi_chain_library,
    ppi_pair_samples,
    ppi_screen_stream,
    serving_trace,
)
from repro.serving.chaos import check_invariants
from repro.store import FeatureStore, precompute_msas

GOLDEN = pathlib.Path(__file__).parent / "golden" / "ppi_screen_summary.json"

PLATFORM = get_platform("Server")

#: The acceptance-scale screen: 10^5 requests over a 100-chain library.
SCREEN_REQUESTS = 100_000
SCREEN_CHAINS = 100
SCREEN_RATE = 0.28
SCREEN_CONFIG = GatewayConfig(
    num_gpu_workers=8, num_msa_workers=4, max_batch=8, queue_limit=2000,
)


def _screen_stream(seed=0, n=SCREEN_REQUESTS):
    return ppi_screen_stream(
        n, num_chains=SCREEN_CHAINS, seed=seed, rate_rps=SCREEN_RATE,
    )


# -- scenario generator -------------------------------------------------

class TestScenario:
    def test_stream_is_seeded_and_deterministic(self):
        a = ppi_screen_stream(200, num_chains=10, seed=3)
        b = ppi_screen_stream(200, num_chains=10, seed=3)
        assert [r.sample.name for r in a] == [r.sample.name for r in b]
        assert [r.arrival_seconds for r in a] == [
            r.arrival_seconds for r in b
        ]
        c = ppi_screen_stream(200, num_chains=10, seed=4)
        assert [r.sample.name for r in a] != [r.sample.name for r in c]

    def test_pairs_share_chain_keys(self):
        chains = ppi_chain_library(6, seed=0)
        samples = ppi_pair_samples(chains)
        assert len(samples) == 15            # 6 choose 2
        all_chain_keys = set()
        for sample in samples:
            for chain in sample.assembly.msa_chains():
                all_chain_keys.add(chain.sequence)
        # N^2-ish pairs collapse to N distinct chain sequences.
        assert len(all_chain_keys) == 6

    def test_stream_pairs_match_enumeration(self):
        chains = ppi_chain_library(8, seed=1)
        names = {s.name for s in ppi_pair_samples(chains)}
        stream = ppi_screen_stream(500, num_chains=8, seed=1)
        assert {r.sample.name for r in stream} <= names


# -- differential: empty store vs no store ------------------------------

class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empty_store_changes_nothing_but_store_section(
        self, seed, tmp_path
    ):
        config = GatewayConfig(
            num_gpu_workers=2, num_msa_workers=2, max_batch=4,
            queue_limit=64,
        )

        def stream():
            return build_request_stream(
                list(builtin_samples().values()), n=120,
                arrivals=PoissonArrivals(0.02, seed=seed), seed=seed,
            )

        plain = ServingGateway(PLATFORM, config).run(stream())
        store = FeatureStore(tmp_path / f"s{seed}")
        stored = ServingGateway(PLATFORM, config, store=store).run(stream())

        with_store = stored.summary()
        section = with_store.pop("store")
        assert section is not None
        assert json.dumps(plain.summary()) == json.dumps(with_store)

        # Request outcomes are identical field for field (the store
        # flags stay unset: builtin samples never share chains, so an
        # initially-empty store cannot shortcut any request).
        for a, b in zip(plain.requests, stored.requests):
            assert a == b
        assert serving_trace(plain.requests).records == serving_trace(
            stored.requests
        ).records


# -- golden at acceptance scale -----------------------------------------

def screen_summary():
    """The golden surface: empty-store screen vs store-less baseline.

    The store starts *empty* on purpose: the run itself demonstrates
    the whole amortisation story — ~100 chain MSAs computed and
    persisted in the warmup, cluster-wide coalescing while they are in
    flight, and a >=90 % hit rate over the remaining ~10^5 requests —
    against a baseline gateway that has only its in-memory cache.
    """
    import shutil
    import tempfile

    stream = _screen_stream()
    scratch = tempfile.mkdtemp(prefix="ppi_store_")
    try:
        store = FeatureStore(scratch)
        stored = ServingGateway(PLATFORM, SCREEN_CONFIG, store=store).run(
            stream
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    cold = ServingGateway(PLATFORM, SCREEN_CONFIG).run(_screen_stream())
    ratio = (
        stored.throughput_rps / cold.throughput_rps
        if cold.throughput_rps else float("inf")
    )
    stored_summary = stored.summary()
    return {
        "requests": SCREEN_REQUESTS,
        "chains": SCREEN_CHAINS,
        "store": stored_summary["store"],
        "latency": stored_summary["latency"],
        "completed": stored.completed,
        "shed": stored.shed,
        "throughput_rps": round(stored.throughput_rps, 9),
        "cold_completed": cold.completed,
        "cold_throughput_rps": round(cold.throughput_rps, 9),
        "store_over_cold_throughput": round(ratio, 6),
    }


class TestGoldenScreen:
    def test_golden_summary(self):
        got = json.loads(json.dumps(screen_summary()))
        golden = json.loads(GOLDEN.read_text())
        assert got == golden

    def test_acceptance_thresholds(self):
        golden = json.loads(GOLDEN.read_text())
        assert golden["requests"] == 100_000
        assert golden["store"]["hit_rate"] >= 0.90
        assert golden["store_over_cold_throughput"] >= 5.0
        # Cluster-wide coalescing fired during the warmup window.
        assert golden["store"]["coalesced"] > 0
        # N MSAs amortised over ~N^2 pair requests: the store holds
        # one entry per library chain, not one per pair.
        assert golden["store"]["entries"] == golden["chains"]


# -- chaos variant: store corruption ------------------------------------

class TestStoreChaos:
    def test_corruption_faults_lose_no_request(self, tmp_path):
        n = 4000
        stream = _screen_stream(seed=7, n=n)
        store = FeatureStore(tmp_path / "chaos")
        precompute_msas([r.sample for r in stream], store)
        horizon = stream[-1].arrival_seconds * 0.9
        plan = FaultPlan.generate(
            seed=7, horizon_seconds=horizon,
            num_gpu_workers=SCREEN_CONFIG.num_gpu_workers,
            num_msa_workers=SCREEN_CONFIG.num_msa_workers,
            store_corruptions=25,
        )
        gateway = ServingGateway(
            PLATFORM, SCREEN_CONFIG, fault_plan=plan, store=store,
        )
        report = gateway.run(stream)
        assert check_invariants(gateway, report) == []
        summary = report.summary()
        faults = summary["faults"]
        section = summary["store"]
        assert faults["store_corruptions"] == 25
        assert section["corruption_detected"] >= 1
        # Detected corruption forces recompute: the leaders that refill
        # the store put fresh entries back.
        assert section["puts"] >= section["corruption_detected"]
        # And the refilled store converges back to full coverage.
        assert section["entries"] == SCREEN_CHAINS

    def test_corruption_run_is_deterministic(self, tmp_path):
        def run(root):
            stream = _screen_stream(seed=3, n=1500)
            store = FeatureStore(root)
            precompute_msas([r.sample for r in stream], store)
            plan = FaultPlan.generate(
                seed=3,
                horizon_seconds=stream[-1].arrival_seconds * 0.9,
                num_gpu_workers=SCREEN_CONFIG.num_gpu_workers,
                num_msa_workers=SCREEN_CONFIG.num_msa_workers,
                store_corruptions=10,
            )
            gateway = ServingGateway(
                PLATFORM, SCREEN_CONFIG, fault_plan=plan, store=store,
            )
            return gateway.run(stream).to_json()

        assert run(tmp_path / "a") == run(tmp_path / "b")
