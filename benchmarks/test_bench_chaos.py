"""Benchmarks of the chaos harness (fault-injected gateway runs).

Fault injection roughly doubles the event count per campaign (fault
events, worker restarts, breaker probes, requeued work); these keep
the simulator's hours-of-traffic-in-milliseconds property under fault
load, and the determinism benchmark bounds the cost of the
byte-identical rerun the CI chaos job performs.

Set REPRO_BENCH_QUICK=1 to shrink the campaigns (used by CI).
"""

from __future__ import annotations

import dataclasses
import os

from repro.serving.chaos import CHAOS_GATEWAY, ChaosConfig, run_campaign

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N_REQUESTS = 40 if QUICK else 150


def _config(**overrides):
    defaults = dict(num_requests=N_REQUESTS)
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def test_chaos_campaign(benchmark):
    """One seeded campaign: plan generation, gateway run, audit."""
    result = benchmark(
        run_campaign, _config(), check_determinism=False
    )
    assert result.violations == []


def test_chaos_campaign_heavy_faults(benchmark):
    """A fault-dense campaign exercises the recovery paths hardest."""
    config = _config(
        seed=7, arrival_rps=0.05,
        gateway=dataclasses.replace(
            CHAOS_GATEWAY, num_gpu_workers=2, num_msa_workers=2,
            timeout_seconds=7200.0,
        ),
        crashes=6, preemptions=3, oom_spikes=4,
        db_stalls=5, db_corruptions=4, slow_nodes=3,
    )
    result = benchmark(run_campaign, config, check_determinism=False)
    assert result.violations == []


def test_chaos_determinism_rerun(benchmark):
    """The full double-run the CI invariant check pays per seed."""
    result = benchmark(run_campaign, _config(), check_determinism=True)
    assert result.ok
