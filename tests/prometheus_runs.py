"""Five seeded runs whose Prometheus expositions are pinned byte for byte.

Each function returns the exposition text of one small, deterministic
run; the committed copies live under ``tests/golden/prometheus/``:

* ``observe_cli.prom`` — ``repro --seed 7 observe export-metrics
  --requests 12``, through the CLI (the command CI also compares);
* ``observe_chaos_cli.prom`` — the same command with ``--chaos``, so
  the CLI's chaos gateway config is pinned too;
* ``serving_all_sections.prom`` — a serving run that emits every
  optional section: faults, a disk feature store, a non-default bucket
  list and the shared compile cache;
* ``cluster.prom`` — a cluster run with a store, the CLI's default
  fault mix and the shared compile cache;
* ``campaign.prom`` — the cohort summary of a 3-target seeded campaign.

Regenerate the golden files (only on a deliberate exposition change)
with ``PYTHONPATH=src python -m tests.prometheus_runs``.
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import tempfile

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "prometheus"


def _observe_metrics(*flags: str) -> str:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "metrics.prom"
        code = main([
            "--seed", "7", "observe", "export-metrics", "--requests", "12",
            *flags, "--out", str(out),
        ])
        assert code == 0
        return out.read_text()


def observe_cli() -> str:
    return _observe_metrics()


def observe_chaos_cli() -> str:
    return _observe_metrics("--chaos")


def serving_all_sections() -> str:
    from repro.observability import SERVING_METRICS, prometheus_metrics
    from repro.serving import ServingGateway
    from repro.serving.chaos import ChaosConfig, build_campaign
    from repro.store import FeatureStore

    gateway, stream, plan = build_campaign(
        ChaosConfig(seed=13, num_requests=40, store_corruptions=2)
    )
    config = dataclasses.replace(
        gateway.config,
        buckets=(256, 512, 1024, 2048, 5120),
        compile_cache="shared",
    )
    with tempfile.TemporaryDirectory() as tmp:
        report = ServingGateway(
            gateway.platform, config, fault_plan=plan,
            store=FeatureStore(tmp),
        ).run(stream)
    return prometheus_metrics(report.summary(), SERVING_METRICS)


def cluster() -> str:
    from repro.cluster import ClusterChaosConfig
    from repro.cluster.chaos import run_once
    from repro.observability import CLUSTER_METRICS, prometheus_metrics

    _scheduler, report, _plan = run_once(
        ClusterChaosConfig(num_jobs=24, compile_cache="shared")
    )
    return prometheus_metrics(report.summary(), CLUSTER_METRICS)


def campaign() -> str:
    from repro.campaign import (
        CampaignConfig,
        CampaignState,
        cohort_summary,
        run_campaign,
        seeded_manifest,
    )
    from repro.observability import CAMPAIGN_METRICS, prometheus_metrics

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "camp"
        run_campaign(
            root, targets=seeded_manifest(3, seed=0),
            config=CampaignConfig(),
        )
        state = CampaignState(root)
        targets, config_doc = state.load()
        summary = cohort_summary(state.load_outputs(), targets, config_doc)
    return prometheus_metrics(summary, CAMPAIGN_METRICS)


EXPOSITIONS = {
    "observe_cli.prom": observe_cli,
    "observe_chaos_cli.prom": observe_chaos_cli,
    "serving_all_sections.prom": serving_all_sections,
    "cluster.prom": cluster,
    "campaign.prom": campaign,
}


@functools.lru_cache(maxsize=None)
def exposition(name: str) -> str:
    """The freshly rendered exposition ``name`` (built once per session)."""
    return EXPOSITIONS[name]()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in EXPOSITIONS:
        (GOLDEN_DIR / name).write_text(exposition(name))
        print(f"wrote {GOLDEN_DIR / name}")
