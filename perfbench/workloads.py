"""The three benchmark workloads, each a closed loop of ops over ``repro``.

A workload turns a per-op seed into an input (untimed), runs one op
through the public API (timed), and checks the op's output (untimed):
an output digest over the fields the matching CLI command prints, plus
the invariants that must hold on every seed.

``repro`` is imported by :func:`build`, never at module import, so the
benchmark can time the import as part of set-up.  Ops look every
wrapped entry point up through its module or class at call time, so the
tracer's wrappers (see ``tracing.py``) see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
from pathlib import Path
from typing import Any, List

#: Workload names in the order BENCHMARK.json lists them.
NAMES = ("target-run", "ppi-serve", "fleet")


def op_seed(seed: int, index: int) -> int:
    """The input seed of op ``index`` in a run seeded with ``seed``.

    Kept below 2**31 so every seeded generator in ``repro`` accepts it.
    """
    return (seed * 1_000_003 + index * 7_919 + 17) % (2 ** 31)


def digest(doc) -> str:
    """sha256 of the ``sort_keys`` JSON form of an output document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass
class Checked:
    """What the checker made of one op's output."""

    items: int
    digest: str
    violations: List[str]


class Workload:
    """One closed-loop workload; subclasses fill in the steps below."""

    name = ""
    item = ""
    #: Ops per round; a run ends on a whole round, so every run covers
    #: the same mix of op kinds.
    round = 1

    def make_input(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    def run(self, inp) -> Any:
        raise NotImplementedError

    def check(self, inp, out) -> Checked:
        raise NotImplementedError

    def cleanup(self, inp) -> None:
        """Remove what ``make_input`` or ``run`` left on disk."""


# -- target-run ---------------------------------------------------------

#: Five strata, one per 48-residue band of 120-360 residues, with the
#: seeded manifest's shape mix (monomers twice as common as the rest,
#: a fifth carrying RNA).  Op ``i`` draws its target from stratum
#: ``i % 5`` and a run ends on a whole round of strata, so every seed
#: runs the same mix of shapes and lengths and only the sequences follow
#: the seed; op cost (about 0.5-5 s) would otherwise follow the seed.
TARGET_STRATA = (
    ("monomer", 120), ("heterodimer", 168), ("rna-mix", 216),
    ("homodimer", 264), ("monomer", 312),
)
WARMUP_STRATUM = ("monomer", 120)


def target_shape(target) -> str:
    """The ``seeded_manifest`` shape a target was drawn as."""
    types = [c.molecule_type for c in target.chains]
    if "rna" in types:
        return "rna-mix"
    if len(types) == 2:
        return "heterodimer"
    if target.chains[0].copies == 2:
        return "homodimer"
    return "monomer"


class TargetRun(Workload):
    """One ``repro run`` per op on a distinct seeded target."""

    name = "target-run"
    item = "target"
    round = len(TARGET_STRATA)

    def __init__(self, work_dir: Path) -> None:
        from repro.hardware.platform import get_platform

        self.platform = get_platform("Server")

    def make_input(self, seed: int, index: int):
        from repro.campaign import seeded_manifest

        shape, low = (
            WARMUP_STRATUM if index < 0
            else TARGET_STRATA[index % len(TARGET_STRATA)]
        )
        for attempt in range(256):
            target = seeded_manifest(
                1, seed=(seed + 104_729 * attempt) % (2 ** 31),
                min_residues=low, max_residues=low + 47,
            )[0]
            if target_shape(target) == shape:
                name = f"T{index:05d}" if index >= 0 else "TWARM"
                return seed, dataclasses.replace(target, target_id=name)
        raise RuntimeError(f"no {shape} target drawn for seed {seed}")

    def run(self, inp):
        from repro.core.pipeline import Af3Pipeline
        from repro.msa.engine import MsaEngine, MsaEngineConfig
        from repro.parallel import ExecutionPlan

        seed, target = inp
        # What ``repro --seed S run --format json`` does for one input:
        # a fresh engine with the CLI's search sizing, serial plan.
        plan = ExecutionPlan(workers=1, backend="serial")
        engine = MsaEngine(
            MsaEngineConfig(
                num_background=40, homologs_per_query=6, seed=seed
            ),
            plan=plan,
        )
        pipeline = Af3Pipeline(self.platform, msa_engine=engine, plan=plan)
        result = pipeline.run(target.to_sample(), threads=8)
        return {
            "sample": result.sample_name,
            "platform": result.platform_name,
            "threads": result.threads,
            "attention": "chunked",
            "msa_seconds": result.msa_seconds,
            "inference_seconds": result.inference_seconds,
            "msa_fraction": result.msa_fraction,
            "inference_breakdown": result.inference.as_dict(),
            "peak_memory_gib": result.peak_memory_bytes / 1024 ** 3,
            "disk_utilization": result.iostat.utilization,
            "ipc": result.msa_report.ipc,
            "llc_miss_pct": result.msa_report.llc_miss_pct,
        }

    def check(self, inp, out) -> Checked:
        violations = []
        for key in ("msa_seconds", "inference_seconds"):
            value = out[key]
            if not (math.isfinite(value) and value > 0):
                violations.append(f"{key} is {value}")
        if not 0 < out["msa_fraction"] < 1:
            violations.append(f"msa_fraction is {out['msa_fraction']}")
        return Checked(1, digest(out), violations)


# -- ppi-serve ----------------------------------------------------------


class PpiServe(Workload):
    """One fresh gateway serving a PPI screening stream per op."""

    name = "ppi-serve"
    item = "request"

    def __init__(
        self, work_dir: Path, requests: int = 2000, chains: int = 100
    ) -> None:
        from repro.hardware.platform import get_platform

        self.platform = get_platform("Server")
        self.requests = requests
        self.chains = chains

    def make_input(self, seed: int, index: int):
        from repro.serving import ppi_screen_stream

        # 0.02 req/s is the serve-sim CLI default rate.
        return ppi_screen_stream(
            self.requests, num_chains=self.chains, seed=seed,
            rate_rps=0.02,
        )

    def run(self, stream):
        from repro.serving import GatewayConfig, ServingGateway

        gateway = ServingGateway(self.platform, GatewayConfig())
        report = gateway.run(stream)
        return gateway, report, report.summary()

    def check(self, stream, out) -> Checked:
        gateway, report, summary = out
        violations = []
        accounted = (
            report.completed + report.degraded + report.shed
            + report.timed_out + report.failed_oom
        )
        if accounted != report.submitted or report.submitted != len(stream):
            violations.append(
                f"request conservation: {len(stream)} sent, "
                f"{report.submitted} submitted, {accounted} accounted"
            )
        if gateway.monotonic_violations:
            violations.append(
                f"monotonic_violations = {gateway.monotonic_violations}"
            )
        return Checked(report.completed, digest(summary), violations)


# -- fleet --------------------------------------------------------------

#: The autoscaling policies ``cluster-sim`` compares by default; op ``i``
#: runs ``FLEET_POLICIES[i % 3]``.
FLEET_POLICIES = ("fixed", "queue-depth", "cost-aware")


class Fleet(Workload):
    """One cluster-scheduler campaign per op against a fresh disk store."""

    name = "fleet"
    item = "job"
    round = len(FLEET_POLICIES)

    def __init__(
        self, work_dir: Path, jobs: int = 600, chains: int = 120
    ) -> None:
        self.work_dir = work_dir
        self.jobs = jobs
        self.chains = chains

    def make_input(self, seed: int, index: int):
        from repro.cluster.chaos import ClusterChaosConfig, build_campaign

        config = ClusterChaosConfig(
            seed=seed, num_jobs=self.jobs, num_chains=self.chains,
            policy=FLEET_POLICIES[index % len(FLEET_POLICIES)],
        )
        jobs, plan, cluster_config = build_campaign(config)
        store_dir = tempfile.mkdtemp(prefix="fleet-", dir=self.work_dir)
        return jobs, plan, cluster_config, store_dir

    def run(self, inp):
        from repro.cluster import ClusterScheduler
        from repro.store import FeatureStore

        jobs, plan, cluster_config, store_dir = inp
        scheduler = ClusterScheduler(
            cluster_config, store=FeatureStore(store_dir), fault_plan=plan
        )
        report = scheduler.run(jobs)
        return scheduler, report, report.summary()

    def check(self, inp, out) -> Checked:
        from repro.cluster.chaos import check_cluster_invariants

        jobs = inp[0]
        scheduler, report, summary = out
        violations = check_cluster_invariants(scheduler, report)
        if report.submitted != len(jobs):
            violations.append(
                f"job conservation: {len(jobs)} sent, "
                f"{report.submitted} submitted"
            )
        return Checked(
            report.completed + report.failed, digest(summary), violations
        )

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp[3], ignore_errors=True)


_CLASSES = {
    cls.name: cls for cls in (TargetRun, PpiServe, Fleet)
}


def build(name: str, work_dir: Path, **sizes) -> Workload:
    """Construct the named workload (importing from ``repro`` on demand).

    ``sizes`` shrink a workload for tests (``requests``, ``chains``,
    ``jobs``); the benchmark always uses the defaults.
    """
    return _CLASSES[name](work_dir, **sizes)
