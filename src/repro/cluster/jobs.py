"""Cluster jobs: chain-granular folding work with priorities.

A :class:`ClusterJob` is one structure-prediction request lifted to
cluster granularity: its MSA phase is a *sequence of per-chain
database scans* (each independently persistable through the PR 6
feature store) followed by one GPU inference.  Chain granularity is
what makes migration cheap — a preempted node publishes the chains it
finished and checkpoints the one in flight, and the job resumes
elsewhere paying only for what was genuinely lost.

The seeded job stream draws pairs from the PPI chain library
(:mod:`repro.serving.scenarios`), so jobs share chains and the shared
feature store amortises scans across the fleet exactly as it does in
the single-pool screen.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from ..msa.cost import chain_scan_seconds, msa_depth
from ..sequences.chain import Chain
from ..sequences.sample import InputSample
from ..serving.cache import chain_feature_key
from ..serving.scenarios import ppi_chain_library, ppi_pair_samples

__all__ = [
    "ChainStatus",
    "ChainWork",
    "ClusterJob",
    "chain_scan_seconds",
    "build_job_stream",
]

#: Seed salts (independent streams for arrivals vs priorities).
_ARRIVAL_SALT = 0xC1A7
_PRIORITY_SALT = 0x9307

#: Priority classes, low value = served first.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2


class ChainStatus:
    """Where one chain's features currently live, from this job's view."""

    PENDING = "pending"    # not computed (or lost with a crashed node)
    LOCAL = "local"        # scanned on the running node, unpublished
    DURABLE = "durable"    # persisted in the shared feature store


@dataclasses.dataclass
class ChainWork:
    """One chain of a job's MSA phase."""

    key: str                     # feature-store key (content-addressed)
    chain: Chain
    status: str = ChainStatus.PENDING
    #: True when this job observed the chain in the store (or was the
    #: one to publish it) — reused work, never re-billed.
    store_hit: bool = False


@dataclasses.dataclass
class ClusterJob:
    """One folding job moving through the cluster."""

    job_id: int
    sample: InputSample
    priority: int
    arrival_seconds: float
    chains: List[ChainWork] = dataclasses.field(default_factory=list)

    # -- progress --------------------------------------------------------
    attempts: int = 0            # node assignments (first run + re-runs)
    migrations: int = 0          # drain-requeues (preemption with notice)
    crash_requeues: int = 0      # crash-requeues (no drain window)
    resumed_shards: int = 0      # DB shards a checkpoint let us skip
    completion_seconds: Optional[float] = None
    failure_reason: Optional[str] = None

    # -- billing ---------------------------------------------------------
    scan_seconds_billed: float = 0.0   # MSA scan time actually paid for
    gpu_seconds_billed: float = 0.0    # inference time actually paid for
    #: Chain scans this job completed itself (store hits excluded).
    chains_scanned: int = 0
    #: Full re-scans of chains this job had already completed before a
    #: *migration* — the no-double-execution audit pins this at zero.
    migrated_recomputed_chains: int = 0

    def __post_init__(self) -> None:
        if not self.chains:
            self.chains = [
                ChainWork(key=chain_feature_key(c), chain=c)
                for c in self.sample.assembly.msa_chains()
            ]

    @property
    def done(self) -> bool:
        return self.completion_seconds is not None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None and not self.done

    @property
    def msa_depth(self) -> int:
        """Depth the GPU phase is served with."""
        return msa_depth(self.sample.assembly.total_residues)

    def next_pending_chain(self) -> Optional[ChainWork]:
        for work in self.chains:
            if work.status == ChainStatus.PENDING:
                return work
        return None

    def local_chains(self) -> List[ChainWork]:
        return [
            w for w in self.chains if w.status == ChainStatus.LOCAL
        ]

    @property
    def msa_done(self) -> bool:
        return all(
            w.status != ChainStatus.PENDING for w in self.chains
        )

    def latency_seconds(self) -> Optional[float]:
        if self.completion_seconds is None:
            return None
        return self.completion_seconds - self.arrival_seconds


def build_job_stream(
    num_jobs: int,
    num_chains: int = 24,
    seed: int = 0,
    arrival_rate_per_hour: float = 12.0,
    priority_weights: Tuple[float, float, float] = (0.2, 0.6, 0.2),
) -> List[ClusterJob]:
    """A seeded Poisson stream of PPI-pair folding jobs.

    Pairs are drawn with replacement from the ``num_chains``-chain
    library (jobs share chains, so the store amortises scans);
    priorities are drawn from ``priority_weights`` on an independent
    seeded stream.  Pure function of its arguments — golden cluster
    summaries rely on that.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if arrival_rate_per_hour <= 0:
        raise ValueError("arrival_rate_per_hour must be > 0")
    chains = ppi_chain_library(num_chains, seed=seed)
    samples = ppi_pair_samples(chains)
    pick = random.Random(seed ^ 0x5EED)
    arrivals = random.Random(seed ^ _ARRIVAL_SALT)
    priorities = random.Random(seed ^ _PRIORITY_SALT)
    mean_gap = 3600.0 / arrival_rate_per_hour
    jobs: List[ClusterJob] = []
    now = 0.0
    for job_id in range(num_jobs):
        now += arrivals.expovariate(1.0 / mean_gap)
        sample = samples[pick.randrange(len(samples))]
        priority = priorities.choices(
            (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW),
            weights=priority_weights,
        )[0]
        jobs.append(ClusterJob(
            job_id=job_id,
            sample=sample,
            priority=priority,
            arrival_seconds=now,
        ))
    return jobs
