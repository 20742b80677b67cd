"""repro.store: durable content-addressed MSA/feature storage.

The disk tier under the serving gateway's in-memory
:class:`~repro.serving.MsaResultCache`: entries keyed by chain
content survive across processes and runs, so an N-chain all-vs-all
screening campaign pays N MSA searches for N² pair requests
(AF_Cache's observation, on ParaFold's CPU/GPU split).

Modules:

* :mod:`repro.store.feature_store` — the store itself (atomic
  write-then-rename objects, checksum verification, byte-bounded LRU
  with an on-disk index);
* :mod:`repro.store.sharding` — deterministic key-range sharding for
  multi-worker fill campaigns;
* :mod:`repro.store.coalesce` — chain-level in-flight leases (one
  worker computes, others subscribe);
* :mod:`repro.store.precompute` — the offline ``msa-precompute`` job.
"""

from .coalesce import InflightLeases
from .feature_store import DEFAULT_BYTE_BUDGET, FeatureStore, payload_checksum
from .precompute import PrecomputeReport, collect_chains, precompute_msas
from .sharding import (
    SHARD_SPACE,
    partition_keys,
    shard_counts,
    shard_for,
    shard_ranges,
)

__all__ = [
    "DEFAULT_BYTE_BUDGET",
    "FeatureStore",
    "InflightLeases",
    "PrecomputeReport",
    "SHARD_SPACE",
    "collect_chains",
    "partition_keys",
    "payload_checksum",
    "precompute_msas",
    "shard_counts",
    "shard_for",
    "shard_ranges",
]
