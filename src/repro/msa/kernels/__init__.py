"""Batched DP kernels: the scan hot loop as length-bucketed tensors.

``repro.msa.dp`` scores one target at a time; this package scores a
worker's whole share of a chain's database scans at once.
:func:`batch_targets` buckets encoded sequences by power-of-two padded
length, and the three batched kernels (:func:`msv_filter_batch`,
:func:`calc_band_9_batch`, :func:`calc_band_10_batch`) advance the
whole bucket per profile row, gathering that row's emissions from
:func:`emission_gather`'s score table as it runs.  :func:`run_cascade`
chains them with survivor compaction between stages over a group of
shards and splits the outcome back per shard;
:func:`scan_shard_group` runs it over a group of protein or RNA
shards, from one database or several, the only scan path a search
runs, and
:func:`scan_shard` over one shard.  Everything is
bit-identical to the scalar kernels, which stay as the ``==`` oracle
(``reference_scan_*_shard``) — see docs/kernels.md for the design and
the argument for exactness.
"""

from .batch import (
    PAD,
    TargetBatch,
    batch_targets,
    emission_gather,
    pad_length,
    pad_waste,
    scan_waste_summary,
)
from .batched import (
    BatchKernelResult,
    calc_band_9_batch,
    calc_band_10_batch,
    msv_filter_batch,
    viterbi_panel_scores,
)
from .cascade import (
    Hit,
    ScanGates,
    ShardScanResult,
    run_cascade,
    scan_shard,
    scan_shard_group,
    window_bounds,
)

__all__ = [
    "BatchKernelResult",
    "Hit",
    "PAD",
    "ScanGates",
    "ShardScanResult",
    "TargetBatch",
    "batch_targets",
    "calc_band_9_batch",
    "calc_band_10_batch",
    "emission_gather",
    "msv_filter_batch",
    "pad_length",
    "pad_waste",
    "run_cascade",
    "scan_shard",
    "scan_shard_group",
    "scan_waste_summary",
    "viterbi_panel_scores",
    "window_bounds",
]
