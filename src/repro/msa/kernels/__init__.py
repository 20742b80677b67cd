"""Batched DP kernels: the scan hot loop as length-bucketed tensors.

``repro.msa.dp`` scores one target at a time; this package scores a
whole shard at once.  :func:`batch_targets` buckets encoded sequences
by power-of-two padded length, :func:`emission_tensor` builds one
``(L, B, P)`` score tensor per bucket, and the three batched kernels
(:func:`msv_filter_batch`, :func:`calc_band_9_batch`,
:func:`calc_band_10_batch`) advance the whole bucket per profile row.
:func:`run_cascade` chains them with survivor compaction between
stages, and :func:`scan_shard` runs it over one protein or RNA shard;
it is the only scan path a search runs.  Everything is
bit-identical to the scalar kernels, which stay as the ``==`` oracle
(``reference_scan_*_shard``) — see docs/kernels.md for the design and
the argument for exactness.
"""

from .batch import (
    PAD,
    TargetBatch,
    batch_targets,
    emission_tensor,
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
    "emission_tensor",
    "msv_filter_batch",
    "pad_length",
    "pad_waste",
    "run_cascade",
    "scan_shard",
    "scan_waste_summary",
    "viterbi_panel_scores",
    "window_bounds",
]
