"""Batched acceleration cascade: MSV → Viterbi → Forward over a shard.

The one scan path of both searches: :func:`scan_shard` runs a
jackhmmer (protein) or nhmmer (RNA) shard through :func:`run_cascade`.
It is the same three-stage filter pipeline as the scalar reference
loops (:func:`repro.msa.jackhmmer.reference_scan_protein_shard`,
:func:`repro.msa.nhmmer.reference_scan_rna_shard`), but over length
buckets.  A target is scanned as one or more windows: a protein target
whole, an RNA target in overlapping nhmmer windows.  MSV scores every
window; each target keeps its best window, and the survivors of the
MSV gate are re-bucketed so each bucket's emission tensor is computed
**once** and shared by Viterbi and Forward, with the survivors of the
Viterbi gate compacted (rows of the batch *and* lanes of the emission
tensor) before Forward runs.

Gating decisions call :meth:`GumbelParams.evalue` per target with the
same floats the scalar path sees, so the survivor sets — and therefore
every downstream statistic — are bit-identical, not just numerically
close.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..profile_hmm import ProfileHMM
from .batch import batch_targets, emission_tensor
from .batched import calc_band_9_batch, calc_band_10_batch, msv_filter_batch

if TYPE_CHECKING:
    from ..evalue import GumbelParams


class ScanGates(NamedTuple):
    """Band, E-value gates and window length of one database scan.

    A target passes a gate unless its E-value is ``>`` the threshold,
    so ``viterbi_evalue=math.inf`` is no Viterbi gate at all (nhmmer).
    ``window=None`` scans each target whole (jackhmmer).
    """

    band: int
    msv_evalue: float
    viterbi_evalue: float
    final_evalue: float
    window: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class Hit:
    """One database sequence accepted by the full cascade."""

    target_name: str
    target_sequence: str
    viterbi_score: float
    forward_score: float
    evalue: float


@dataclasses.dataclass(frozen=True)
class ShardScanResult:
    """One shard's cascade outcome: everything the serial loop would
    have accumulated while scanning the shard's record range."""

    shard_index: int
    hits: Tuple[Hit, ...]
    candidates: int
    msv_pass: int
    vit_pass: int
    msv_cells: int
    vit_cells: int
    fwd_cells: int
    #: Per-bucket ``(padded_len, targets, real_tokens)`` of the MSV
    #: batches over every scanned window (the full candidate set,
    #: before survivor compaction: waste is paid by the scan, not by
    #: what clears the gates).  A pure function of window lengths under
    #: the power-of-two geometry, so the reference loops report the
    #: same value and the ``==`` oracle contract covers it too.
    pad_waste: Tuple[Tuple[int, int, int], ...] = ()


def window_bounds(
    length: int, window: Optional[int]
) -> List[Tuple[int, int]]:
    """``[start, end)`` scan windows over a length-``length`` target.

    ``window=None``, or a target no longer than one window, is scanned
    whole; longer targets are split into windows overlapping by half.
    The production scan slices the encoded array and the RNA reference
    loop slices the raw string — residue encoding is per-character, so
    the two are interchangeable.
    """
    if window is None or length <= window:
        return [(0, length)]
    step = window // 2
    return [
        (start, min(start + window, length))
        for start in range(0, length - step, step)
    ]


def scan_shard(payload) -> ShardScanResult:
    """Run the batched cascade over one protein or RNA shard.

    Module-level and driven by one picklable payload tuple so the fork
    pool can run it; each target's result depends only on (profile,
    gumbel, target), so shards are pure and order-independent.
    ``payload`` is ``(shard_index, profile, gumbel, targets, gates,
    db_size)`` with ``targets`` a list of ``(name, seq, encoded)``
    triples and ``gates`` a :class:`ScanGates`.  The result equals the
    molecule type's ``reference_scan_*_shard`` under ``==`` (see
    docs/kernels.md).
    """
    shard_index, profile, gumbel, targets, gates, db_size = payload
    return run_cascade(
        profile, gumbel,
        [
            (name, seq, [
                encoded[lo:hi]
                for lo, hi in window_bounds(len(encoded), gates.window)
            ])
            for name, seq, encoded in targets
        ],
        gates, db_size, shard_index=shard_index,
    )


def run_cascade(
    profile: ProfileHMM,
    gumbel: GumbelParams,
    targets: Sequence[Tuple[str, str, Sequence[np.ndarray]]],
    gates: ScanGates,
    db_size: int,
    *,
    shard_index: int = 0,
) -> ShardScanResult:
    """Batched MSV → Viterbi → Forward over ``(name, seq, windows)``
    targets, with survivor compaction between stages."""
    windows = [window for _, _, ws in targets for window in ws]
    msv_scores = [0.0] * len(windows)
    msv_cells = vit_cells = fwd_cells = 0
    pad_waste: List[Tuple[int, int, int]] = []
    for batch in batch_targets(windows):
        pad_waste.append((batch.padded_len, batch.size, batch.real_tokens))
        msv = msv_filter_batch(profile, batch)
        msv_cells += int(msv.cells.sum())
        for row, index in enumerate(batch.indices):
            msv_scores[index] = float(msv.scores[row])

    # Each target keeps its best-MSV window; ``max`` keeps the first
    # maximum, as the reference loop's strict ``>`` does.
    survivors: List[Tuple[int, int]] = []   # (target, window)
    start = 0
    for target, (_, _, ws) in enumerate(targets):
        if ws:
            best = max(range(start, start + len(ws)),
                       key=msv_scores.__getitem__)
            if not gumbel.evalue(msv_scores[best], db_size) > gates.msv_evalue:
                survivors.append((target, best))
        start += len(ws)

    accepted: List[Tuple[int, float, float, float]] = []
    vit_pass = 0
    for batch in batch_targets([windows[w] for _, w in survivors]):
        emissions = emission_tensor(profile, batch)
        vit = calc_band_9_batch(profile, batch, band=gates.band,
                                emissions=emissions)
        vit_cells += int(vit.cells.sum())
        keep = [
            row for row in range(batch.size)
            if not gumbel.evalue(float(vit.scores[row]), db_size)
            > gates.viterbi_evalue
        ]
        vit_pass += len(keep)
        if not keep:
            continue
        vit_scores = vit.scores[keep]
        if len(keep) < batch.size:
            batch = batch.take(keep)
            emissions = emissions[:, keep, :]
        fwd = calc_band_10_batch(profile, batch, band=gates.band,
                                 emissions=emissions)
        fwd_cells += int(fwd.cells.sum())
        for row in range(batch.size):
            evalue = gumbel.evalue(float(fwd.scores[row]), db_size)
            if not evalue > gates.final_evalue:
                accepted.append((
                    survivors[batch.indices[row]][0],
                    float(vit_scores[row]),
                    float(fwd.scores[row]),
                    evalue,
                ))

    accepted.sort(key=lambda item: item[0])
    return ShardScanResult(
        shard_index=shard_index,
        hits=tuple(
            Hit(targets[target][0], targets[target][1], vit_score,
                fwd_score, evalue)
            for target, vit_score, fwd_score, evalue in accepted
        ),
        candidates=len(targets),
        msv_pass=len(survivors),
        vit_pass=vit_pass,
        msv_cells=msv_cells,
        vit_cells=vit_cells,
        fwd_cells=fwd_cells,
        pad_waste=tuple(pad_waste),
    )
