"""Batched acceleration cascade: MSV → Viterbi → Forward over a shard.

The scan path of :func:`repro.msa.jackhmmer.scan_protein_shard`: the
same three-stage filter pipeline as the scalar reference loop
(:func:`repro.msa.jackhmmer.reference_scan_protein_shard`), but over
length buckets: each bucket's emission tensor is computed **once** and
shared by all three stages, and survivors of each E-value gate are
compacted (rows of the batch *and* lanes of the emission tensor)
before the next, more expensive kernel runs.

Gating decisions call :meth:`GumbelParams.evalue` per target with the
same floats the scalar path sees, so the survivor sets — and therefore
every downstream statistic — are bit-identical, not just numerically
close.  Results come back as plain tuples (no ``Hit`` import, keeping
this package free of a cycle with :mod:`repro.msa.jackhmmer`).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from ..profile_hmm import ProfileHMM
from .batch import TargetBatch, batch_targets, emission_tensor
from .batched import calc_band_9_batch, calc_band_10_batch, msv_filter_batch

if TYPE_CHECKING:
    from ..evalue import GumbelParams


@dataclasses.dataclass(frozen=True)
class CascadeResult:
    """Shard-level outcome of the batched cascade.

    ``accepted`` holds ``(target_index, viterbi_score, forward_score,
    evalue)`` tuples sorted by target index — the order the reference loop
    appends hits in.  The counters mirror
    :class:`repro.msa.jackhmmer.ShardScanResult` field for field.
    """

    accepted: Tuple[Tuple[int, float, float, float], ...]
    candidates: int
    msv_pass: int
    vit_pass: int
    msv_cells: int
    vit_cells: int
    fwd_cells: int
    #: Measured per-bucket ``(padded_len, targets, real_tokens)`` of the
    #: batches this cascade actually formed — the padded-vs-real token
    #: accounting behind the scan's bucket-waste summary.
    pad_waste: Tuple[Tuple[int, int, int], ...] = ()


def run_cascade(
    profile: ProfileHMM,
    gumbel: GumbelParams,
    encoded_seqs: Sequence[np.ndarray],
    *,
    band: int,
    msv_evalue: float,
    viterbi_evalue: float,
    final_evalue: float,
    db_size: int,
) -> CascadeResult:
    """Batched MSV → Viterbi → Forward with survivor compaction."""
    accepted: List[Tuple[int, float, float, float]] = []
    msv_cells = vit_cells = fwd_cells = 0
    msv_pass = vit_pass = 0
    pad_waste: List[Tuple[int, int, int]] = []

    for batch in batch_targets(encoded_seqs):
        # Record padded-vs-real tokens from the batch actually formed
        # (the full candidate set, before survivor compaction — waste
        # is paid by the scan, not by what clears the gates).
        pad_waste.append(
            (batch.padded_len, batch.size, batch.real_tokens)
        )
        emissions = emission_tensor(profile, batch)

        msv = msv_filter_batch(profile, batch, emissions=emissions)
        msv_cells += int(msv.cells.sum())
        keep = [
            row for row in range(batch.size)
            if not gumbel.evalue(float(msv.scores[row]), db_size)
            > msv_evalue
        ]
        msv_pass += len(keep)
        if not keep:
            continue
        batch = batch.take(keep)
        emissions = emissions[:, np.asarray(keep, dtype=np.int64), :]

        vit = calc_band_9_batch(profile, batch, band=band,
                                emissions=emissions)
        vit_cells += int(vit.cells.sum())
        keep = [
            row for row in range(batch.size)
            if not gumbel.evalue(float(vit.scores[row]), db_size)
            > viterbi_evalue
        ]
        vit_pass += len(keep)
        if not keep:
            continue
        vit_scores = vit.scores[np.asarray(keep, dtype=np.int64)]
        batch = batch.take(keep)
        emissions = emissions[:, np.asarray(keep, dtype=np.int64), :]

        fwd = calc_band_10_batch(profile, batch, band=band,
                                 emissions=emissions)
        fwd_cells += int(fwd.cells.sum())
        for row in range(batch.size):
            evalue = gumbel.evalue(float(fwd.scores[row]), db_size)
            if evalue > final_evalue:
                continue
            accepted.append((
                batch.indices[row],
                float(vit_scores[row]),
                float(fwd.scores[row]),
                evalue,
            ))

    accepted.sort(key=lambda item: item[0])
    return CascadeResult(
        accepted=tuple(accepted),
        candidates=len(encoded_seqs),
        msv_pass=msv_pass,
        vit_pass=vit_pass,
        msv_cells=msv_cells,
        vit_cells=vit_cells,
        fwd_cells=fwd_cells,
        pad_waste=tuple(pad_waste),
    )
