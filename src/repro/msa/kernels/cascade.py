"""Batched acceleration cascade: MSV → Viterbi → Forward over shards.

The one scan path of both searches: :func:`scan_shard_group` runs a
group of jackhmmer (protein) or nhmmer (RNA) shards through one
:func:`run_cascade`, and :func:`scan_shard` is its one-shard case.
It is the same three-stage filter pipeline as the scalar reference
loops (:func:`repro.msa.jackhmmer.reference_scan_protein_shard`,
:func:`repro.msa.nhmmer.reference_scan_rna_shard`), but batched across
every shard of the group, so the kernels see a worker's whole share
of a chain's databases at once.  The shards of a group share the
profile, the Gumbel fit and the gates; each shard brings its own
database size, and every target is gated with the size of the
database it came from.  A target is scanned as one or more windows: a
protein target whole, an RNA target in overlapping nhmmer windows.
MSV scores every window in one flat, unpadded sweep; each target
keeps its best window, the survivors of the MSV gate are bucketed by
length for Viterbi, and the survivors of the Viterbi gate are
compacted out of their batch before Forward runs.  Each kernel
gathers a profile row's emissions when that row runs, so no stage
holds an emission tensor.  Counters, hits and padding waste are split
back per shard by the shard each window came from, so every shard's
result is exactly the one its own reference loop reports.

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
from .batch import batch_targets, pad_waste
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
    #: Per-bucket ``(padded_len, targets, real_tokens)`` of every
    #: window this shard scans (the full candidate set, before
    #: survivor compaction) under the power-of-two bucket model; MSV
    #: sweeps the windows unpadded and no longer pays it.  A pure
    #: function of the shard's own window lengths, whichever group
    #: the shard was scanned in, so the reference loops report the
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

    ``payload`` is ``(shard_index, profile, gumbel, targets, gates,
    db_size)`` with ``targets`` a list of ``(name, seq, encoded)``
    triples and ``gates`` a :class:`ScanGates`.  The result equals the
    molecule type's ``reference_scan_*_shard`` under ``==`` (see
    docs/kernels.md).
    """
    (result,) = scan_shard_group([payload])
    return result


def scan_shard_group(payloads) -> List[ShardScanResult]:
    """One cascade over a group of shards.

    Module-level so the fork pool can run it; ``payloads`` are
    :func:`scan_shard` payloads sharing one profile, Gumbel fit and
    gates.  They may come from several databases: each shard's targets
    are gated with its own payload's database size.  Each target's
    result depends only on (profile, gumbel, gates, database size,
    target), so grouping never changes a result: the returned list
    holds, in payload order, exactly what :func:`scan_shard` returns
    for each payload.
    """
    if not payloads:
        return []
    _, profile, gumbel, _, gates, _ = payloads[0]
    return run_cascade(
        profile, gumbel,
        [
            (shard_index, db_size, [
                (name, seq, [
                    encoded[lo:hi]
                    for lo, hi in window_bounds(len(encoded), gates.window)
                ])
                for name, seq, encoded in targets
            ])
            for shard_index, _, _, targets, _, db_size in payloads
        ],
        gates,
    )


def run_cascade(
    profile: ProfileHMM,
    gumbel: GumbelParams,
    shards: Sequence[
        Tuple[int, int, Sequence[Tuple[str, str, Sequence[np.ndarray]]]]
    ],
    gates: ScanGates,
) -> List[ShardScanResult]:
    """Batched MSV → Viterbi → Forward over ``(shard_index, db_size,
    targets)`` triples, ``targets`` being ``(name, seq, windows)``,
    with survivor compaction between stages.  Every E-value gate uses
    the ``db_size`` of the target's own shard.  Returns one
    :class:`ShardScanResult` per shard, in the given order."""
    targets = [target for _, _, shard in shards for target in shard]
    # Position in ``shards`` of every target and of every window.
    target_shard = [
        k for k, (_, _, shard) in enumerate(shards) for _ in shard
    ]
    target_db_size = [shards[k][1] for k in target_shard]
    windows: List[np.ndarray] = []
    window_shard: List[int] = []
    for k, (_, _, ws) in zip(target_shard, targets):
        windows.extend(ws)
        window_shard.extend([k] * len(ws))
    msv_cells = [0] * len(shards)
    vit_cells = [0] * len(shards)
    fwd_cells = [0] * len(shards)
    msv_pass = [0] * len(shards)
    vit_pass = [0] * len(shards)
    msv = msv_filter_batch(profile, windows)
    msv_scores = msv.scores.tolist()
    for shard, cells in zip(window_shard, msv.cells.tolist()):
        msv_cells[shard] += cells

    # Each target keeps its best-MSV window; ``max`` keeps the first
    # maximum, as the reference loop's strict ``>`` does.
    survivors: List[Tuple[int, int]] = []   # (target, window)
    start = 0
    for target, (_, _, ws) in enumerate(targets):
        if ws:
            best = max(range(start, start + len(ws)),
                       key=msv_scores.__getitem__)
            evalue = gumbel.evalue(msv_scores[best], target_db_size[target])
            if not evalue > gates.msv_evalue:
                survivors.append((target, best))
                msv_pass[target_shard[target]] += 1
        start += len(ws)

    accepted: List[Tuple[int, float, float, float]] = []
    for batch in batch_targets([windows[w] for _, w in survivors]):
        vit = calc_band_9_batch(profile, batch, band=gates.band)
        keep = []
        for row, index in enumerate(batch.indices):
            target = survivors[index][0]
            shard = target_shard[target]
            vit_cells[shard] += int(vit.cells[row])
            evalue = gumbel.evalue(float(vit.scores[row]),
                                   target_db_size[target])
            if not evalue > gates.viterbi_evalue:
                keep.append(row)
                vit_pass[shard] += 1
        if not keep:
            continue
        vit_scores = vit.scores[keep]
        if len(keep) < batch.size:
            batch = batch.take(keep)
        fwd = calc_band_10_batch(profile, batch, band=gates.band)
        for row, index in enumerate(batch.indices):
            target = survivors[index][0]
            fwd_cells[target_shard[target]] += int(fwd.cells[row])
            evalue = gumbel.evalue(float(fwd.scores[row]),
                                   target_db_size[target])
            if not evalue > gates.final_evalue:
                accepted.append((
                    target,
                    float(vit_scores[row]),
                    float(fwd.scores[row]),
                    evalue,
                ))

    accepted.sort(key=lambda item: item[0])
    hits: List[List[Hit]] = [[] for _ in shards]
    for target, vit_score, fwd_score, evalue in accepted:
        name, seq, _ = targets[target]
        hits[target_shard[target]].append(
            Hit(name, seq, vit_score, fwd_score, evalue)
        )
    return [
        ShardScanResult(
            shard_index=shard_index,
            hits=tuple(hits[k]),
            candidates=len(shard),
            msv_pass=msv_pass[k],
            vit_pass=vit_pass[k],
            msv_cells=msv_cells[k],
            vit_cells=vit_cells[k],
            fwd_cells=fwd_cells[k],
            pad_waste=pad_waste(
                len(window) for _, _, ws in shard for window in ws
            ),
        )
        for k, (shard_index, _, shard) in enumerate(shards)
    ]
