"""Batched, vectorized MSV / Viterbi / Forward kernels.

These are the striped-engine counterparts of the scalar kernels in
:mod:`repro.msa.dp`: instead of a Python loop over targets, each
kernel advances the row recurrence of an entire :class:`TargetBatch`
at once, turning the scalar ``(N,)`` state vectors (``m_prev`` /
``i_prev`` / ``d_prev``) into ``(B, P)`` matrices.  This is the same
restructuring real HMMER applies with 16-lane SIMD stripes — the
paper's Table IV attributes ~55 % of MSA CPU cycles to exactly these
loops — done at the numpy level: one interpreter iteration per profile
row for the whole batch instead of one per row *per target*.

**Bit-identity contract.**  Every result (scores, DP cell counts, band
widths) is bit-identical to the scalar kernel's, not merely close:

* all elementwise recurrence arithmetic maps lane-for-lane onto the
  scalar vector ops, and padding columns are pinned to ``NEG_INF`` so
  they can never propagate into a valid lane (padding sits at the row
  end; column ``j`` only ever reads column ``j - 1``);
* ``max`` reductions are exact in any evaluation order, so masked
  whole-row maxima equal the scalar per-row maxima;
* the one rounding-sensitive reduction — Forward's row-wise
  ``log2-sum-exp`` — sums, per lane, the *same contiguous band slice*
  numpy's pairwise summation saw in the scalar kernel (the in-band
  cells of a row are contiguous and always finite), grouped across
  lanes that share identical slice geometry so the pairwise tree is
  unchanged.

The differential suite (``tests/test_kernels_batched.py``) enforces
the contract with ``==``, never ``approx``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..dp import NEG_INF, _log2addexp
from ..profile_hmm import ProfileHMM
from .batch import TargetBatch, batch_targets, emission_tensor


@dataclasses.dataclass(frozen=True)
class BatchKernelResult:
    """Per-target outcomes of one batched kernel invocation.

    Arrays align with the batch's rows; ``KernelResult(scores[b],
    cells[b], band_widths[b])`` is exactly what the scalar kernel
    returns for target ``b``.
    """

    scores: np.ndarray       # (B,) float64 bit scores
    cells: np.ndarray        # (B,) int64 DP cells computed
    band_widths: np.ndarray  # (B,) int64 half-widths (0 = unbanded)


def msv_filter_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    emissions: Optional[np.ndarray] = None,
) -> BatchKernelResult:
    """Batched ungapped Kadane diagonal scan (MSV analogue).

    One sweep over the ``(L, B, P)`` emission tensor; the running
    maximum-subarray state is a ``(B, P)`` matrix.  Padding columns
    score ``NEG_INF`` so they never win a row maximum, and zero-length
    targets come out at score 0 / 0 cells exactly like the scalar
    guard.
    """
    if emissions is None:
        emissions = emission_tensor(profile, batch)
    length = profile.length
    size, padded = batch.encoded.shape
    best = np.zeros(size)
    row_best = np.empty(size)
    running = np.zeros((size, padded))
    shifted = np.empty((size, padded))
    scratch = np.empty((size, padded))
    for i in range(length):
        shifted[:, 0] = 0.0
        np.maximum(running[:, :-1], 0.0, out=shifted[:, 1:])
        np.add(emissions[i], shifted, out=scratch)
        running, scratch = scratch, running
        running.max(axis=1, out=row_best)
        np.maximum(best, row_best, out=best)
    return BatchKernelResult(
        scores=best,
        cells=length * batch.seq_lens,
        band_widths=np.zeros(size, dtype=np.int64),
    )


def calc_band_9_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int = 64,
    emissions: Optional[np.ndarray] = None,
) -> BatchKernelResult:
    """Batched banded local Viterbi (``calc_band_9`` across a batch)."""
    return _banded_dp_batch(profile, batch, band, forward=False,
                            emissions=emissions)


def calc_band_10_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int = 64,
    emissions: Optional[np.ndarray] = None,
) -> BatchKernelResult:
    """Batched banded local Forward (``calc_band_10`` across a batch)."""
    return _banded_dp_batch(profile, batch, band, forward=True,
                            emissions=emissions)


def viterbi_panel_scores(
    profile: ProfileHMM,
    encoded_seqs: List[np.ndarray],
    band: int = 64,
) -> np.ndarray:
    """Banded Viterbi scores for a list of encodings, batched.

    The panel scorer of :func:`repro.msa.evalue.calibrate`: the
    calibration panel's sequences all share one length, so the whole
    panel lands in a single bucket and is scored in one kernel sweep.
    Scores equal ``calc_band_9(profile, enc, band).score`` bit for bit.
    """
    scores = np.empty(len(encoded_seqs))
    for batch in batch_targets(encoded_seqs):
        result = calc_band_9_batch(profile, batch, band=band)
        scores[np.asarray(batch.indices, dtype=np.int64)] = result.scores
    return scores


def _ladd_into(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """:func:`repro.msa.dp._log2addexp` into preallocated buffers.

    Performs the exact elementwise op sequence of the shared helper —
    max, min, clip, exp2, +1, log2, add, sentinel mask — so results
    are bit-identical; it only avoids the seven fresh temporaries per
    call, which dominate the Forward kernel's runtime at batch sizes.
    ``out`` and ``scratch`` must not alias ``a``, ``b``, or each other.
    """
    np.maximum(a, b, out=out)        # hi
    np.minimum(a, b, out=scratch)    # lo
    sentinel = out <= NEG_INF / 2
    np.subtract(scratch, out, out=scratch)
    np.clip(scratch, -60.0, 0.0, out=scratch)
    np.exp2(scratch, out=scratch)
    scratch += 1.0
    np.log2(scratch, out=scratch)
    out += scratch
    out[sentinel] = NEG_INF
    return out


def _forward_row_totals(
    m_row: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    highs: np.ndarray,
) -> np.ndarray:
    """Per-lane ``log2-sum-exp`` over each lane's contiguous band slice.

    Reproduces ``hi + log2(exp2(finite - hi).sum())`` bit for bit:
    ``finite`` in the scalar kernel is the boolean-compacted in-band
    row, a contiguous length-``k`` array, and numpy's pairwise
    summation tree depends only on that length — so lanes are grouped
    by identical ``(start, k)`` and summed along the last axis of a
    contiguous ``(G, k)`` block, which runs the very same per-row
    pairwise reduction.
    """
    totals = np.full(m_row.shape[0], NEG_INF)
    groups: Dict[Tuple[int, int], List[int]] = {}
    for lane in range(m_row.shape[0]):
        count = int(counts[lane])
        if count == 0:
            continue
        groups.setdefault((int(starts[lane]), count), []).append(lane)
    for (start, count), lanes in groups.items():
        rows = np.asarray(lanes, dtype=np.int64)
        block = np.ascontiguousarray(m_row[rows, start:start + count])
        hi = highs[rows]
        sums = np.exp2(block - hi[:, None]).sum(axis=1)
        totals[rows] = hi + np.log2(sums)
    return totals


def _banded_dp_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int,
    forward: bool,
    emissions: Optional[np.ndarray] = None,
) -> BatchKernelResult:
    if band <= 0:
        raise ValueError("band must be positive")
    length = profile.length
    size, padded = batch.encoded.shape
    seq_lens = batch.seq_lens
    # Per-lane effective_band(); zero-length lanes keep the requested
    # band in the reported width, exactly like the scalar guard.
    band_eff = np.minimum(band, np.maximum(length, seq_lens))
    band_widths = np.where(seq_lens == 0, band, band_eff).astype(np.int64)
    if emissions is None:
        emissions = emission_tensor(profile, batch)
    t = profile.transitions

    cols = np.arange(padded)
    valid = cols[None, :] < seq_lens[:, None]
    # Scalar _band_mask computes centers as row * (seq_len / length);
    # the same two float ops per lane keep the mask bit-identical.
    center_scale = seq_lens / max(1, length)

    m_prev = np.full((size, padded), NEG_INF)
    i_prev = np.full((size, padded), NEG_INF)
    d_prev = np.full((size, padded), NEG_INF)
    best = np.zeros(size)
    total_score = np.full(size, NEG_INF)
    cells = np.zeros(size, dtype=np.int64)

    positions = cols
    # Row-loop invariants (bit-identical to recomputing per row: the
    # scalar kernel evaluates the same float expressions every row).
    begin = np.zeros((size, padded))  # free local begin
    from_m = np.full((size, padded), NEG_INF)
    from_i = np.full((size, padded), NEG_INF)
    from_d = np.full((size, padded), NEG_INF)
    if forward:
        buf_a = np.empty((size, padded))
        buf_b = np.empty((size, padded))
        buf_c = np.empty((size, padded))
        scratch = np.empty((size, padded))
    else:
        pos_ii = positions * t.ii
        ins_base = t.mi + (positions[1:] - 1) * t.ii
    for i in range(length):
        centers = i * center_scale
        row_mask = (
            np.abs(cols[None, :] - centers[:, None]) <= band_eff[:, None]
        ) & valid
        counts = row_mask.sum(axis=1)
        cells += counts

        # --- match state ---  (column 0 of from_* stays NEG_INF)
        np.add(m_prev[:, :-1], t.mm, out=from_m[:, 1:])
        np.add(i_prev[:, :-1], t.im, out=from_i[:, 1:])
        np.add(d_prev[:, :-1], t.dm, out=from_d[:, 1:])
        if forward:
            _ladd_into(from_m, from_i, out=buf_a, scratch=scratch)
            _ladd_into(buf_a, from_d, out=buf_b, scratch=scratch)
            _ladd_into(buf_b, begin, out=buf_a, scratch=scratch)
            np.add(emissions[i], buf_a, out=buf_b)
            m_row = np.where(row_mask, buf_b, NEG_INF)
        else:
            m_row = np.maximum(np.maximum(from_m, from_i),
                               np.maximum(from_d, begin))
            m_row = emissions[i] + m_row
            m_row = np.where(row_mask, m_row, NEG_INF)

        # --- insert state ---
        i_row = np.full((size, padded), NEG_INF)
        if forward:
            # Single MI step (II self-loop omitted; see dp docstring).
            np.add(m_row[:, :-1], t.mi, out=i_row[:, 1:])
            i_row[~row_mask] = NEG_INF
        else:
            # Exact II chain via a per-lane max-scan.
            adjusted = m_row - pos_ii
            running = np.maximum.accumulate(adjusted, axis=1)
            i_row[:, 1:] = ins_base + running[:, :-1]
            i_row = np.maximum(i_row, NEG_INF)
            i_row = np.where(row_mask, i_row, NEG_INF)

        # --- delete state ---
        if forward:
            np.add(m_prev, t.md, out=buf_a)
            np.add(d_prev, t.dd, out=buf_c)
            d_row = np.empty((size, padded))
            _ladd_into(buf_a, buf_c, out=d_row, scratch=scratch)
            d_row[~row_mask] = NEG_INF
        else:
            d_row = np.maximum(m_prev + t.md, d_prev + t.dd)
            d_row = np.where(row_mask, d_row, NEG_INF)

        if forward:
            # In-band cells are always finite and out-of-band cells are
            # exactly NEG_INF, so the masked row max IS the scalar
            # kernel's max over its compacted finite values.
            highs = m_row.max(axis=1)
            starts = row_mask.argmax(axis=1)
            row_totals = _forward_row_totals(m_row, starts, counts, highs)
            accumulated = _log2addexp(total_score, row_totals)
            total_score = np.where(counts > 0, accumulated, total_score)
        else:
            best = np.maximum(best, m_row.max(axis=1))

        m_prev, i_prev, d_prev = m_row, i_row, d_row

    if forward:
        scores = np.where(total_score <= NEG_INF / 2, 0.0, total_score)
    else:
        scores = best
    return BatchKernelResult(
        scores=scores, cells=cells, band_widths=band_widths
    )
