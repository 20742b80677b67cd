"""Batched, vectorized MSV / Viterbi / Forward kernels.

These are the striped-engine counterparts of the scalar kernels in
:mod:`repro.msa.dp`: instead of a Python loop over targets, each
kernel advances the row recurrence of many targets at once.  MSV lays
every window end to end in one flat, unpadded ``(n,)`` state.  The
banded kernels take an entire :class:`TargetBatch`, turning the scalar
``(N,)`` state vectors (``m_prev`` / ``i_prev`` / ``d_prev``) into
matrices over the whole batch; they hold them ``(column, lane)`` and
run each row only over the union of its lanes' band windows, not over
the padded width.  This is the same restructuring real HMMER applies
with 16-lane SIMD stripes — the paper's Table IV attributes ~55 % of
MSA CPU cycles to exactly these loops — done at the numpy level: one
interpreter iteration per profile row for the whole batch instead of
one per row *per target*.

**Bit-identity contract.**  Every result (scores, DP cell counts, band
widths) is bit-identical to the scalar kernel's, not merely close:

* all elementwise recurrence arithmetic maps lane-for-lane onto the
  scalar vector ops, and padding columns are pinned to ``NEG_INF`` so
  they can never propagate into a valid lane (padding sits at the row
  end; column ``j`` only ever reads column ``j - 1``); MSV's flat
  state has no padding, and resets each window's first column to the
  scalar kernel's ``0.0`` after the shift;
* columns outside a row's window are never computed and hold
  ``NEG_INF``, which is what computing them would give: a finite
  transition score added to ``-1e30`` rounds back to ``-1e30``;
* ``max`` reductions are exact in any evaluation order, so masked
  window maxima equal the scalar per-row maxima;
* the one rounding-sensitive reduction — Forward's row-wise
  ``log2-sum-exp`` — sums, per lane and row, the *same contiguous
  band slice* numpy's pairwise summation saw in the scalar kernel
  (the in-band cells of a row are contiguous and always finite),
  each slice one ``reduceat`` segment led by a cell that adds exactly
  ``0.0``, so the pairwise tree is unchanged; it runs once per
  :data:`FORWARD_FOLD_ROWS` rows and folds the row totals into the
  score in row order.

The differential suite (``tests/test_kernels_batched.py``) enforces
the contract with ``==``, never ``approx``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..dp import NEG_INF
from ..profile_hmm import ProfileHMM
from .batch import TargetBatch, batch_targets, emission_gather


@dataclasses.dataclass(frozen=True)
class BatchKernelResult:
    """Per-target outcomes of one batched kernel invocation.

    Arrays align with the batch's rows (with the input windows, for
    :func:`msv_filter_batch`); ``KernelResult(scores[b], cells[b],
    band_widths[b])`` is exactly what the scalar kernel returns for
    target ``b``.
    """

    scores: np.ndarray       # (B,) float64 bit scores
    cells: np.ndarray        # (B,) int64 DP cells computed
    band_widths: np.ndarray  # (B,) int64 half-widths (0 = unbanded)


#: Most columns one MSV sweep holds.  Windows are swept in chunks of
#: at most this many columns laid end to end, so the sweep's four
#: ``(n,)`` float buffers and its column index stay bounded however
#: many windows a cascade scans (an RNA chain's windows over its three
#: databases reach 447); a window longer than this is swept alone.
#: Windows never interact, so chunking changes no score.
MSV_COLUMNS = 65_536


def msv_filter_batch(
    profile: ProfileHMM,
    encoded_seqs: Sequence[np.ndarray],
) -> BatchKernelResult:
    """Ungapped Kadane diagonal scan (MSV analogue) over many windows.

    Results are in input order.  The windows are laid end to end with
    no padding and swept together, one pass over the profile rows per
    chunk of at most :data:`MSV_COLUMNS` columns.  Zero-length windows
    never enter a sweep: they score ``+0.0`` over 0 cells, exactly
    like the scalar guard.
    """
    lengths = np.array([len(enc) for enc in encoded_seqs], dtype=np.int64)
    # The score table plus a zeros column that wildcards (-1) read.
    table = np.concatenate(
        [profile.match_scores, np.zeros((profile.length, 1))], axis=1
    )
    scores = np.zeros(len(lengths))
    for chunk in _msv_chunks(lengths.tolist()):
        scores[chunk] = _msv_sweep(table, [encoded_seqs[k] for k in chunk])
    return BatchKernelResult(
        scores=scores,
        cells=profile.length * lengths,
        band_widths=np.zeros(len(lengths), dtype=np.int64),
    )


def _msv_chunks(lengths: Sequence[int]) -> List[List[int]]:
    """Positions of the nonempty windows, cut in input order into runs
    of at most :data:`MSV_COLUMNS` columns; a longer window runs alone."""
    chunks: List[List[int]] = []
    chunk: List[int] = []
    columns = 0
    for position, length in enumerate(lengths):
        if not length:
            continue
        if chunk and columns + length > MSV_COLUMNS:
            chunks.append(chunk)
            chunk, columns = [], 0
        chunk.append(position)
        columns += length
    if chunk:
        chunks.append(chunk)
    return chunks


def _msv_sweep(table: np.ndarray, windows: List[np.ndarray]) -> np.ndarray:
    """Every window's MSV score: one sweep over the profile rows of
    ``table`` with the nonempty ``windows`` laid end to end."""
    index = np.concatenate(windows)
    index[index < 0] = table.shape[1] - 1
    sizes = np.array([len(window) for window in windows], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    columns = index.size
    emit = np.empty(columns)
    running = np.zeros(columns)
    shifted = np.empty(columns)
    # Elementwise max of every row's running state; a max is exact in
    # any order, so its maximum over a window is the best row max.
    peak = np.zeros(columns)
    for row in table:
        # Every index is in range, so "clip" never clips; it only spares
        # the temporary "raise" mode would buffer ``out`` through.
        np.take(row, index, out=emit, mode="clip")
        # The diagonal shift as one contiguous pass over all windows; it
        # carries each window's last column into the next one's first,
        # which the reset at every window start then overwrites.
        np.maximum(running[:-1], 0.0, out=shifted[1:])
        shifted[starts] = 0.0
        np.add(emit, shifted, out=running)
        np.maximum(peak, running, out=peak)
    return np.maximum.reduceat(peak, starts)


def calc_band_9_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int = 64,
) -> BatchKernelResult:
    """Batched banded local Viterbi (``calc_band_9`` across a batch)."""
    return _banded_dp_batch(profile, batch, band, forward=False)


def calc_band_10_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int = 64,
) -> BatchKernelResult:
    """Batched banded local Forward (``calc_band_10`` across a batch)."""
    return _banded_dp_batch(profile, batch, band, forward=True)


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


def _band_bounds(
    length: int, seq_lens: np.ndarray, band_eff: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's band ``(starts, counts)``, each ``(L, B)``.

    Lane ``b``'s band on row ``i`` is the columns ``j < seq_len`` the
    scalar :func:`repro.msa.dp._band_mask` keeps: ``|j - c| <= band``
    in floating point, with ``c = i * (seq_len / length)``.  ``fl(j -
    c)`` never decreases as ``j`` grows, so the band is one run of
    columns ``[a, z]``: ``a`` is the first column where the difference
    reaches ``-band`` and ``z`` the last where it stays within
    ``+band``.  Rounding moves each of them at most one column from
    ``ceil(c - band)`` and ``floor(c + band)`` (themselves rounded by
    at most one), so evaluating that same float test on the five
    columns around each estimate finds both edges exactly, without
    building an ``(L, N)`` mask.  ``starts`` is 0 where ``counts`` is 0.
    """
    centers = np.arange(length)[:, None] * (seq_lens / max(1, length))

    def candidates(estimate: np.ndarray):
        cols = estimate[:, :, None] + np.arange(-2.0, 3.0)
        inside = np.abs(cols - centers[:, :, None]) <= band_eff[:, None]
        return cols, inside

    cols, inside = candidates(np.ceil(centers - band_eff))
    first = cols[:, :, 0] + inside.argmax(axis=2)
    cols, inside = candidates(np.floor(centers + band_eff))
    last = cols[:, :, -1] - inside[:, :, ::-1].argmax(axis=2)
    starts = np.maximum(first, 0).astype(np.int64)
    ends = np.minimum(last + 1, seq_lens).astype(np.int64)
    counts = np.maximum(ends - starts, 0)
    return np.where(counts > 0, starts, 0), counts


def _ladd_into(
    a: np.ndarray, b, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """:func:`repro.msa.dp._log2addexp` into preallocated buffers.

    Runs the helper's elementwise op sequence — max, min, clamp, exp2,
    +1, log2, add — without a single fresh temporary, and bit for bit:

    * ``lo - hi`` is never positive, so the helper's ``clip(.., -60,
      0)`` is its lower clamp alone;
    * the helper's final sentinel mask is left out.  Every operand the
      kernel passes is a finite score or exactly ``NEG_INF``; where
      both are ``NEG_INF`` the sum is ``-1e30 + log2(2) == -1e30``, so
      the mask could only rewrite ``NEG_INF`` with itself.

    ``b`` may be a scalar; ``out`` and ``scratch`` must not alias
    ``a``, ``b``, or each other.
    """
    np.maximum(a, b, out=out)        # hi
    np.minimum(a, b, out=scratch)    # lo
    np.subtract(scratch, out, out=scratch)
    np.maximum(scratch, -60.0, out=scratch)
    np.exp2(scratch, out=scratch)
    np.add(scratch, 1.0, out=scratch)
    np.log2(scratch, out=scratch)
    np.add(out, scratch, out=out)
    return out


#: Profile rows whose M windows Forward holds before folding their
#: ``log2-sum-exp`` totals into the score in one pass.  A block costs
#: ``K * widest * B`` floats; holding every row of a profile instead
#: raised perfbench ``target-run``'s peak RSS by about 7%.
FORWARD_FOLD_ROWS = 32


def _fold_forward_rows(
    block: np.ndarray,
    rel_starts: np.ndarray,
    counts: np.ndarray,
    total_score: np.ndarray,
) -> None:
    """Fold a block of rows' per-lane ``log2-sum-exp`` into the score.

    ``block[r]`` is row ``r``'s M window ``(1 + columns, lanes)``
    behind a column 0 pinned to ``NEG_INF``; lane ``b``'s band on that
    row is the ``counts[r, b]`` columns after ``rel_starts[r, b]``.
    Reproduces the scalar kernel's ``hi + log2(exp2(finite -
    hi).sum())`` bit for bit: ``finite`` there is the boolean-compacted
    in-band row, a contiguous length-``k`` array.

    Every ``(row, lane)`` with cells becomes one segment of a single
    flat gather: the ``NEG_INF`` cell just before its band (column 0,
    or a window cell the row's mask pinned), then the band.  The lead
    cell never wins ``maximum.reduceat``, since in-band cells are
    finite, and ``exp2(NEG_INF - hi)`` is exactly ``0.0``.  So
    ``add.reduceat`` starts each segment from ``0.0`` and adds the
    band through numpy's pairwise tree, which is how ``.sum()`` of a
    length-``k`` array starts from the identity and adds the same
    cells: the tests pin this with ``==`` at the tree's edges.

    The totals then fold into ``total_score`` in row order.  A lane
    without in-band cells on a row folds ``NEG_INF``, which leaves its
    score unchanged bit for bit: ``1 + 2**-60`` rounds to 1, and
    ``NEG_INF`` folded into ``NEG_INF`` rounds back to ``NEG_INF``.
    """
    _, width, lanes = block.shape
    rows, cols = np.nonzero(counts)
    totals = np.full(counts.shape, NEG_INF)
    if rows.size:
        sizes = counts[rows, cols] + 1
        firsts = np.cumsum(sizes) - sizes
        leads = (rows * width + rel_starts[rows, cols]) * lanes + cols
        # Cell c of a segment lies c columns, c * lanes floats, after
        # its lead cell: flat cell n of the gather is at ``n * lanes``
        # plus its segment's ``lead - first * lanes``.
        where = np.arange(0, int(sizes.sum()) * lanes, lanes)
        where += np.repeat(leads - firsts * lanes, sizes)
        cells = block.reshape(-1).take(where)
        del where
        hi = np.maximum.reduceat(cells, firsts)
        cells -= np.repeat(hi, sizes)
        sums = np.add.reduceat(np.exp2(cells, out=cells), firsts)
        totals[rows, cols] = hi + np.log2(sums)
    score, acc = total_score, np.empty_like(total_score)
    scratch = np.empty_like(total_score)
    for row_totals in totals:
        _ladd_into(score, row_totals, out=acc, scratch=scratch)
        score, acc = acc, score
    if score is not total_score:
        np.copyto(total_score, score)


def _banded_dp_batch(
    profile: ProfileHMM,
    batch: TargetBatch,
    band: int,
    forward: bool,
) -> BatchKernelResult:
    """Banded Viterbi/Forward over the union of the lanes' band windows.

    Row ``i`` computes only columns ``[lo, hi)``, the smallest window
    covering every lane's band on that row; cells in the window but off
    a lane's band are pinned to ``NEG_INF`` exactly as the scalar
    kernel's mask pins them.  Cells outside the window are never
    written and stay ``NEG_INF``: every finite transition score added
    to ``-1e30`` rounds back to ``-1e30``, so computing them would
    reproduce the sentinel bit for bit (docs/kernels.md).

    State is laid out ``(column, lane)``, so any window of columns is
    one contiguous block and every row op runs as a single flat loop.
    Each row gathers its window's emissions into the same layout, so
    no array here scales with ``L * B * P``.
    """
    if band <= 0:
        raise ValueError("band must be positive")
    length = profile.length
    size, padded = batch.encoded.shape
    seq_lens = batch.seq_lens
    # Per-lane effective_band(); zero-length lanes keep the requested
    # band in the reported width, exactly like the scalar guard.
    band_eff = np.minimum(band, np.maximum(length, seq_lens))
    band_widths = np.where(seq_lens == 0, band, band_eff).astype(np.int64)
    table, index = emission_gather(profile, batch)
    index_t = np.ascontiguousarray(index.T)   # (column, lane)
    t = profile.transitions

    starts, counts = _band_bounds(length, seq_lens, band_eff)
    cells = counts.sum(axis=0)
    present = counts > 0
    ends = starts + counts
    # Row i computes columns [lo, hi), the union of its lanes' bands.
    los = np.where(present, starts, padded).min(axis=1)
    his = ends.max(axis=1)
    # Rows where every lane's band is the whole window need no mask.
    unmasked = ((starts == los[:, None]) & (ends == his[:, None])).all(axis=1)
    rel_starts = starts - los[:, None]
    col_ids = np.arange(padded)[:, None]

    # M/I/D state of two rows, (state, 1 + column, lane): row i writes
    # buffer i % 2 and reads row i - 1 from the other.  Buffer column 0
    # is a permanent NEG_INF pad standing for DP column -1, so "column
    # j - 1" is the same slice shifted by one, with no edge case.
    state = np.full((2, 3, padded + 1, size), NEG_INF)
    held = [(0, 0), (0, 0)]  # column window each buffer last wrote
    into_match = np.array([t.mm, t.im, t.dm])[:, None, None]
    into_delete = np.array([t.md, t.dd])[:, None, None]
    # Scratch for one window, (columns, lanes).
    widest = int((his - los).max(initial=0))
    emissions = np.empty((widest, size))
    diagonal = np.empty((3, widest, size))
    vertical = np.empty((2, widest, size))
    work_a = np.empty((widest, size))
    work_b = np.empty((widest, size))
    scratch = np.empty((widest, size))
    below = np.empty((widest, size), dtype=bool)
    outside = np.empty((widest, size), dtype=bool)
    # Row-loop invariants in buffer columns (k = column + 1), the same
    # float expressions the scalar kernel evaluates every row.
    pos_ii = (np.arange(-1, padded) * t.ii)[:, None]
    ins_base = (t.mi + (np.arange(padded) - 1) * t.ii)[:, None]

    best = np.zeros(size)
    row_best = np.empty(size)
    total_score = np.full(size, NEG_INF)
    # Forward's M windows of the current block of rows, (row, column,
    # lane); folded every FORWARD_FOLD_ROWS rows and after the last.
    # Column 0 stays NEG_INF: the lead cell of bands starting at 0.
    fold_rows = FORWARD_FOLD_ROWS if forward else 0
    block = np.empty((fold_rows, 1 + widest, size))
    block[:, 0] = NEG_INF

    def fold(first: int, end: int) -> None:
        _fold_forward_rows(block[:end - first], rel_starts[first:end],
                           counts[first:end], total_score)

    for i, (lo, hi, whole) in enumerate(
        zip(los.tolist(), his.tolist(), unmasked.tolist())
    ):
        if fold_rows and i and i % fold_rows == 0:
            fold(i - fold_rows, i)
        cur, prev = state[i & 1], state[(i & 1) ^ 1]
        # This buffer still holds row i - 2's window: clear the part of
        # it the new window will not overwrite.
        old_lo, old_hi = held[i & 1]
        if old_lo < lo:
            cur[:, old_lo + 1:min(old_hi, lo) + 1] = NEG_INF
        if hi < old_hi:
            cur[:, max(old_lo, hi) + 1:old_hi + 1] = NEG_INF
        held[i & 1] = (lo, hi)
        if hi <= lo:
            continue
        width = hi - lo
        win = slice(lo + 1, hi + 1)
        mask = None
        if not whole:
            mask = outside[:width]
            np.less(col_ids[lo:hi], starts[i], out=below[:width])
            np.greater_equal(col_ids[lo:hi], ends[i], out=mask)
            np.logical_or(mask, below[:width], out=mask)
        m_row, i_row, d_row = cur[0, win], cur[1, win], cur[2, win]
        emit = emissions[:width]
        # In-range indices: "clip" only skips "raise"'s buffered copy.
        np.take(table[i], index_t[lo:hi], out=emit, mode="clip")

        # --- match state ---
        from3 = diagonal[:, :width]
        np.add(prev[:, lo:hi], into_match, out=from3)
        if forward:
            a, b = work_a[:width], work_b[:width]
            s = scratch[:width]
            _ladd_into(from3[0], from3[1], out=a, scratch=s)
            _ladd_into(a, from3[2], out=b, scratch=s)
            _ladd_into(b, 0.0, out=a, scratch=s)  # free local begin
            np.add(emit, a, out=m_row)
        else:
            np.maximum.reduce(from3, axis=0, out=m_row)
            np.maximum(m_row, 0.0, out=m_row)  # free local begin
            np.add(emit, m_row, out=m_row)
        if mask is not None:
            np.copyto(m_row, NEG_INF, where=mask)

        # --- insert state ---  (reads this row's M at column j - 1)
        if forward:
            # Single MI step (II self-loop omitted; see dp docstring).
            np.add(cur[0, lo:hi], t.mi, out=i_row)
        else:
            # Exact II chain via a per-lane max-scan.  Left of the
            # window M is NEG_INF, so the skipped scan prefix is
            # exactly -1e30 and the window's own pad cell stands in.
            scan = scratch[:width]
            np.subtract(cur[0, lo:hi], pos_ii[lo:hi], out=scan)
            np.maximum.accumulate(scan, axis=0, out=scan)
            np.add(ins_base[lo:hi], scan, out=i_row)
            np.maximum(i_row, NEG_INF, out=i_row)

        # --- delete state ---
        down = vertical[:, :width]
        np.add(prev[::2, win], into_delete, out=down)
        if forward:
            _ladd_into(down[0], down[1], out=d_row, scratch=scratch[:width])
        else:
            np.maximum(down[0], down[1], out=d_row)
        if mask is not None:
            np.copyto(cur[1:, win], NEG_INF, where=mask)

        if forward:
            block[i % fold_rows, 1:width + 1] = m_row
        else:
            np.maximum.reduce(m_row, axis=0, out=row_best)
            np.maximum(best, row_best, out=best)

    if forward:
        fold((length - 1) // fold_rows * fold_rows, length)
        scores = np.where(total_score <= NEG_INF / 2, 0.0, total_score)
    else:
        scores = best
    return BatchKernelResult(
        scores=scores, cells=cells, band_widths=band_widths
    )
