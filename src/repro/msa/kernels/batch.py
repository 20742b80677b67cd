"""Length-bucketed target batching for the DP kernels.

The scalar kernels in :mod:`repro.msa.dp` process one target sequence
at a time; the batched Viterbi and Forward kernels in
:mod:`repro.msa.kernels.batched` process a whole :class:`TargetBatch`
as ``(batch, ...)`` tensors (MSV sweeps its windows unpadded, end to
end, and takes no batch).  A batch groups encoded sequences whose
lengths round up to the same power of two, padded to that length:

* padding columns carry the sentinel index :data:`PAD` in
  ``encoded`` so they can never be mistaken for a wildcard (``-1``);
* :func:`emission_gather` scores padding columns at ``NEG_INF`` so no
  reduction inside a kernel can ever pick a padded cell;
* each element keeps its true ``seq_len``, which is what the kernels
  use for band geometry, validity masks, and cell accounting — the
  padded width only sets the tensor shape.

Bucketing by power of two bounds padding waste at <2x while keeping
the number of distinct tensor shapes (and therefore numpy dispatch
overhead) logarithmic in the length spread, the same trade HMMER's
striped filters make when they round targets into SIMD vector lanes.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..dp import NEG_INF
from ..profile_hmm import ProfileHMM

#: Encoded-sequence sentinel for padding columns.  Distinct from the
#: wildcard sentinel (-1): a wildcard is a real residue position that
#: scores 0 everywhere, padding is a non-position that scores NEG_INF.
PAD = -2


def pad_length(seq_len: int) -> int:
    """Power-of-two bucket width for a sequence length (minimum 1)."""
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    if seq_len <= 1:
        return 1
    return 1 << (seq_len - 1).bit_length()


@dataclasses.dataclass(frozen=True)
class TargetBatch:
    """One length bucket of encoded targets, padded to a common width.

    ``indices`` maps batch rows back to the caller's original target
    positions; survivor compaction (:meth:`take`) preserves it so the
    cascade can reassemble per-target results in database order.
    """

    indices: Tuple[int, ...]
    encoded: np.ndarray   # (B, P) int64, padding columns = PAD
    seq_lens: np.ndarray  # (B,) int64 true lengths
    padded_len: int       # P, a power of two

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def real_tokens(self) -> int:
        """Sum of true sequence lengths across the batch."""
        return int(self.seq_lens.sum())

    @property
    def padded_tokens(self) -> int:
        """Tokens the kernels actually compute over: rows × width."""
        return self.size * self.padded_len

    def take(self, keep: Sequence[int]) -> "TargetBatch":
        """Survivor compaction: the sub-batch at local row positions
        ``keep`` (in the given order), original indices preserved."""
        rows = np.asarray(list(keep), dtype=np.int64)
        return TargetBatch(
            indices=tuple(self.indices[int(i)] for i in rows),
            encoded=self.encoded[rows],
            seq_lens=self.seq_lens[rows],
            padded_len=self.padded_len,
        )


def batch_targets(
    encoded_seqs: Sequence[np.ndarray],
) -> List[TargetBatch]:
    """Group encoded sequences into power-of-two length buckets.

    Returns batches ordered by padded width; within a batch, rows keep
    the relative order of the input so merged results are reproducible.
    Empty sequences ride along in the smallest bucket (the kernels
    special-case ``seq_len == 0`` exactly like the scalar guards).
    """
    buckets: Dict[int, List[int]] = {}
    for index, enc in enumerate(encoded_seqs):
        buckets.setdefault(pad_length(len(enc)), []).append(index)
    batches: List[TargetBatch] = []
    for width in sorted(buckets):
        members = buckets[width]
        encoded = np.full((len(members), width), PAD, dtype=np.int64)
        seq_lens = np.empty(len(members), dtype=np.int64)
        for row, index in enumerate(members):
            enc = np.asarray(encoded_seqs[index], dtype=np.int64)
            encoded[row, : len(enc)] = enc
            seq_lens[row] = len(enc)
        batches.append(TargetBatch(
            indices=tuple(members),
            encoded=encoded,
            seq_lens=seq_lens,
            padded_len=width,
        ))
    return batches


def pad_waste(lengths: Iterable[int]) -> Tuple[Tuple[int, int, int], ...]:
    """Per-bucket ``(padded_len, targets, real_tokens)`` accounting.

    The power-of-two model of a scan's windows: a pure function of
    their lengths under :func:`pad_length` geometry, so the cascade and
    the scalar reference loop (which never pads) report the *same*
    numbers, which keeps the kernels' bit-identity contract.  It is
    what :func:`batch_targets` would pad every window to; MSV sweeps
    the windows unpadded and no longer pays it, and Viterbi and
    Forward bucket only the survivors of the MSV gate.
    """
    buckets: Dict[int, List[int]] = {}
    for length in lengths:
        buckets.setdefault(pad_length(int(length)), []).append(int(length))
    return tuple(
        (width, len(members), sum(members))
        for width, members in sorted(buckets.items())
    )


def scan_waste_summary(
    triples: Iterable[Tuple[int, int, int]],
) -> "OrderedDict[str, object]":
    """Merge per-bucket ``(padded_len, targets, real_tokens)`` triples
    into the scan summary: per-bucket padded-vs-real token counts plus
    totals, so kernel bucketing overhead is measured, not assumed.

    Accepts triples from many shards/iterations of one scan (the same
    width may repeat); keys per-bucket entries by the decimal width for
    JSON stability, mirroring ``repro.buckets`` waste reports.
    """
    merged: Dict[int, List[int]] = {}
    for width, targets, real_tokens in triples:
        entry = merged.setdefault(int(width), [0, 0])
        entry[0] += int(targets)
        entry[1] += int(real_tokens)
    per_bucket: "OrderedDict[str, OrderedDict]" = OrderedDict()
    total_targets = total_real = total_padded = 0
    for width in sorted(merged):
        targets, real_tokens = merged[width]
        padded_tokens = targets * width
        per_bucket[str(width)] = OrderedDict(
            targets=targets,
            real_tokens=real_tokens,
            padded_tokens=padded_tokens,
            waste_tokens=padded_tokens - real_tokens,
        )
        total_targets += targets
        total_real += real_tokens
        total_padded += padded_tokens
    waste = total_padded - total_real
    return OrderedDict(
        targets=total_targets,
        real_tokens=total_real,
        padded_tokens=total_padded,
        waste_tokens=waste,
        waste_pct=round(100.0 * waste / total_padded, 4)
        if total_padded
        else 0.0,
        per_bucket=per_bucket,
    )


def emission_gather(
    profile: ProfileHMM, batch: TargetBatch
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(L, A + 2)`` score table and ``(B, P)`` column index a
    kernel gathers a batch's match emissions from, one profile row at a
    time.

    ``np.take(table[i], index)`` is row ``i``'s ``(B, P)`` emissions:
    valid columns hold exactly ``profile.emission_row``'s values
    (wildcards score 0 everywhere, as in the scalar path) and padding
    columns hold ``NEG_INF``, so batched reductions can never prefer
    them.  The table is ``profile.match_scores`` augmented with one
    constant column per sentinel (wildcard -> 0, padding -> NEG_INF),
    so each row is one fancy-index gather of float64 values copied
    verbatim: bit-identity is untouched, and no array scales with
    ``L * B * P``.
    """
    scores = profile.match_scores
    length, alphabet = scores.shape
    table = np.concatenate(
        [
            scores,
            np.zeros((length, 1)),           # wildcard column
            np.full((length, 1), NEG_INF),   # padding column
        ],
        axis=1,
    )
    enc = batch.encoded
    index = np.where(
        enc >= 0, enc, np.where(enc == -1, alphabet, alphabet + 1)
    )
    return table, index
