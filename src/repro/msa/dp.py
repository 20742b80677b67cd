"""Alignment dynamic-programming kernels.

These are the compute hot spots of the MSA phase.  The paper's
function-level profiling (Table IV) attributes ~55 % of MSA CPU cycles
to two banded DP kernels inside jackhmmer, surfaced by perf as
``calc_band_9`` and ``calc_band_10``; we implement the same cascade:

* :func:`msv_filter` — cheap ungapped local score (HMMER's MSV stage),
* :func:`calc_band_9` — banded local Viterbi (bit score),
* :func:`calc_band_10` — banded local Forward (summed bit score).

All kernels work in log2-odds space on integer-encoded sequences and
report the number of DP cells computed, which the tracing layer turns
into instruction/byte counts.

Model (plan7-lite, local alignment)::

    M[i,j] = e[i,j] + best( begin, M[i-1,j-1]+tMM, I[i-1,j-1]+tIM,
                            D[i-1,j-1]+tDM )
    I[i,j] = best( M[i,j-1]+tMI, I[i,j-1]+tII )       (insert, emits bg)
    D[i,j] = best( M[i-1,j]+tMD, D[i-1,j]+tDD )
    score  = best over i,j of M[i,j]

``best`` is max for Viterbi and log-sum-exp for Forward.  The Forward
kernel omits the insert self-loop chain (II) so each row stays a single
vector operation; for the heavily-smoothed profiles used here the II
chain contributes negligibly to total probability, and the exactness
tests compare against a brute-force reference with the same state
space.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .profile_hmm import ProfileHMM

NEG_INF = -1e30


@dataclasses.dataclass(frozen=True)
class KernelResult:
    """Outcome of one DP kernel invocation.

    ``score`` is a bit score; ``cells`` counts DP cells computed (the
    cost driver); ``band_width`` records the half-width used (0 means
    unbanded).
    """

    score: float
    cells: int
    band_width: int = 0


def _band_mask(profile_len: int, seq_len: int, band: int) -> np.ndarray:
    """Boolean ``(L, N)`` mask of cells inside the alignment band.

    The band follows the main alignment diagonal scaled to the
    length ratio, with half-width ``band`` on each side.
    """
    rows = np.arange(profile_len)[:, None]
    cols = np.arange(seq_len)[None, :]
    centers = rows * (seq_len / max(1, profile_len))
    return np.abs(cols - centers) <= band


def effective_band(profile_len: int, seq_len: int, band: int) -> int:
    """Clamp a requested band half-width to the usable maximum."""
    if band <= 0:
        raise ValueError("band must be positive")
    return int(min(band, max(profile_len, seq_len)))


def msv_filter(
    profile: ProfileHMM,
    encoded_seq: np.ndarray,
    emissions: Optional[np.ndarray] = None,
) -> KernelResult:
    """Ungapped local alignment score (MSV analogue).

    Runs Kadane's maximum-subarray scan along every alignment diagonal
    of the emission matrix — the best ungapped segment score in bits.
    ``emissions`` may pass a precomputed ``profile.emission_row`` matrix
    so callers running the full cascade pay for it only once.
    """
    seq = np.asarray(encoded_seq)
    if len(seq) == 0:
        # No residues, no diagonals: the empty local alignment scores 0
        # bits and no DP cells are computed (mirrors _banded_dp's guard).
        return KernelResult(score=0.0, cells=0)
    if emissions is None:
        emissions = profile.emission_row(seq)
    length, seq_len = emissions.shape
    best = 0.0
    running = np.zeros(seq_len)
    for i in range(length):
        shifted = np.empty(seq_len)
        shifted[0] = 0.0
        shifted[1:] = np.maximum(running[:-1], 0.0)
        running = emissions[i] + shifted
        row_best = float(running.max())
        if row_best > best:
            best = row_best
    return KernelResult(score=best, cells=length * seq_len)


def calc_band_9(
    profile: ProfileHMM,
    encoded_seq: np.ndarray,
    band: int = 64,
    emissions: Optional[np.ndarray] = None,
) -> KernelResult:
    """Banded local Viterbi bit score (the paper's ``calc_band_9``)."""
    return _banded_dp(profile, encoded_seq, band, forward=False,
                      emissions=emissions)


def calc_band_10(
    profile: ProfileHMM,
    encoded_seq: np.ndarray,
    band: int = 64,
    emissions: Optional[np.ndarray] = None,
) -> KernelResult:
    """Banded local Forward bit score (the paper's ``calc_band_10``)."""
    return _banded_dp(profile, encoded_seq, band, forward=True,
                      emissions=emissions)


def _log2addexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise log2(2**a + 2**b), stable for very negative inputs."""
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    out = hi + np.log2(1.0 + np.exp2(np.clip(lo - hi, -60.0, 0.0)))
    return np.where(hi <= NEG_INF / 2, NEG_INF, out)


def _banded_dp(
    profile: ProfileHMM,
    encoded_seq: np.ndarray,
    band: int,
    forward: bool,
    emissions: Optional[np.ndarray] = None,
) -> KernelResult:
    seq = np.asarray(encoded_seq)
    length, seq_len = profile.length, len(seq)
    band_eff = effective_band(length, seq_len, band)  # rejects band <= 0
    if seq_len == 0:
        # An empty target reports the requested band, as a batched lane does.
        return KernelResult(score=0.0, cells=0, band_width=band)
    band = band_eff
    if emissions is None:
        emissions = profile.emission_row(seq)
    mask = _band_mask(length, seq_len, band)
    t = profile.transitions

    m_prev = np.full(seq_len, NEG_INF)
    i_prev = np.full(seq_len, NEG_INF)
    d_prev = np.full(seq_len, NEG_INF)
    best = 0.0
    total_score = NEG_INF  # forward accumulator over all end cells
    cells = int(mask.sum())

    positions = np.arange(seq_len)
    for i in range(length):
        row_mask = mask[i]
        # --- match state ---
        from_m = np.full(seq_len, NEG_INF)
        from_i = np.full(seq_len, NEG_INF)
        from_d = np.full(seq_len, NEG_INF)
        from_m[1:] = m_prev[:-1] + t.mm
        from_i[1:] = i_prev[:-1] + t.im
        from_d[1:] = d_prev[:-1] + t.dm
        begin = np.zeros(seq_len)  # free local begin
        if forward:
            m_row = _log2addexp(_log2addexp(from_m, from_i), from_d)
            m_row = _log2addexp(m_row, begin)
        else:
            m_row = np.maximum(np.maximum(from_m, from_i), np.maximum(from_d, begin))
        m_row = emissions[i] + m_row
        m_row = np.where(row_mask, m_row, NEG_INF)

        # --- insert state ---
        i_row = np.full(seq_len, NEG_INF)
        if forward:
            # Single MI step (II self-loop omitted; see module docstring).
            i_row[1:] = m_row[:-1] + t.mi
        else:
            # Exact II chain via a max-scan:
            #   I[j] = tMI + (j-1-k)*tII + M[k]  maximised over k <= j-1
            adjusted = m_row - positions * t.ii
            running = np.maximum.accumulate(adjusted)
            i_row[1:] = t.mi + (positions[1:] - 1) * t.ii + running[:-1]
            i_row = np.maximum(i_row, NEG_INF)
        i_row = np.where(row_mask, i_row, NEG_INF)

        # --- delete state ---
        if forward:
            d_row = _log2addexp(m_prev + t.md, d_prev + t.dd)
        else:
            d_row = np.maximum(m_prev + t.md, d_prev + t.dd)
        d_row = np.where(row_mask, d_row, NEG_INF)

        if forward:
            # Stable log2-sum-exp over the row:
            finite = m_row[m_row > NEG_INF / 2]
            if finite.size:
                hi = float(finite.max())
                row_total = hi + float(np.log2(np.exp2(finite - hi).sum()))
                total_score = float(
                    _log2addexp(np.array(total_score), np.array(row_total))
                )
        else:
            row_best = float(m_row.max())
            if row_best > best:
                best = row_best

        m_prev, i_prev, d_prev = m_row, i_row, d_row

    score = total_score if forward else best
    if forward and score <= NEG_INF / 2:
        score = 0.0
    return KernelResult(score=float(score), cells=cells, band_width=band)


def reference_viterbi(profile: ProfileHMM, encoded_seq: np.ndarray) -> float:
    """Brute-force unbanded local Viterbi (test oracle, pure loops)."""
    seq = np.asarray(encoded_seq)
    length, seq_len = profile.length, len(seq)
    emissions = profile.emission_row(seq)
    t = profile.transitions
    m = np.full((length, seq_len), NEG_INF)
    ins = np.full((length, seq_len), NEG_INF)
    del_ = np.full((length, seq_len), NEG_INF)
    best = 0.0
    for i in range(length):
        for j in range(seq_len):
            paths = [0.0]
            if i > 0 and j > 0:
                paths.extend(
                    [m[i - 1, j - 1] + t.mm, ins[i - 1, j - 1] + t.im,
                     del_[i - 1, j - 1] + t.dm]
                )
            m[i, j] = emissions[i, j] + max(paths)
            if j > 0:
                ins[i, j] = max(m[i, j - 1] + t.mi, ins[i, j - 1] + t.ii)
            if i > 0:
                del_[i, j] = max(m[i - 1, j] + t.md, del_[i - 1, j] + t.dd)
            if m[i, j] > best:
                best = m[i, j]
    return float(best)


def reference_forward(profile: ProfileHMM, encoded_seq: np.ndarray) -> float:
    """Brute-force Forward with the same state space as calc_band_10."""
    seq = np.asarray(encoded_seq)
    length, seq_len = profile.length, len(seq)
    emissions = profile.emission_row(seq)
    t = profile.transitions

    def ladd(a: float, b: float) -> float:
        if a <= NEG_INF / 2:
            return b
        if b <= NEG_INF / 2:
            return a
        hi, lo = max(a, b), min(a, b)
        return hi + float(np.log2(1.0 + 2.0 ** (lo - hi)))

    m = np.full((length, seq_len), NEG_INF)
    ins = np.full((length, seq_len), NEG_INF)
    del_ = np.full((length, seq_len), NEG_INF)
    total = NEG_INF
    for i in range(length):
        for j in range(seq_len):
            acc = 0.0  # free begin
            if i > 0 and j > 0:
                acc = ladd(acc, m[i - 1, j - 1] + t.mm)
                acc = ladd(acc, ins[i - 1, j - 1] + t.im)
                acc = ladd(acc, del_[i - 1, j - 1] + t.dm)
            m[i, j] = emissions[i, j] + acc
            if j > 0:
                ins[i, j] = m[i, j - 1] + t.mi  # no II chain, as in kernel
            if i > 0:
                del_[i, j] = ladd(m[i - 1, j] + t.md, del_[i - 1, j] + t.dd)
            total = ladd(total, m[i, j])
    return float(total) if total > NEG_INF / 2 else 0.0
