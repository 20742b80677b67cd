"""Pairwise global alignment and MSA assembly.

After the search cascade accepts hits, they are aligned to the query to
form the MSA rows that feed AF3's feature pipeline.  The aligner is
Needleman-Wunsch with linear gap costs, one numpy pass per query row
and an int8 pointer matrix for exact traceback.

Within query row ``i`` the left-gap recurrence
``S[j] = max(S[j-1] + G, B[j])`` (``G`` the gap score, ``B[j]`` the
better of the diagonal and up moves, ``B[0] = i*G`` the first column)
is a prefix max: with ``D[j] = B[j] - j*G``,

    S[j] - j*G = max(D[0], ..., D[j])   i.e.   S = maximum.accumulate(D) + j*G.

:func:`global_align` carries every row in that shifted frame
(``S[j] - j*G``), so the left move adds nothing, the diagonal move
adds ``sub - G`` and the up move adds ``G``.  A cell takes the LEFT pointer
only when the left move is strictly better (``S[j-1] + G > B[j]``),
otherwise the diagonal/up pointer with diagonal winning ties, exactly
as in the per-cell loop of :func:`reference_global_align`.  All scores
are small integers held in float64 (exact far beyond any sequence
length, up to 2**53), so every sum, shift and comparison is exact and
both functions return equal alignments and scores.
:func:`reference_global_align` keeps the per-cell loop as the oracle
the tests compare against with ``==``; production never calls it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from ..sequences.alphabets import GAP, MoleculeType
from .jackhmmer import Hit

MATCH_SCORE = 2.0
MISMATCH_SCORE = -1.0
GAP_SCORE = -2.0

# Pointer codes for traceback.
_DIAG, _UP, _LEFT = 0, 1, 2


@dataclasses.dataclass(frozen=True)
class PairwiseAlignment:
    """A query/target global alignment with gaps."""

    aligned_query: str
    aligned_target: str
    score: float

    def __post_init__(self) -> None:
        if len(self.aligned_query) != len(self.aligned_target):
            raise ValueError("aligned strings must have equal length")

    @property
    def identity(self) -> float:
        """Fraction of aligned columns with identical residues."""
        pairs = [
            (q, t) for q, t in zip(self.aligned_query, self.aligned_target)
            if q != GAP and t != GAP
        ]
        if not pairs:
            return 0.0
        return sum(q == t for q, t in pairs) / len(pairs)

    def target_row(self) -> str:
        """Target residues projected onto query columns.

        Columns where the query has a gap (target insertions) are
        dropped — MSA rows are indexed by query positions, matching how
        AF3 builds its (M x N) MSA matrix.
        """
        return "".join(
            t for q, t in zip(self.aligned_query, self.aligned_target) if q != GAP
        )


def global_align(query: str, target: str) -> PairwiseAlignment:
    """Needleman-Wunsch with linear gaps: one prefix max per query row.

    Rows are held shifted by ``j*G`` (module docstring), which turns the
    left-gap recurrence into ``numpy.maximum.accumulate``.  A cell
    points LEFT only where the running max strictly beats its own
    diagonal/up candidate; ties keep DIAG over UP.  Scores are small
    integers in float64, so the result equals
    :func:`reference_global_align` field for field.
    """
    if not query or not target:
        raise ValueError("sequences must be non-empty")
    n, m = len(query), len(target)
    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    t = np.frombuffer(target.encode("ascii"), dtype=np.uint8)
    # Diagonal move in the shifted frame: sub + (j-1)*G - j*G.
    diag_gain = np.where(
        q[:, None] == t[None, :],
        MATCH_SCORE - GAP_SCORE,
        MISMATCH_SCORE - GAP_SCORE,
    )

    # Per-cell flags for rows/columns 1..n, 1..m of the pointer matrix.
    is_up = np.empty((n, m), dtype=bool)
    is_left = np.empty((n, m), dtype=bool)
    prev = np.zeros(m + 1)  # row 0 is j*G, i.e. 0 once shifted
    row = np.empty(m + 1)
    cand = np.empty(m + 1)
    diag = np.empty(m)
    up = np.empty(m)
    for i, gain, up_row, left_row in zip(
        range(1, n + 1), diag_gain, is_up, is_left
    ):
        np.add(prev[:-1], gain, out=diag)
        np.add(prev[1:], GAP_SCORE, out=up)
        np.less(diag, up, out=up_row)
        np.maximum(diag, up, out=cand[1:])
        cand[0] = i * GAP_SCORE
        np.maximum.accumulate(cand, out=row)
        np.greater(row[:-1], cand[1:], out=left_row)
        prev, row = row, prev

    pointers = np.empty((n + 1, m + 1), dtype=np.int8)
    pointers[0, 0] = _DIAG
    pointers[0, 1:] = _LEFT
    pointers[1:, 0] = _UP
    pointers[1:, 1:] = np.where(is_left, _LEFT, is_up)

    aligned_q: List[str] = []
    aligned_t: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        move = pointers[i, j]
        if i > 0 and j > 0 and move == _DIAG:
            aligned_q.append(query[i - 1])
            aligned_t.append(target[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and (move == _UP or j == 0):
            aligned_q.append(query[i - 1])
            aligned_t.append(GAP)
            i -= 1
        else:
            aligned_q.append(GAP)
            aligned_t.append(target[j - 1])
            j -= 1
    return PairwiseAlignment(
        aligned_query="".join(reversed(aligned_q)),
        aligned_target="".join(reversed(aligned_t)),
        score=float(prev[m] + m * GAP_SCORE),
    )


def reference_global_align(query: str, target: str) -> PairwiseAlignment:
    """Per-cell Needleman-Wunsch loop: the oracle for :func:`global_align`."""
    if not query or not target:
        raise ValueError("sequences must be non-empty")
    n, m = len(query), len(target)
    q = np.frombuffer(query.encode("ascii"), dtype=np.uint8)
    t = np.frombuffer(target.encode("ascii"), dtype=np.uint8)
    sub = np.where(q[:, None] == t[None, :], MATCH_SCORE, MISMATCH_SCORE)

    score = np.empty(m + 1)
    score[:] = np.arange(m + 1) * GAP_SCORE
    pointers = np.zeros((n + 1, m + 1), dtype=np.int8)
    pointers[0, 1:] = _LEFT
    for i in range(1, n + 1):
        prev = score.copy()
        diag = prev[:-1] + sub[i - 1]
        up = prev[1:] + GAP_SCORE
        score[0] = i * GAP_SCORE
        pointers[i, 0] = _UP
        # LEFT moves depend on the current row left-to-right; resolve
        # diag/up vectorised, then fix up lefts with a linear scan kept
        # in numpy-friendly form.
        best = np.maximum(diag, up)
        ptr = np.where(diag >= up, _DIAG, _UP).astype(np.int8)
        row = score  # alias; filled in-place
        for j in range(1, m + 1):
            left = row[j - 1] + GAP_SCORE
            if left > best[j - 1]:
                row[j] = left
                pointers[i, j] = _LEFT
            else:
                row[j] = best[j - 1]
                pointers[i, j] = ptr[j - 1]

    aligned_q: List[str] = []
    aligned_t: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        move = pointers[i, j]
        if i > 0 and j > 0 and move == _DIAG:
            aligned_q.append(query[i - 1])
            aligned_t.append(target[j - 1])
            i -= 1
            j -= 1
        elif i > 0 and (move == _UP or j == 0):
            aligned_q.append(query[i - 1])
            aligned_t.append(GAP)
            i -= 1
        else:
            aligned_q.append(GAP)
            aligned_t.append(target[j - 1])
            j -= 1
    return PairwiseAlignment(
        aligned_query="".join(reversed(aligned_q)),
        aligned_target="".join(reversed(aligned_t)),
        score=float(score[m]),
    )


@dataclasses.dataclass(frozen=True)
class Msa:
    """A multiple sequence alignment for one query chain.

    ``rows[0]`` is always the query itself; every row has the query's
    length (hit insertions relative to the query are dropped, deletions
    appear as gaps).
    """

    query_name: str
    molecule_type: MoleculeType
    rows: Tuple[str, ...]
    row_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("MSA must contain at least the query row")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("all MSA rows must have the query's length")
        if len(self.rows) != len(self.row_names):
            raise ValueError("rows and row_names must align")

    @property
    def depth(self) -> int:
        """Number of sequences M (including the query)."""
        return len(self.rows)

    @property
    def width(self) -> int:
        """Aligned length N (the query length)."""
        return len(self.rows[0])

    def column(self, index: int) -> str:
        return "".join(row[index] for row in self.rows)

    def coverage(self) -> np.ndarray:
        """Per-column fraction of non-gap residues."""
        width = self.width
        cov = np.zeros(width)
        for row in self.rows:
            cov += np.frombuffer(row.encode("ascii"), dtype=np.uint8) != ord(GAP)
        return cov / self.depth


def assemble_msa(
    query_name: str,
    query_sequence: str,
    molecule_type: MoleculeType,
    hits: Sequence[Hit],
    max_rows: int = 512,
) -> Msa:
    """Align accepted hits to the query and stack them into an MSA.

    ``max_rows`` counts the query row, so at most ``max_rows - 1`` hits
    are aligned; it must be at least 1.
    """
    if max_rows < 1:
        raise ValueError("max_rows must be >= 1 (the query row)")
    rows: List[str] = [query_sequence]
    names: List[str] = [query_name]
    for hit in list(hits)[: max_rows - 1]:
        alignment = global_align(query_sequence, hit.target_sequence)
        row = alignment.target_row()
        # target_row drops query-gap columns, so it has exactly the
        # query's length by construction.
        rows.append(row)
        names.append(hit.target_name)
    return Msa(
        query_name=query_name,
        molecule_type=molecule_type,
        rows=tuple(rows),
        row_names=tuple(names),
    )
