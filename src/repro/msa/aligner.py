"""Pairwise global alignment and MSA assembly.

After the search cascade accepts hits, they are aligned to the query to
form the MSA rows that feed AF3's feature pipeline.  The aligner is
Needleman-Wunsch with linear gap costs.  :func:`align_many` aligns all
of a chain's hits in one pass over the query rows: each row is a few
numpy operations over a ``(column, hit)`` matrix, and the pointer codes
are one int8 array for exact traceback.

Within query row ``i`` the left-gap recurrence
``S[j] = max(S[j-1] + G, B[j])`` (``G`` the gap score, ``B[j]`` the
better of the diagonal and up moves, ``B[0] = i*G`` the first column)
is a prefix max: with ``D[j] = B[j] - j*G``,

    S[j] - j*G = max(D[0], ..., D[j])   i.e.   S = maximum.accumulate(D) + j*G.

:func:`align_many` carries every row in that shifted frame
(``S[j] - j*G``), so the left move adds nothing, the diagonal move
adds ``sub - G`` and the up move adds ``G``.  A cell takes the LEFT pointer
only when the left move is strictly better (``S[j-1] + G > B[j]``),
otherwise the diagonal/up pointer with diagonal winning ties, exactly
as in the per-cell loop of :func:`reference_global_align`.  All scores
are small integers held in float64 (exact far beyond any sequence
length, up to 2**53), so every sum, shift and comparison is exact and
both functions return equal alignments and scores.

The hits run :data:`ALIGN_CHUNK` at a time, laid out ``(column, hit)``
so the prefix max runs down axis 0, and padded on the right to the
chunk's longest hit; column ``j`` reads only columns ``j - 1`` and
``j``, so padding never reaches a real column.  Each row's diagonal
gains come from a ``(residue, column, hit)`` table over the query's
distinct residues.  :func:`global_align` is the one-target case.
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

#: Fixed-width codec of the aligned strings, one code point per
#: ``uint32``, so :meth:`PairwiseAlignment.target_row` masks columns
#: with numpy whatever the residue letters are.
_CODEC = "utf-32-le"

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
        query, target = (
            np.frombuffer(text.encode(_CODEC, "surrogatepass"), np.uint32)
            for text in (self.aligned_query, self.aligned_target)
        )
        return target[query != ord(GAP)].tobytes().decode(
            _CODEC, "surrogatepass"
        )


#: Hits :func:`align_many` runs through one pass.  A pass holds two
#: ``(n, m, ALIGN_CHUNK)`` byte arrays (pointer codes and LEFT flags)
#: and an ``(R, m, ALIGN_CHUNK)`` float64 gain table, ``R`` the distinct
#: query residues.  Eight hits keep a chain's 17-18 hits in three
#: passes; one pass over all of them raised perfbench ``target-run``'s
#: peak RSS by about 6%.
ALIGN_CHUNK = 8


def global_align(query: str, target: str) -> PairwiseAlignment:
    """Needleman-Wunsch with linear gaps: :func:`align_many` of one target."""
    return align_many(query, [target])[0]


def align_many(query: str, targets: Sequence[str]) -> List[PairwiseAlignment]:
    """Align every target to ``query``, one prefix max per query row.

    Rows are held shifted by ``j*G`` and the targets run
    :data:`ALIGN_CHUNK` at a time (module docstring).  A cell points
    LEFT only where the running max strictly beats its own diagonal/up
    candidate; ties keep DIAG over UP.  Scores are small integers in
    float64, so each result equals :func:`reference_global_align`
    field for field.
    """
    if not query or not all(targets):
        raise ValueError("sequences must be non-empty")
    alignments: List[PairwiseAlignment] = []
    for first in range(0, len(targets), ALIGN_CHUNK):
        alignments.extend(
            _align_chunk(query, targets[first:first + ALIGN_CHUNK])
        )
    return alignments


def _align_chunk(
    query: str, targets: Sequence[str]
) -> List[PairwiseAlignment]:
    """:func:`align_many` over one chunk of non-empty targets."""
    n = len(query)
    lengths = [len(target) for target in targets]
    m = max(lengths)
    # Padding byte 0 is no residue, so padding columns score mismatches.
    codes = np.zeros((len(targets), m), dtype=np.uint8)
    for lane, target in zip(codes, targets):
        lane[:len(target)] = np.frombuffer(target.encode("ascii"), np.uint8)
    residues, residue_of_row = np.unique(
        np.frombuffer(query.encode("ascii"), np.uint8), return_inverse=True
    )
    # Diagonal move in the shifted frame, sub + (j-1)*G - j*G, for each
    # distinct query residue: (residue, column, hit).
    gain = np.where(
        codes.T[None] == residues[:, None, None],
        MATCH_SCORE - GAP_SCORE,
        MISMATCH_SCORE - GAP_SCORE,
    )

    # Pointer codes of rows/columns 1..n, 1..m.  _DIAG is 0 and _UP is
    # 1, so the bool "up beats diag" flags are already the codes; LEFT
    # flags overwrite them after the row loop.
    pointers = np.empty((n, m, len(targets)), dtype=np.int8)
    is_left = np.empty(pointers.shape, dtype=bool)
    prev = np.zeros((m + 1, len(targets)))  # row 0 is j*G, 0 once shifted
    row = np.empty_like(prev)
    cand = np.empty_like(prev)
    diag = np.empty((m, len(targets)))
    up = np.empty_like(diag)
    for i, residue, up_row, left_row in zip(
        range(1, n + 1), residue_of_row.tolist(),
        pointers.view(bool), is_left,
    ):
        np.add(prev[:-1], gain[residue], out=diag)
        np.add(prev[1:], GAP_SCORE, out=up)
        np.less(diag, up, out=up_row)
        np.maximum(diag, up, out=cand[1:])
        cand[0] = i * GAP_SCORE
        np.maximum.accumulate(cand, axis=0, out=row)
        np.greater(row[:-1], cand[1:], out=left_row)
        prev, row = row, prev
    np.copyto(pointers, _LEFT, where=is_left)

    return [
        _traceback(
            query, target, pointers[:, :width, lane].tobytes(),
            float(prev[width, lane] + width * GAP_SCORE),
        )
        for lane, (target, width) in enumerate(zip(targets, lengths))
    ]


def _traceback(
    query: str, target: str, moves: bytes, score: float
) -> PairwiseAlignment:
    """Walk one target's pointer codes (row-major ``(n, m)`` bytes) back
    from the last cell.  Row 0 holds LEFT moves and column 0 UP moves,
    so once either edge is reached the rest is one gap run."""
    width = len(target)
    aligned_q: List[str] = []
    aligned_t: List[str] = []
    i, j = len(query), width
    while i and j:
        move = moves[(i - 1) * width + j - 1]
        if move == _LEFT:
            aligned_q.append(GAP)
        else:
            i -= 1
            aligned_q.append(query[i])
        if move == _UP:
            aligned_t.append(GAP)
        else:
            j -= 1
            aligned_t.append(target[j])
    return PairwiseAlignment(
        aligned_query=GAP * j + query[:i] + "".join(reversed(aligned_q)),
        aligned_target=GAP * i + target[:j] + "".join(reversed(aligned_t)),
        score=score,
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
    kept = list(hits)[: max_rows - 1]
    alignments = align_many(
        query_sequence, [hit.target_sequence for hit in kept]
    )
    # target_row drops query-gap columns, so each row has exactly the
    # query's length by construction.
    rows = [query_sequence] + [a.target_row() for a in alignments]
    names = [query_name] + [hit.target_name for hit in kept]
    return Msa(
        query_name=query_name,
        molecule_type=molecule_type,
        rows=tuple(rows),
        row_names=tuple(names),
    )
