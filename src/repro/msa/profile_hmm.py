"""Profile hidden Markov models (plan7-lite).

HMMER builds a profile HMM from the query (jackhmmer's first iteration
uses a single-sequence profile) and scores database sequences against
it.  We implement the same structure: per-position match emissions with
background pseudocounts, insert states emitting background residues,
and global match/insert/delete transitions, all in log2-odds space so
scores are directly comparable bit scores.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, Optional, Sequence

import numpy as np

from ..sequences.alphabets import (
    MoleculeType,
    alphabet_for,
    background_for,
    unknown_symbol_for,
)

#: Pseudocount weight pulling match emissions toward the background.
#: Single-sequence profiles need heavy smoothing (HMMER uses BLOSUM-
#: derived mixtures; a flat 0.4 keeps scores in a realistic bit range).
DEFAULT_SMOOTHING = 0.4


@dataclasses.dataclass(frozen=True)
class Transitions:
    """Log2 transition scores of the profile (position-independent)."""

    mm: float
    mi: float
    md: float
    im: float
    ii: float
    dm: float
    dd: float

    @classmethod
    def default(cls) -> "Transitions":
        probs = {
            "mm": 0.90, "mi": 0.05, "md": 0.05,
            "im": 0.40, "ii": 0.60,
            "dm": 0.40, "dd": 0.60,
        }
        return cls(**{k: math.log2(v) for k, v in probs.items()})


#: Code of a byte that is neither a residue nor the wildcard.
_INVALID_CODE = -2


@functools.lru_cache(maxsize=None)
def _code_table(molecule_type: MoleculeType) -> np.ndarray:
    """``(256,)`` residue code of every byte: alphabet index, -1 for the
    wildcard, :data:`_INVALID_CODE` for anything else."""
    table = np.full(256, _INVALID_CODE, dtype=np.int64)
    for i, res in enumerate(alphabet_for(molecule_type)):
        table[ord(res)] = i
    table[ord(unknown_symbol_for(molecule_type))] = -1
    table.flags.writeable = False  # shared by every caller
    return table


def encode_sequence(sequence: str, molecule_type: MoleculeType) -> np.ndarray:
    """Encode residues as int indices; wildcards map to -1.

    One table lookup over the sequence's bytes; the first residue that
    is not in the alphabet (non-ASCII included) raises ``ValueError``.
    """
    raw = sequence.encode("ascii", errors="replace")
    codes = _code_table(molecule_type)[np.frombuffer(raw, dtype=np.uint8)]
    bad = np.flatnonzero(codes == _INVALID_CODE)
    if bad.size:
        raise ValueError(
            f"residue {sequence[bad[0]]!r} not in "
            f"{molecule_type.value} alphabet"
        )
    return codes


class ProfileHMM:
    """A profile HMM over one polymer alphabet.

    Attributes
    ----------
    match_scores:
        ``(length, alphabet_size)`` array of log2-odds match emission
        scores.  Insert emissions are background, i.e. log-odds zero.
    transitions:
        Shared :class:`Transitions` in log2 space.
    """

    def __init__(
        self,
        match_scores: np.ndarray,
        molecule_type: MoleculeType,
        transitions: Optional[Transitions] = None,
        name: str = "profile",
    ) -> None:
        if match_scores.ndim != 2:
            raise ValueError("match_scores must be 2-D (length x alphabet)")
        alphabet = alphabet_for(molecule_type)
        if match_scores.shape[1] != len(alphabet):
            raise ValueError(
                f"match_scores has {match_scores.shape[1]} columns, "
                f"alphabet has {len(alphabet)}"
            )
        if match_scores.shape[0] == 0:
            raise ValueError("profile must have at least one match state")
        self.match_scores = np.asarray(match_scores, dtype=np.float64)
        self.molecule_type = molecule_type
        self.transitions = transitions or Transitions.default()
        self.name = name

    @property
    def length(self) -> int:
        """Number of match states (query length)."""
        return int(self.match_scores.shape[0])

    @property
    def alphabet_size(self) -> int:
        return int(self.match_scores.shape[1])

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the score tables."""
        return int(self.match_scores.nbytes)

    @classmethod
    def from_query(
        cls,
        sequence: str,
        molecule_type: MoleculeType,
        smoothing: float = DEFAULT_SMOOTHING,
        name: Optional[str] = None,
    ) -> "ProfileHMM":
        """Single-sequence profile: one match state per query residue.

        Emission probability of residue ``a`` at position ``i`` is
        ``(1 - smoothing) * [a == q_i] + smoothing * bg(a)``, converted
        to log2 odds against the background.
        """
        if not 0.0 < smoothing < 1.0:
            raise ValueError("smoothing must be in (0, 1)")
        encoded = encode_sequence(sequence, molecule_type)
        alphabet = alphabet_for(molecule_type)
        background = background_for(molecule_type)
        bg = np.array([background[a] for a in alphabet])
        probs = np.tile(smoothing * bg, (len(encoded), 1))
        for i, idx in enumerate(encoded):
            if idx >= 0:
                probs[i, idx] += 1.0 - smoothing
            else:  # wildcard position: pure background, log-odds 0
                probs[i, :] = bg
        scores = np.log2(probs / bg)
        return cls(scores, molecule_type, name=name or f"query_len{len(encoded)}")

    @classmethod
    def from_alignment(
        cls,
        rows: Sequence[str],
        molecule_type: MoleculeType,
        smoothing: float = DEFAULT_SMOOTHING,
        name: Optional[str] = None,
    ) -> "ProfileHMM":
        """Profile from aligned rows (jackhmmer's later iterations).

        Rows must have equal length; ``-`` marks gaps.  Column emission
        estimates are residue frequencies with background pseudocounts.
        """
        if not rows:
            raise ValueError("alignment must have at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("alignment rows must have equal length")
        if width == 0:
            raise ValueError("alignment must have at least one column")
        alphabet = alphabet_for(molecule_type)
        index = {res: i for i, res in enumerate(alphabet)}
        background = background_for(molecule_type)
        bg = np.array([background[a] for a in alphabet])
        counts = np.zeros((width, len(alphabet)))
        for row in rows:
            for col, ch in enumerate(row):
                if ch == "-":
                    continue
                idx = index.get(ch.upper())
                if idx is not None:
                    counts[col, idx] += 1.0
        totals = counts.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        freqs = counts / totals
        probs = (1.0 - smoothing) * freqs + smoothing * bg
        # All-gap columns fall back to pure background (log-odds zero).
        empty = counts.sum(axis=1) == 0
        probs[empty] = bg
        scores = np.log2(probs / bg)
        return cls(scores, molecule_type, name=name or f"aln_{len(rows)}x{width}")

    def emission_row(self, encoded_sequence: np.ndarray) -> np.ndarray:
        """``(length, seq_len)`` matrix of match scores vs a sequence.

        Wildcard positions (index -1) score zero everywhere.
        """
        seq = np.asarray(encoded_sequence)
        safe = np.where(seq >= 0, seq, 0)
        mat = self.match_scores[:, safe]
        mat = np.where(seq[None, :] >= 0, mat, 0.0)
        return mat


def consensus(profile: ProfileHMM) -> str:
    """Highest-scoring residue per match state."""
    alphabet = alphabet_for(profile.molecule_type)
    picks: List[str] = [alphabet[int(i)] for i in profile.match_scores.argmax(axis=1)]
    return "".join(picks)
