"""Deterministic synthetic sequence generation.

The paper's inputs derive from PDB entries and its databases are the
real UniRef / Rfam collections.  Neither is shippable here, so this
module generates synthetic sequences with controlled statistical
properties: background-distributed residues, homologous families
(mutated copies of a seed), and low-complexity poly-X insertions that
reproduce the promo sample's poly-Q behaviour.

Everything is seeded; the same seed always yields the same sequences.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .alphabets import MoleculeType, alphabet_for, background_for


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


@functools.lru_cache(maxsize=None)
def _background_table(
    molecule_type: MoleculeType,
) -> Tuple[np.ndarray, float, np.ndarray]:
    """``(edges, total, residue bytes)`` of ``random.choices`` over the
    background: ``edges`` is the cumulative weight list without its
    last entry, the ``hi = n - 1`` bound ``choices`` bisects under."""
    background = background_for(molecule_type)
    cum_weights = list(itertools.accumulate(background.values()))
    residues = np.frombuffer("".join(background).encode("ascii"),
                             dtype=np.uint8)
    edges = np.array(cum_weights[:-1])
    edges.flags.writeable = False  # shared by every caller
    return edges, cum_weights[-1] + 0.0, residues


def random_sequence(
    length: int,
    molecule_type: MoleculeType = MoleculeType.PROTEIN,
    seed: int = 0,
) -> str:
    """Background-distributed random sequence of the given length.

    Equal, residue for residue, to ``"".join(random.Random(seed)
    .choices(residues, weights, k=length))``, vectorised: ``choices``
    draws one ``random()`` per residue and bisects it into the
    cumulative weights.  Each ``random()`` is built from two 32-bit
    Mersenne Twister words, ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``;
    ``getrandbits(64 * length)`` returns the same word stream, first
    word least significant, so every draw is recomputed exactly and
    ``searchsorted(..., side="right")`` is the bisection.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if length == 0:
        return ""
    edges, total, residues = _background_table(molecule_type)
    words = np.frombuffer(
        _rng(seed).getrandbits(64 * length).to_bytes(8 * length, "little"),
        dtype="<u4",
    ).reshape(length, 2)
    draws = ((words[:, 0] >> 5) * 67108864.0 + (words[:, 1] >> 6)) * (
        1.0 / 9007199254740992.0
    )
    picks = np.searchsorted(edges, draws * total, side="right")
    return residues[picks].tobytes().decode("ascii")


def insert_poly_run(
    sequence: str, residue: str, run_length: int, position: Optional[int] = None,
    seed: int = 0,
) -> str:
    """Insert a homopolymer run (e.g. poly-Q) into a sequence.

    The run *replaces* residues so the total length is preserved, which
    keeps paired samples length-comparable (promo vs 1YY9 in the paper
    have similar residue counts but very different MSA cost).
    """
    if run_length <= 0:
        return sequence
    if run_length > len(sequence):
        raise ValueError("run longer than sequence")
    if position is None:
        position = _rng(seed).randrange(0, len(sequence) - run_length + 1)
    if not 0 <= position <= len(sequence) - run_length:
        raise ValueError("run does not fit at position")
    return sequence[:position] + residue * run_length + sequence[position + run_length:]


def mutate_sequence(
    sequence: str,
    molecule_type: MoleculeType,
    identity: float,
    seed: int = 0,
    indel_rate: float = 0.02,
) -> str:
    """Produce a homolog by point mutation plus light indels.

    ``identity`` is the approximate fraction of positions left intact.
    Used to build homologous families for the synthetic databases so
    that profile-HMM searches find genuinely related sequences.
    """
    if not 0.0 <= identity <= 1.0:
        raise ValueError("identity must be in [0, 1]")
    rng = _rng(seed)
    alphabet = alphabet_for(molecule_type)
    out: List[str] = []
    for ch in sequence:
        roll = rng.random()
        if roll < indel_rate / 2:
            continue  # deletion
        if roll < indel_rate:
            out.append(rng.choice(alphabet))  # insertion before the residue
        if rng.random() < identity:
            out.append(ch)
        else:
            out.append(rng.choice(alphabet))
    if not out:  # pathological tiny input: keep one residue
        out.append(sequence[0])
    return "".join(out)


@dataclasses.dataclass(frozen=True)
class FamilySpec:
    """Specification of one homologous family in a synthetic database."""

    seed_length: int
    members: int
    identity: float = 0.6


def make_family(
    spec: FamilySpec,
    molecule_type: MoleculeType,
    seed: int = 0,
) -> Tuple[str, List[str]]:
    """Generate ``(seed_sequence, member_sequences)`` for a family."""
    seed_seq = random_sequence(spec.seed_length, molecule_type, seed=seed)
    members = [
        mutate_sequence(seed_seq, molecule_type, spec.identity, seed=seed + 1 + i)
        for i in range(spec.members)
    ]
    return seed_seq, members


def make_database_sequences(
    num_random: int,
    families: Sequence[FamilySpec],
    molecule_type: MoleculeType = MoleculeType.PROTEIN,
    length_range: Tuple[int, int] = (80, 400),
    seed: int = 0,
) -> List[Tuple[str, str]]:
    """Build a synthetic database as ``(name, sequence)`` records.

    The database mixes unrelated background sequences with homologous
    families, so search hits are a mix of true homologs and chance
    partial matches — the same structure that drives jackhmmer's filter
    cascade on real databases.
    """
    rng = _rng(seed)
    records: List[Tuple[str, str]] = []
    lo, hi = length_range
    if lo < 1 or hi < lo:
        raise ValueError("invalid length_range")
    for i in range(num_random):
        length = rng.randint(lo, hi)
        records.append(
            (f"rand{i:06d}", random_sequence(length, molecule_type, seed=seed + 7919 * (i + 1)))
        )
    for fidx, spec in enumerate(families):
        _, members = make_family(spec, molecule_type, seed=seed + 104729 * (fidx + 1))
        for midx, member in enumerate(members):
            records.append((f"fam{fidx:03d}_{midx:04d}", member))
    return records


def homologous_query(
    database_records: Sequence[Tuple[str, str]],
    family_index: int,
    molecule_type: MoleculeType = MoleculeType.PROTEIN,
    identity: float = 0.7,
    seed: int = 0,
) -> str:
    """Derive a query sequence homologous to one database family.

    Picks the first member of the requested family and mutates it, so a
    profile search against the database should recover the family.
    """
    prefix = f"fam{family_index:03d}_"
    for name, seq in database_records:
        if name.startswith(prefix):
            return mutate_sequence(seq, molecule_type, identity, seed=seed)
    raise ValueError(f"family {family_index} not present in database")
