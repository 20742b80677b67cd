"""MSA feature tensors: the (M x N x d) representations AF3 consumes.

The MSA phase's output is a stack of aligned sequences per chain;
AF3's feature pipeline one-hot encodes them, computes per-column
profiles and deletion statistics, and concatenates chains into the
cross-chain feature set the input embedder reads.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

import numpy as np

from ..sequences.alphabets import GAP, MoleculeType
from .aligner import Msa

#: Feature classes: the union protein+nucleic alphabet plus gap and
#: unknown, so chains of different molecule types share one encoding.
FEATURE_ALPHABET = tuple("ACDEFGHIKLMNPQRSTVWY") + ("U",) + (GAP, "X")
FEATURE_DIM = len(FEATURE_ALPHABET)

_FEATURE_INDEX: Dict[str, int] = {c: i for i, c in enumerate(FEATURE_ALPHABET)}


def encode_residue(residue: str) -> int:
    """Feature-class index of a residue (unknowns map to the X class)."""
    return _FEATURE_INDEX.get(residue, _FEATURE_INDEX["X"])


@dataclasses.dataclass(frozen=True)
class ChainFeatures:
    """Feature tensors for one chain's MSA."""

    chain_id: str
    molecule_type: MoleculeType
    msa_onehot: np.ndarray      # (M, N, FEATURE_DIM) float32
    profile: np.ndarray         # (N, FEATURE_DIM) column frequencies
    deletion_mean: np.ndarray   # (N,) mean gap fraction per column
    depth: int
    width: int

    def __post_init__(self) -> None:
        m, n, d = self.msa_onehot.shape
        if (m, n, d) != (self.depth, self.width, FEATURE_DIM):
            raise ValueError("msa_onehot shape mismatch")
        if self.profile.shape != (self.width, FEATURE_DIM):
            raise ValueError("profile shape mismatch")
        if self.deletion_mean.shape != (self.width,):
            raise ValueError("deletion_mean shape mismatch")

    @property
    def nbytes(self) -> int:
        return int(
            self.msa_onehot.nbytes + self.profile.nbytes + self.deletion_mean.nbytes
        )


def featurize_msa(chain_id: str, msa: Msa) -> ChainFeatures:
    """One-hot + profile features from an assembled MSA."""
    depth, width = msa.depth, msa.width
    onehot = np.zeros((depth, width, FEATURE_DIM), dtype=np.float32)
    for r, row in enumerate(msa.rows):
        for c, ch in enumerate(row):
            onehot[r, c, encode_residue(ch)] = 1.0
    profile = onehot.mean(axis=0)
    gap_idx = _FEATURE_INDEX[GAP]
    deletion_mean = onehot[:, :, gap_idx].mean(axis=0)
    return ChainFeatures(
        chain_id=chain_id,
        molecule_type=msa.molecule_type,
        msa_onehot=onehot,
        profile=profile,
        deletion_mean=deletion_mean,
        depth=depth,
        width=width,
    )


@dataclasses.dataclass(frozen=True)
class AssemblyFeatures:
    """Concatenated per-chain features for one prediction target.

    ``token_classes`` is the (N_total,) residue-class vector over the
    whole assembly (all chains and copies, in chain order); the paired
    MSA matrix is block-diagonal per chain, which is how AF3 pairs
    chains that have no cross-chain alignment.
    """

    name: str
    chain_features: Dict[str, ChainFeatures]
    token_classes: np.ndarray
    chain_boundaries: Dict[str, tuple]

    @property
    def num_tokens(self) -> int:
        return int(self.token_classes.shape[0])

    @property
    def max_msa_depth(self) -> int:
        if not self.chain_features:
            return 1
        return max(f.depth for f in self.chain_features.values())

    @property
    def nbytes(self) -> int:
        return int(self.token_classes.nbytes) + sum(
            f.nbytes for f in self.chain_features.values()
        )


def build_assembly_features(
    name: str,
    chain_sequences: Sequence[tuple],
    chain_msas: Dict[str, Msa],
) -> AssemblyFeatures:
    """Combine per-chain MSAs into assembly-level features.

    ``chain_sequences`` is ``[(chain_id, molecule_type, sequence,
    copies), ...]`` covering *every* polymer chain (DNA chains have no
    MSA and get a single-row trivial one).
    """
    chain_features: Dict[str, ChainFeatures] = {}
    tokens: List[int] = []
    boundaries: Dict[str, tuple] = {}
    cursor = 0
    for chain_id, mtype, sequence, copies in chain_sequences:
        msa = chain_msas.get(chain_id)
        if msa is None:
            msa = Msa(
                query_name=chain_id,
                molecule_type=mtype,
                rows=(sequence,),
                row_names=(chain_id,),
            )
        chain_features[chain_id] = featurize_msa(chain_id, msa)
        for _ in range(copies):
            start = cursor
            tokens.extend(encode_residue(ch) for ch in sequence)
            cursor += len(sequence)
            boundaries.setdefault(chain_id, tuple())
            boundaries[chain_id] = boundaries[chain_id] + ((start, cursor),)
    return AssemblyFeatures(
        name=name,
        chain_features=chain_features,
        token_classes=np.asarray(tokens, dtype=np.int32),
        chain_boundaries=boundaries,
    )


def build_paired_assembly_features(
    name: str,
    chain_sequences: Sequence[tuple],
    chain_msas: Dict[str, "object"],
    max_paired_rows: int = 256,
) -> AssemblyFeatures:
    """Assembly features using cross-chain MSA *pairing*.

    Where :func:`build_assembly_features` lays chains out block-
    diagonally (no inter-chain rows), this variant builds the paired
    assembly MSA (see :mod:`repro.msa.pairing`): rows whose chains come
    from the same (synthetic) taxon are concatenated into genuine
    cross-chain rows carrying inter-chain co-evolution signal, and the
    remainder is gap-padded per chain.  The result is featurised as a
    single assembly-wide chain entry spanning every searched chain.

    Chains without an MSA (DNA) are excluded from the paired block and
    appended with trivial single-row features, exactly as AF3 excludes
    them from the MSA phase.
    """
    from .pairing import pair_msas, paired_assembly_msa

    searched = {
        cid: msa for cid, msa in chain_msas.items() if msa is not None
    }
    if not searched:
        return build_assembly_features(name, chain_sequences, {})
    paired = pair_msas(searched, max_paired_rows=max_paired_rows)
    assembly_msa = paired_assembly_msa(
        paired, {cid: m.molecule_type for cid, m in searched.items()}
    )
    features = build_assembly_features(name, chain_sequences, chain_msas)
    paired_features = featurize_msa("__assembly__", assembly_msa)
    chain_feats = dict(features.chain_features)
    chain_feats["__assembly__"] = paired_features
    return AssemblyFeatures(
        name=features.name,
        chain_features=chain_feats,
        token_classes=features.token_classes,
        chain_boundaries=features.chain_boundaries,
    )
