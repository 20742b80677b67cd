"""Benchmark input samples and their workload-relevant properties."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List

from .alphabets import MoleculeType
from .chain import Assembly, Chain
from .complexity import ComplexityProfile, profile_sequence


class ComplexityClass(enum.Enum):
    """Qualitative workload complexity, matching the paper's Table II."""

    LOW = "Low"
    LOW_MID = "Low-Mid"
    MID = "Mid"
    MID_HIGH = "Mid-High"
    HIGH = "High"


@dataclasses.dataclass(frozen=True)
class InputSample:
    """One AFSysBench input: an assembly plus benchmark metadata.

    Mirrors a row of the paper's Table II — sample name, structure
    composition, complexity class, sequence length and what workload
    characteristic the sample targets.
    """

    name: str
    assembly: Assembly
    complexity: ComplexityClass
    target_characteristic: str

    @property
    def sequence_length(self) -> int:
        """Total residues across all chains (paper's "Seq. Length")."""
        return self.assembly.total_residues

    @property
    def structure_description(self) -> str:
        return self.assembly.describe()

    def chain_complexity_profiles(self) -> Dict[str, ComplexityProfile]:
        """Complexity profile per polymer chain (keyed by chain id)."""
        return {
            chain.chain_id: profile_sequence(chain.sequence)  # type: ignore[arg-type]
            for chain in self.assembly
            if chain.molecule_type.is_polymer
        }

    def msa_queries(self) -> List[Chain]:
        """Unique chains that undergo MSA search (protein + RNA)."""
        return self.assembly.msa_chains()

    @property
    def has_rna(self) -> bool:
        return bool(self.assembly.chains_of(MoleculeType.RNA))

    @property
    def max_rna_length(self) -> int:
        """Longest RNA chain; drives nhmmer's non-linear memory (Fig 2)."""
        rna = self.assembly.chains_of(MoleculeType.RNA)
        return max((c.length for c in rna), default=0)

    def table_row(self) -> Dict[str, object]:
        """Row in the format of the paper's Table II."""
        return {
            "Sample": self.name,
            "Structure": self.structure_description,
            "Complexity": self.complexity.value,
            "Seq. Length": self.sequence_length,
            "Target": self.target_characteristic,
        }


def classify_complexity(sample_length: int, chain_count: int, mixed: bool) -> ComplexityClass:
    """Heuristic complexity classification for user-supplied samples.

    Builtin samples carry the paper's published class; this helper is
    for new inputs fed through the public API.
    """
    score = 0
    if sample_length > 400:
        score += 1
    if sample_length > 800:
        score += 1
    if sample_length > 1200:
        score += 1
    if chain_count > 2:
        score += 1
    if mixed:
        score += 1
    bands = [
        ComplexityClass.LOW,
        ComplexityClass.LOW_MID,
        ComplexityClass.MID,
        ComplexityClass.MID_HIGH,
        ComplexityClass.HIGH,
    ]
    return bands[min(score, len(bands) - 1)]
