"""The analytic MSA-phase model: scan seconds and MSA depth from lengths.

In the paper the MSA phase is a CPU stage whose cost depends only on
the chains searched: protein chains pay jackhmmer-style superlinear
scan cost, RNA chains pay the far heavier nhmmer cost (Fig 2/4: RNA
search dominates mixed inputs), and the depth of the MSA handed to
inference grows with the assembly's residues.  Costs scale with the
host's single-thread instruction rate and sublinearly with the thread
count — the same saturation the thread-sweep experiments show.

This module is the one owner of those closed forms.  The serving
gateway prices a whole assembly per scan (:class:`AnalyticMsaCostModel`,
one streaming overhead per assembly); the cluster scans chain by chain
(:func:`chain_scan_seconds`, one overhead per chain); the campaign's
MSA stage prices a target with :func:`msa_cost`.  All three share
:func:`scan_instructions` and :func:`msa_depth`, so their figures agree
bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..hardware.platform import Platform
from ..sequences.chain import Chain
from ..sequences.sample import InputSample

__all__ = [
    "AnalyticMsaCostModel",
    "MsaCost",
    "chain_scan_seconds",
    "msa_cost",
    "msa_depth",
    "scan_instructions",
]

#: Instruction-count coefficients (chain length in residues).
PROTEIN_COEFF = 6.0e9
PROTEIN_EXP = 1.2
RNA_COEFF = 8.0e9
RNA_EXP = 1.35
OVERHEAD_INSTRUCTIONS = 1.2e11   # database streaming / setup, per scan
THREAD_EXP = 0.75                # sublinear thread scaling


@dataclasses.dataclass(frozen=True)
class MsaCost:
    """Service time and resulting depth of one MSA-phase execution."""

    seconds: float
    depth: int


def msa_depth(residues: int) -> int:
    """Depth of the MSA the inference phase is served with."""
    return min(254, 32 + residues // 6)


def scan_instructions(chain: Chain) -> float:
    """Instructions one chain's database scan executes, setup excluded."""
    if chain.molecule_type.value == "rna":
        return RNA_COEFF * chain.length ** RNA_EXP
    return PROTEIN_COEFF * chain.length ** PROTEIN_EXP


def _instruction_rate(platform: Platform, threads: int) -> float:
    return platform.host_single_thread_ips * threads ** THREAD_EXP


def chain_scan_seconds(
    platform: Platform, chain: Chain, threads: int = 8
) -> float:
    """Seconds one host spends scanning the databases for one chain.

    Each scan streams the database once, so the setup overhead is paid
    per chain, not per assembly.
    """
    instructions = scan_instructions(chain) + OVERHEAD_INSTRUCTIONS
    return instructions / _instruction_rate(platform, threads)


def msa_cost(
    sample: InputSample, platform: Platform, threads: int = 8
) -> MsaCost:
    """Scan seconds + MSA depth of one assembly's MSA phase."""
    instructions = OVERHEAD_INSTRUCTIONS
    for chain in sample.msa_queries():
        instructions += scan_instructions(chain)
    return MsaCost(
        seconds=instructions / _instruction_rate(platform, threads),
        depth=msa_depth(sample.assembly.total_residues),
    )


class AnalyticMsaCostModel:
    """:func:`msa_cost` for one host and thread count, cached per
    content key.  Deterministic and cheap: a 200-request stream costs
    200 dictionary lookups, not 200 profile-HMM searches."""

    def __init__(self, platform: Platform, threads: int = 8) -> None:
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.platform = platform
        self.threads = threads
        self._cache: Dict[str, MsaCost] = {}

    def cost(self, sample: InputSample, key: str) -> MsaCost:
        """Scan seconds + MSA depth for ``sample``, cached per chain
        content ``key`` (``chain_content_key(sample.assembly)``, which
        callers hold already)."""
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        result = msa_cost(sample, self.platform, self.threads)
        self._cache[key] = result
        return result
