"""Static memory estimation (the paper's first Section VI proposal).

AF3 performs no memory validation before launch; the paper recommends
"integrating a static memory estimator that analyzes input
characteristics — particularly RNA length — prior to execution".  This
module is that estimator: given an assembly, it predicts

* peak CPU memory of the MSA phase (nhmmer's non-linear RNA curve,
  jackhmmer's thread-scaled protein footprint),
* GPU memory demand of the inference phase,

and classifies the run against every platform preset, so unsafe
configurations are flagged before any compute is spent.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..hardware.gpu import WEIGHTS_BYTES, activation_memory_bytes
from ..hardware.memory import MemoryOutcome
from ..hardware.platform import DESKTOP, DESKTOP_128G, Platform, SERVER
from ..model.memory_planner import AttentionSchedule
from ..msa.nhmmer import chain_peak_memory_bytes
from ..sequences.chain import Assembly
from .report import render_table

GIB = 1024 ** 3

DEFAULT_PLATFORMS = (SERVER, DESKTOP, DESKTOP_128G)


@dataclasses.dataclass(frozen=True)
class PlatformVerdict:
    """One platform's feasibility for one input."""

    platform_name: str
    msa_outcome: MemoryOutcome
    gpu_fits: bool
    gpu_needs_unified_memory: bool

    @property
    def runnable(self) -> bool:
        return self.msa_outcome is not MemoryOutcome.OOM and self.gpu_fits


@dataclasses.dataclass(frozen=True)
class MemoryEstimate:
    """The full pre-check report for one assembly."""

    assembly_name: str
    threads: int
    msa_peak_bytes: float
    dominant_chain: str
    gpu_demand_bytes: float
    verdicts: List[PlatformVerdict]
    #: Attention schedule the GPU demand was computed for.
    schedule: AttentionSchedule = AttentionSchedule()

    @property
    def safe_somewhere(self) -> bool:
        return any(v.runnable for v in self.verdicts)

    def warnings(self) -> List[str]:
        """The early warnings the paper says AF3 should issue."""
        out: List[str] = []
        for v in self.verdicts:
            if v.msa_outcome is MemoryOutcome.OOM:
                out.append(
                    f"{v.platform_name}: MSA peak "
                    f"{self.msa_peak_bytes / GIB:.1f} GiB would be "
                    f"OOM-killed (dominant chain: {self.dominant_chain})"
                )
            elif v.msa_outcome is MemoryOutcome.FITS_WITH_CXL:
                out.append(
                    f"{v.platform_name}: requires the CXL memory expander"
                )
            if v.gpu_needs_unified_memory and v.gpu_fits:
                out.append(
                    f"{v.platform_name}: inference exceeds device memory; "
                    f"enable unified memory"
                )
        if not self.safe_somewhere:
            out.append(
                "input exceeds every known configuration — refuse to launch"
            )
        return out

    def render(self) -> str:
        rows = []
        for v in self.verdicts:
            rows.append((
                v.platform_name,
                v.msa_outcome.value,
                "unified memory" if v.gpu_needs_unified_memory and v.gpu_fits
                else ("ok" if v.gpu_fits else "OOM"),
                "yes" if v.runnable else "NO",
            ))
        table = render_table(
            ["Platform", "MSA memory", "GPU memory", "Runnable"],
            rows,
            title=(
                f"Memory estimate for {self.assembly_name}: MSA peak "
                f"{self.msa_peak_bytes / GIB:.1f} GiB @ {self.threads}T, "
                f"GPU demand {self.gpu_demand_bytes / GIB:.1f} GiB"
            ),
        )
        warnings = self.warnings()
        if warnings:
            table += "\nWarnings:\n" + "\n".join(f"  * {w}" for w in warnings)
        return table


def _msa_demand(chain, threads: int) -> float:
    return chain_peak_memory_bytes(chain.molecule_type, chain.length, threads)


def estimate_msa_peak_bytes(assembly: Assembly, threads: int) -> float:
    """Peak MSA-phase memory across all searched chains."""
    return max(
        (_msa_demand(chain, threads) for chain in assembly.msa_chains()),
        default=0.0,
    )


def dominant_msa_chain(assembly: Assembly, threads: int) -> str:
    """The chain responsible for the MSA peak (for the warning text)."""
    chains = assembly.msa_chains()
    if not chains:
        return "-"
    return max(chains, key=lambda chain: _msa_demand(chain, threads)).chain_id


def estimate(
    assembly: Assembly,
    threads: int = 8,
    platforms: Optional[Sequence[Platform]] = None,
    schedule: AttentionSchedule = AttentionSchedule(),
) -> MemoryEstimate:
    """Run the static pre-check for one assembly.

    ``schedule`` sizes the GPU demand — the resident path's O(N³)
    attention intermediates (the paper's Fig. 5 blow-up), or what a
    tiled block leaves of them — and admits exactly as ``repro run``
    does: only the default chunked schedule, bit-identical to the
    historical estimate, may be rescued by unified memory.  A tiled
    schedule must bring its block, since an estimate spans devices.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    msa_peak = estimate_msa_peak_bytes(assembly, threads)
    gpu_demand = WEIGHTS_BYTES + activation_memory_bytes(
        assembly.num_tokens,
        chunked_triangle=schedule.chunked_triangle,
        attention_block=schedule.live_block,
    )
    verdicts = []
    for platform in platforms or DEFAULT_PLATFORMS:
        gpu_spills = gpu_demand > platform.gpu.memory_bytes
        gpu_fits = (not gpu_spills) or (
            schedule.allow_unified_memory
            and platform.gpu.supports_unified_memory
        )
        verdicts.append(PlatformVerdict(
            platform_name=platform.name,
            msa_outcome=platform.memory.check(msa_peak),
            gpu_fits=gpu_fits,
            gpu_needs_unified_memory=gpu_spills,
        ))
    return MemoryEstimate(
        assembly_name=assembly.name,
        threads=threads,
        msa_peak_bytes=msa_peak,
        dominant_chain=dominant_msa_chain(assembly, threads),
        gpu_demand_bytes=gpu_demand,
        verdicts=verdicts,
        schedule=schedule,
    )
