"""Performance-analysis toolkit: rooflines, top-down, report diffs.

Turns the raw simulated counters into the analyses an architect would
run on the real measurements:

* **GPU roofline** — per-layer arithmetic intensity against the
  device's machine balance, classifying each AF3 layer as compute- or
  memory-bound (the paper's observation that global attention "suffers
  from poor memory locality" becomes a number here).
* **CPU top-down** — splits simulated cycles into retiring vs the
  stall categories the model tracks (cache, TLB, branch), per function.
* **Report diff** — counter deltas between two runs (e.g. 1T vs 6T),
  the view used to reason about scaling regressions.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

from ..hardware.cpu import CpuPhaseReport
from ..hardware.gpu import GpuSpec, H100, H100_SCOPE_PARAMS, DEFAULT_SCOPE_PARAMS
from ..model.config import ModelConfig
from ..model.flops import diffusion_step_costs, pairformer_block_costs


class BoundType(enum.Enum):
    """Which roofline a kernel sits under."""

    COMPUTE = "compute-bound"
    MEMORY = "memory-bound"
    OVERHEAD = "launch-overhead-bound"


@dataclasses.dataclass(frozen=True)
class RooflinePoint:
    """One layer's position on the device roofline."""

    scope: str
    flops: float
    bytes: float
    arithmetic_intensity: float     # flops per byte
    machine_balance: float          # device flops per byte at this layer's
                                    # effective throughput
    bound: BoundType

    @property
    def intensity_ratio(self) -> float:
        """<1 means below the ridge point (memory-bound territory)."""
        return self.arithmetic_intensity / self.machine_balance


def gpu_roofline(
    num_tokens: int,
    gpu: GpuSpec = H100,
    config: Optional[ModelConfig] = None,
) -> List[RooflinePoint]:
    """Roofline placement of every Pairformer/Diffusion layer."""
    cfg = config or ModelConfig.af3()
    costs = {
        **pairformer_block_costs(num_tokens, cfg),
        **diffusion_step_costs(num_tokens, cfg),
    }
    points: List[RooflinePoint] = []
    for scope, cost in costs.items():
        if cost.bytes <= 0 or cost.flops <= 0:
            continue
        params = H100_SCOPE_PARAMS.get(scope, DEFAULT_SCOPE_PARAMS)
        effective_flops = params.tflops * 1e12 * gpu.throughput_scale
        balance = effective_flops / (gpu.hbm_bandwidth_gbps * 1e9)
        intensity = cost.flops / cost.bytes
        compute_time = cost.flops / effective_flops
        memory_time = cost.bytes / (gpu.hbm_bandwidth_gbps * 1e9)
        overhead = params.overhead_s * gpu.overhead_scale
        if overhead > max(compute_time, memory_time):
            bound = BoundType.OVERHEAD
        elif intensity >= balance:
            bound = BoundType.COMPUTE
        else:
            bound = BoundType.MEMORY
        points.append(RooflinePoint(
            scope=scope,
            flops=cost.flops,
            bytes=cost.bytes,
            arithmetic_intensity=intensity,
            machine_balance=balance,
            bound=bound,
        ))
    points.sort(key=lambda p: -p.flops)
    return points


@dataclasses.dataclass(frozen=True)
class TopDownBreakdown:
    """Cycle composition of one function (or a whole phase)."""

    function: str
    retiring_fraction: float
    cache_stall_fraction: float
    tlb_stall_fraction: float
    branch_stall_fraction: float

    def dominant(self) -> str:
        parts = {
            "retiring": self.retiring_fraction,
            "cache": self.cache_stall_fraction,
            "tlb": self.tlb_stall_fraction,
            "branch": self.branch_stall_fraction,
        }
        return max(parts, key=parts.get)


def top_down(report: CpuPhaseReport, base_cpi: float = 0.24,
             l1_penalty: float = 12.0, mem_penalty: float = 20.0,
             dtlb_penalty: float = 0.5, branch_penalty: float = 16.0,
             ) -> List[TopDownBreakdown]:
    """Approximate top-down decomposition from the simulated counters.

    Reconstructs the stall mix per function from the same penalty
    structure the simulator charges; fractions sum to ~1 per function.
    """
    out: List[TopDownBreakdown] = []
    for name, f in report.functions.items():
        if f.cycles <= 0:
            continue
        retire = f.instructions * base_cpi
        cache = f.l1_misses * l1_penalty + f.llc_misses * mem_penalty
        tlb = f.dtlb_misses * dtlb_penalty
        branch = f.branch_misses * branch_penalty
        total = max(retire + cache + tlb + branch, 1e-12)
        out.append(TopDownBreakdown(
            function=name,
            retiring_fraction=retire / total,
            cache_stall_fraction=cache / total,
            tlb_stall_fraction=tlb / total,
            branch_stall_fraction=branch / total,
        ))
    out.sort(key=lambda b: -report.functions[b.function].cycles)
    return out


@dataclasses.dataclass(frozen=True)
class CounterDelta:
    """One metric's change between two reports."""

    metric: str
    before: float
    after: float

    @property
    def ratio(self) -> float:
        return self.after / self.before if self.before else float("inf")


def compare_reports(
    before: CpuPhaseReport, after: CpuPhaseReport
) -> List[CounterDelta]:
    """Counter deltas (e.g. 1T vs 6T) over the headline metrics."""
    metrics = [
        ("seconds", before.seconds, after.seconds),
        ("ipc", before.ipc, after.ipc),
        ("cache_miss_mpki", before.cache_miss_mpki, after.cache_miss_mpki),
        ("l1_miss_pct", before.l1_miss_pct, after.l1_miss_pct),
        ("llc_miss_pct", before.llc_miss_pct, after.llc_miss_pct),
        ("dtlb_miss_pct", before.dtlb_miss_pct, after.dtlb_miss_pct),
        ("branch_miss_pct", before.branch_miss_pct, after.branch_miss_pct),
        ("bandwidth_utilization", before.bandwidth_utilization,
         after.bandwidth_utilization),
    ]
    return [CounterDelta(m, b, a) for m, b, a in metrics]
