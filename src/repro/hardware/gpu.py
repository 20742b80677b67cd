"""GPU inference model: initialisation, XLA compilation, kernels, memory.

The inference phase decomposes exactly as the paper's Nsight analysis
(Fig 8) does:

1. **GPU initialisation** — CUDA context + device mapping (device
   constant), weight upload, and the host-side XLA buffer preparation
   whose ``std::vector::_M_fill_insert`` page faults dominate Table V.
2. **XLA compilation** — host single-thread compile plus on-device
   autotuning.  Single-threaded, so inference gains nothing from more
   CPU threads (Fig 6); on the Server this phase plus init exceeds 75 %
   of inference time for small inputs.
3. **GPU compute** — per-scope kernel times from the analytic cost
   table: ``time = launch_overhead + flops / effective_throughput``,
   with effective throughputs calibrated per layer family so the
   Server's per-block/per-step times match the paper's Table VI.
4. **Finalisation** — device teardown and output writing.

Memory: activations grow ~N^2; past device capacity the run only
survives with unified memory (6QNR on the RTX 4080), paying a spill
slowdown.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, Optional, Tuple

from ..model.config import ModelConfig
from ..model.flops import ScopeCost, inference_costs

GIB = 1024 ** 3


@dataclasses.dataclass(frozen=True)
class ScopeKernelParams:
    """Calibrated kernel-time model for one layer scope.

    ``overhead_s`` is charged once per aggregation unit (a Pairformer
    block or a diffusion step — the same units as Table VI rows) and
    covers kernel launches, bias materialisation and layout changes.
    ``tflops`` is the effective (not peak) tensor throughput the layer
    family reaches at these problem sizes.
    """

    overhead_s: float
    tflops: float


# H100 per-scope calibration.  Anchored to the paper's Table VI
# (2PV7 vs promo per-block / per-step milliseconds on the Server).
H100_SCOPE_PARAMS: Dict[str, ScopeKernelParams] = {
    "pairformer.triangle_mult_outgoing": ScopeKernelParams(0.71e-3, 58.0),
    "pairformer.triangle_mult_incoming": ScopeKernelParams(0.71e-3, 58.0),
    "pairformer.triangle_attention_starting": ScopeKernelParams(0.93e-3, 34.0),
    "pairformer.triangle_attention_ending": ScopeKernelParams(0.93e-3, 34.0),
    "pairformer.pair_transition": ScopeKernelParams(0.35e-3, 55.0),
    "pairformer.single_attention": ScopeKernelParams(0.20e-3, 5.0),
    "pairformer.single_transition": ScopeKernelParams(0.10e-3, 30.0),
    "diffusion.global_attention": ScopeKernelParams(23.2e-3, 1.65),
    "diffusion.token_transition": ScopeKernelParams(2.0e-3, 12.0),
    "diffusion.local_attention_encoder": ScopeKernelParams(2.6e-3, 0.51),
    "diffusion.local_attention_decoder": ScopeKernelParams(2.4e-3, 0.67),
}

DEFAULT_SCOPE_PARAMS = ScopeKernelParams(0.15e-3, 20.0)


@dataclasses.dataclass(frozen=True)
class GpuSpec:
    """One accelerator (paper Table I)."""

    name: str
    memory_bytes: int
    throughput_scale: float      # vs the H100 calibration
    overhead_scale: float
    hbm_bandwidth_gbps: float
    device_init_seconds: float   # CUDA context + BAR mapping
    autotune_seconds: float      # device part of XLA compilation
    h2d_gbps: float
    supports_unified_memory: bool = True
    unified_memory_slowdown: float = 1.5

    def scope_time(self, scope: str, cost: ScopeCost, units: float) -> float:
        """Kernel time for one scope aggregated over ``units`` blocks/steps."""
        params = H100_SCOPE_PARAMS.get(scope, DEFAULT_SCOPE_PARAMS)
        compute = cost.flops / (params.tflops * 1e12 * self.throughput_scale)
        memory = cost.bytes / (self.hbm_bandwidth_gbps * 1e9)
        return units * params.overhead_s * self.overhead_scale + max(
            compute, memory
        )


H100 = GpuSpec(
    name="NVIDIA H100 80GB",
    memory_bytes=80 * GIB,
    throughput_scale=1.0,
    overhead_scale=1.0,
    hbm_bandwidth_gbps=3350.0,
    device_init_seconds=28.0,
    autotune_seconds=12.0,
    h2d_gbps=55.0,
)

RTX_4080 = GpuSpec(
    name="NVIDIA RTX 4080 16GB",
    memory_bytes=16 * GIB,
    throughput_scale=0.14,
    overhead_scale=1.6,
    hbm_bandwidth_gbps=717.0,
    device_init_seconds=12.0,
    autotune_seconds=1.5,
    h2d_gbps=25.0,
)


#: AF3 inference shape: trunk recycling passes and diffusion samples.
NUM_RECYCLES = 10
NUM_DIFFUSION_SAMPLES = 5

#: Model weights shipped to the device at initialisation.
WEIGHTS_BYTES = int(1.0 * GIB)

#: Host-side instruction budgets (single-threaded paths).
INIT_HOST_INSTRUCTIONS = 9.0e10       # XLA buffer prep / allocations
COMPILE_HOST_INSTRUCTIONS = 1.5e11    # HLO optimisation passes
FINALIZE_HOST_INSTRUCTIONS = 3.0e10   # output serialisation, teardown


#: Speedup unchunked triangle attention gains by materialising its
#: logits instead of recomputing them (the Table VI calibration is the
#: production chunked path, so chunked is the 1.0 baseline).
UNCHUNKED_TRIANGLE_SPEEDUP = 1.08


#: Decomposition of the historical ~10.7 KiB/pair activation constant
#: (see :func:`activation_memory_bytes`).  The pair stack — pair
#: representation, per-block residuals kept for recycling, transition
#: scratch — is irreducible per (i, j) pair; the triangle-attention
#: workspace scales with how many *pair rows* of (heads, N, N) logits
#: are live at once: two fp16 copies around the softmax times 16 heads
#: times 2 bytes = 64 bytes per pair per live row.
PAIR_STACK_BYTES_PER_PAIR = 10_444.0
ATTENTION_WORKSPACE_BYTES_PER_PAIR_ROW = 64.0
#: Pair rows per triangle-attention workspace tile in production AF3's
#: default chunked schedule (folded into the old 10 700 constant:
#: 10 444 + 4 * 64 = 10 700).
PRODUCTION_ATTENTION_BLOCK = 4
#: Token-count-independent base (CUDA context, cuDNN workspaces, ...).
ACTIVATION_BASE_BYTES = 2.0e8


def attention_workspace_bytes(
    num_tokens: int, attention_block: Optional[int] = None
) -> float:
    """Live triangle-attention workspace bytes on device.

    ``attention_block`` is the number of pair rows whose (heads, N, N)
    fp16 logits are resident at once; ``None`` means the fully
    resident path (all N rows) — the O(L²·heads) blow-up the paper's
    Fig. 5 shows failing admission for long targets.
    """
    rows = (
        float(num_tokens) if attention_block is None
        else float(min(attention_block, num_tokens))
    )
    return ATTENTION_WORKSPACE_BYTES_PER_PAIR_ROW * rows * num_tokens ** 2


def activation_memory_bytes(
    num_tokens: int,
    chunked_triangle: bool = True,
    attention_block: Optional[int] = None,
) -> float:
    """Peak device memory beyond weights, dominated by the pair stack.

    Calibrated so the paper's observed capacity events reproduce:
    6QNR (N=1395) exceeds the RTX 4080's 16 GiB and needs unified
    memory, while promo (N=857) and below fit.  The total decomposes
    into the irreducible pair stack plus the schedulable
    triangle-attention workspace (:func:`attention_workspace_bytes`):

    * ``chunked_triangle=True, attention_block=None`` — production
      AF3's default chunk schedule (:data:`PRODUCTION_ATTENTION_BLOCK`
      live pair rows); identical to the historical
      ``10 700 * N**2 + 2e8`` value.
    * ``chunked_triangle=False`` — the resident path: all N rows of
      (heads, N, N) fp16 logits live at once (two copies around the
      softmax).  This is why production AF3 chunks: an unchunked
      promo-sized input already needs tens of GiB and 6QNR exceeds
      even the H100.
    * ``attention_block=B`` — the memory planner's tiled schedule: B
      live rows, so the workspace is O(N²·B) instead of O(N³).
    """
    base = PAIR_STACK_BYTES_PER_PAIR * num_tokens ** 2 + ACTIVATION_BASE_BYTES
    if not chunked_triangle:
        block: Optional[int] = None        # fully resident
        return base + attention_workspace_bytes(num_tokens, block)
    if attention_block is None:
        # The production default block is a calibration constant folded
        # into the historical 10 700 B/pair figure; it is deliberately
        # not clamped to small N so the default value is bit-preserved.
        return base + (
            ATTENTION_WORKSPACE_BYTES_PER_PAIR_ROW
            * PRODUCTION_ATTENTION_BLOCK * num_tokens ** 2
        )
    return base + attention_workspace_bytes(num_tokens, attention_block)


#: Bound of the :func:`_scope_seconds` cache.  One entry (22 scopes) is
#: about 2 KB.  perfbench ``ppi-serve``'s warm-up plus three ops fill 251
#: entries; the worst case, 13 buckets x 223 depths x 4 batch sizes x 2
#: spill states ~ 23k entries (~45 MB) per platform and attention mode,
#: is capped at 2048 entries (<= 4 MB).
_SCOPE_SECONDS_CACHE_ENTRIES = 2048


@functools.lru_cache(maxsize=_SCOPE_SECONDS_CACHE_ENTRIES)
def _scope_seconds(
    cost_table, gpu: GpuSpec, cfg: ModelConfig, chunked_triangle: bool,
    num_tokens: int, msa_depth: int, batch_size: int, spill: bool,
) -> Tuple[Tuple[str, float], ...]:
    """Per-scope kernel seconds before ``slowdown``, in cost-table order.

    Pure in its (frozen, hashable) arguments, so one process-wide cache
    serves every simulator, and it holds only floats that no caller can
    mutate.  ``cost_table`` is the FLOP table function the caller read
    from the module global ``inference_costs``: it is part of the key,
    so a replaced table (a test's or a tracer's wrapper) is called on
    its own misses and never served seconds priced by another.
    """
    times = []
    costs = cost_table(num_tokens, cfg, msa_depth=msa_depth)
    for scope, cost in costs.items():
        if scope.startswith("pairformer."):
            # Cost table already aggregates the 48 blocks over one
            # trunk pass; recycling repeats the trunk.
            units = cfg.num_pairformer_blocks * NUM_RECYCLES
            scaled = cost * NUM_RECYCLES
        elif scope.startswith("diffusion."):
            # Aggregated over the denoising steps of one sample.
            units = cfg.num_diffusion_steps * NUM_DIFFUSION_SAMPLES
            scaled = cost * NUM_DIFFUSION_SAMPLES
        elif scope.startswith("msa_module.") or scope.startswith("embedder."):
            units = NUM_RECYCLES
            scaled = cost * NUM_RECYCLES
        else:
            units = 1
            scaled = cost
        seconds = gpu.scope_time(scope, scaled * batch_size, units)
        if not chunked_triangle and "triangle_attention" in scope:
            seconds /= UNCHUNKED_TRIANGLE_SPEEDUP
        if spill:
            seconds *= gpu.unified_memory_slowdown
        times.append((scope, seconds))
    return tuple(times)


@dataclasses.dataclass
class InferenceBreakdown:
    """Fig 8's four bars for one run, in seconds."""

    initialization: float
    xla_compile: float
    gpu_compute: float
    finalization: float
    used_unified_memory: bool
    device_memory_demand: float

    @property
    def total(self) -> float:
        return (
            self.initialization + self.xla_compile
            + self.gpu_compute + self.finalization
        )

    @property
    def compute_fraction(self) -> float:
        return self.gpu_compute / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "initialization": self.initialization,
            "xla_compile": self.xla_compile,
            "gpu_compute": self.gpu_compute,
            "finalization": self.finalization,
        }


class GpuOutOfMemoryError(RuntimeError):
    """Inference exceeded device memory with unified memory disabled."""


class InferenceSimulator:
    """Times the inference phase of one sample on one CPU+GPU pair."""

    def __init__(
        self,
        gpu: GpuSpec,
        host_single_thread_ips: float,
        config: Optional[ModelConfig] = None,
        host_thread_penalty: float = 0.0,
        chunked_triangle: bool = True,
        attention_block: Optional[int] = None,
    ) -> None:
        """``host_single_thread_ips``: the host CPU's 1-thread
        instructions/second (init/compile/dispatch are single-threaded).
        ``host_thread_penalty``: fractional init/compile slowdown per
        extra configured thread (allocator/NUMA contention; nonzero on
        the Server, where Fig 6 shows small inputs degrading).
        ``attention_block``: a memory-planner tile size — pair rows of
        triangle-attention logits live at once (``None`` = production
        default schedule; only meaningful with ``chunked_triangle``).
        Tiled runs keep the chunked Table VI timing calibration — the
        block is a memory knob, not a speed knob."""
        if attention_block is not None and attention_block < 1:
            raise ValueError("attention_block must be >= 1 (or None)")
        self.gpu = gpu
        self.host_ips = host_single_thread_ips
        self.config = config or ModelConfig.af3()
        self.host_thread_penalty = host_thread_penalty
        self.chunked_triangle = chunked_triangle
        self.attention_block = attention_block

    def memory_demand_bytes(
        self, num_tokens: int, batch_size: int = 1
    ) -> float:
        """Device memory demand: one weight set plus per-sample
        activations (a batch shares weights but not activations)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return WEIGHTS_BYTES + batch_size * activation_memory_bytes(
            num_tokens,
            chunked_triangle=self.chunked_triangle,
            attention_block=self.attention_block,
        )

    def compute_seconds(
        self, num_tokens: int, msa_depth: int = 1,
        allow_unified_memory: bool = True, batch_size: int = 1,
        memory_pressure_bytes: float = 0.0, slowdown: float = 1.0,
    ) -> Dict[str, float]:
        """Per-scope kernel seconds for the full inference recipe.

        ``batch_size > 1`` models serving-style batched execution of
        same-shape inputs through one executable: per-unit launch/layout
        overhead is paid once per aggregation unit regardless of batch
        size (kernels batch along the leading dimension), while flops
        and memory traffic scale with the batch — so batching amortises
        exactly the overheads that dominate small inputs, and nothing
        else.

        The last two knobs are fault-injection hooks (``repro.faults``):
        ``memory_pressure_bytes`` models a co-located allocation eating
        device memory (it tightens the OOM/spill decision without
        changing this run's own demand), and ``slowdown`` scales kernel
        time for a degraded device (thermal throttling, a slow node).
        """
        if num_tokens < 1:
            raise ValueError("num_tokens must be >= 1")
        if msa_depth < 1:
            raise ValueError("msa_depth must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if memory_pressure_bytes < 0:
            raise ValueError("memory_pressure_bytes must be >= 0")
        if slowdown <= 0:
            raise ValueError("slowdown must be > 0")
        demand = self.memory_demand_bytes(num_tokens, batch_size)
        spill = demand + memory_pressure_bytes > self.gpu.memory_bytes
        if spill and not (
            allow_unified_memory and self.gpu.supports_unified_memory
        ):
            pressure = (
                f" (+{memory_pressure_bytes / GIB:.1f} GiB external pressure)"
                if memory_pressure_bytes > 0 else ""
            )
            raise GpuOutOfMemoryError(
                f"{demand / GIB:.1f} GiB{pressure} exceeds {self.gpu.name} "
                f"({self.gpu.memory_bytes / GIB:.0f} GiB)"
            )
        return {
            scope: seconds * slowdown
            for scope, seconds in _scope_seconds(
                inference_costs, self.gpu, self.config, self.chunked_triangle,
                num_tokens, msa_depth, batch_size, spill,
            )
        }

    def run(
        self, num_tokens: int, threads: int = 1, msa_depth: int = 1,
        allow_unified_memory: bool = True,
        persistent_model_state: bool = False,
        batch_size: int = 1,
        memory_pressure_bytes: float = 0.0, slowdown: float = 1.0,
    ) -> InferenceBreakdown:
        """Full inference-phase breakdown (Fig 8's bars).

        ``persistent_model_state=True`` models the paper's Section VI
        optimisation: a warm process that skips device init and reuses
        the compiled executable.

        ``batch_size > 1`` times one batched executable invocation over
        same-bucket inputs: init and compile are batch-independent (the
        serving layer additionally amortises them across *batches*),
        kernel time follows the batched cost model, and finalisation —
        per-request output serialisation — scales with the batch.

        ``memory_pressure_bytes``/``slowdown`` are the fault-injection
        hooks documented on :meth:`compute_seconds`; pressure counts
        toward the OOM/spill decision but not toward this run's own
        reported demand, and slowdown scales kernel time only.
        """
        if threads < 1:
            raise ValueError("threads must be >= 1")
        thread_factor = 1.0 + self.host_thread_penalty * (threads - 1)
        demand = self.memory_demand_bytes(num_tokens, batch_size)

        if persistent_model_state:
            init = 0.5  # request setup only
            compile_s = 0.2  # executable cache hit
        else:
            init = (
                self.gpu.device_init_seconds
                + WEIGHTS_BYTES / (self.gpu.h2d_gbps * 1e9)
                + INIT_HOST_INSTRUCTIONS / self.host_ips
                * (demand / (8.0 * GIB)) ** 0.5
            ) * thread_factor
            compile_s = (
                self.gpu.autotune_seconds
                + COMPILE_HOST_INSTRUCTIONS / self.host_ips
                * (1.0 + num_tokens / 4000.0)
            ) * thread_factor
        compute = sum(
            self.compute_seconds(
                num_tokens, msa_depth, allow_unified_memory,
                batch_size=batch_size,
                memory_pressure_bytes=memory_pressure_bytes,
                slowdown=slowdown,
            ).values()
        )
        finalize = (
            1.0 + FINALIZE_HOST_INSTRUCTIONS / self.host_ips
        ) * thread_factor * batch_size
        return InferenceBreakdown(
            initialization=init,
            xla_compile=compile_s,
            gpu_compute=compute,
            finalization=finalize,
            used_unified_memory=(
                demand + memory_pressure_bytes > self.gpu.memory_bytes
            ),
            device_memory_demand=demand,
        )
