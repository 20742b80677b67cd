"""Persistent inference serving (the paper's second Section VI proposal).

"Under AlphaFold3's Docker-based runtime environment, each inference
request incurs repeated model initialization ... maintaining persistent
model state can substantially improve throughput and responsiveness."

This module simulates exactly that deployment: a long-lived process
that initialises the GPU once, keeps weights resident, and caches XLA
executables per input-shape bucket (JAX recompiles whenever the padded
shape changes, so bucketing matters — a realistic serving detail this
simulation exposes).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.platform import Platform
from ..model.config import ModelConfig
from ..model.memory_planner import AttentionSchedule
from ..sequences.sample import InputSample

#: Token-count bucket boundaries used for shape padding.  The full AF3
#: ``--buckets`` flag default (SNIPPETS.md Snippet 1): 13 edges from
#: 256 to the 5120-token shape ceiling.
DEFAULT_BUCKETS = (
    256, 512, 768, 1024, 1280, 1536, 2048, 2560, 3072, 3584, 4096, 4608, 5120,
)


def bucket_for(num_tokens: int, buckets=DEFAULT_BUCKETS) -> int:
    """Smallest bucket that holds the input (inputs pad up to it)."""
    for edge in buckets:
        if num_tokens <= edge:
            return edge
    raise ValueError(
        f"{num_tokens} tokens exceeds the largest bucket {buckets[-1]}"
    )


@dataclasses.dataclass(frozen=True)
class RequestResult:
    """Latency accounting for one served request."""

    sample_name: str
    num_tokens: int
    bucket: int
    init_seconds: float       # only the first request pays this
    compile_seconds: float    # paid once per new bucket
    compute_seconds: float
    finalize_seconds: float
    msa_depth: int = 128      # depth the request was served with

    @property
    def latency_seconds(self) -> float:
        return (
            self.init_seconds + self.compile_seconds
            + self.compute_seconds + self.finalize_seconds
        )


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Latency accounting for one batched executable invocation.

    The serving gateway coalesces same-bucket requests and runs them
    through a single warm worker; every member of the batch completes
    together after ``latency_seconds``.
    """

    bucket: int
    batch_size: int
    num_tokens: Tuple[int, ...]
    init_seconds: float       # paid only by a cold worker's first batch
    compile_seconds: float    # paid once per new bucket on this worker
    compute_seconds: float    # batched kernels: overhead amortised
    finalize_seconds: float   # per-request output writing, scales with B
    used_unified_memory: bool

    @property
    def latency_seconds(self) -> float:
        return (
            self.init_seconds + self.compile_seconds
            + self.compute_seconds + self.finalize_seconds
        )


class InferenceServer:
    """A warm AF3 serving process on one simulated platform.

    This is both the standalone single-stream server of the Section VI
    proposal and the per-worker engine of
    :class:`repro.serving.ServingGateway`: each gateway GPU worker owns
    one ``InferenceServer`` and carries its own warm state (device
    init, per-bucket executables), so worker counts and bucket routing
    interact exactly as they would across real processes.
    """

    def __init__(
        self,
        platform: Platform,
        model_config: Optional[ModelConfig] = None,
        buckets=DEFAULT_BUCKETS,
        compile_cache=None,
    ) -> None:
        """The worker runs the production chunked attention schedule.

        ``compile_cache`` optionally points at a
        :class:`repro.buckets.SharedCompileCache` shared with other
        workers/nodes (AF3's ``--jax_compilation_cache_dir``): a
        local compile miss first consults it — a shared hit pays only
        the deserialize cost, a shared miss pays the full compile and
        publishes.  The cache survives :meth:`reset` (it lives outside
        the process), which is exactly why re-warm after a crash gets
        cheaper with it."""
        self.platform = platform
        self.buckets = tuple(sorted(buckets))
        self._sim = AttentionSchedule().simulator(platform, model_config)
        self.compile_cache = compile_cache
        self._initialized = False
        self._compiled_buckets: Dict[int, float] = {}
        self.history: List[RequestResult] = []
        self.batch_history: List[BatchResult] = []
        self.cold_starts = 0   # resets survived (crash recoveries)

    @property
    def warm_buckets(self) -> List[int]:
        return sorted(self._compiled_buckets)

    @property
    def warm(self) -> bool:
        """Whether the process holds any warm state worth losing."""
        return self._initialized or bool(self._compiled_buckets)

    def reset(self) -> None:
        """Model a process crash: all warm state is lost.

        The restarted worker keeps its identity and history but owes
        device init and per-bucket XLA compilation again — the next
        request/batch pays the cold-start penalty the paper measures
        (this is the re-warm cost the fault-injection layer accounts).
        """
        self._initialized = False
        self._compiled_buckets.clear()
        self.cold_starts += 1

    def _compile_cost(self, bucket: int, full_compile_seconds: float) -> float:
        """Compile seconds this request pays, consulting the shared cache.

        A bucket already warm in this process costs nothing.  Otherwise
        the shared cache (if any) arbitrates: hit pays the deserialize
        cost, miss pays ``full_compile_seconds`` and publishes.
        """
        if bucket in self._compiled_buckets:
            return 0.0
        if self.compile_cache is not None:
            compile_s = self.compile_cache.lookup(
                self.platform.name, bucket, full_compile_seconds
            )
        else:
            compile_s = full_compile_seconds
        self._compiled_buckets[bucket] = compile_s
        return compile_s

    def submit(self, sample: InputSample, msa_depth: int = 128) -> RequestResult:
        """Serve one request, paying only the cold costs still owed."""
        num_tokens = sample.assembly.num_tokens
        bucket = bucket_for(num_tokens, self.buckets)
        cold = self._sim.run(bucket, threads=1, msa_depth=msa_depth)

        init = 0.0
        if not self._initialized:
            init = cold.initialization
            self._initialized = True
        compile_s = self._compile_cost(bucket, cold.xla_compile)

        # Compute runs at the PADDED bucket size: padding waste is the
        # price of the executable cache.
        result = RequestResult(
            sample_name=sample.name,
            num_tokens=num_tokens,
            bucket=bucket,
            init_seconds=init,
            compile_seconds=compile_s,
            compute_seconds=cold.gpu_compute,
            finalize_seconds=cold.finalization,
            msa_depth=msa_depth,
        )
        self.history.append(result)
        return result

    def serve_batch(
        self,
        token_counts: Sequence[int],
        msa_depth: int = 128,
        allow_unified_memory: bool = True,
        memory_pressure_bytes: float = 0.0,
        slowdown: float = 1.0,
    ) -> BatchResult:
        """Run same-bucket requests as one batched executable invocation.

        Every input pads to the bucket of the largest member (the
        gateway's batcher only coalesces same-bucket requests, so in
        practice they already share it).  The batch pays init/compile
        only if this worker still owes them, amortises per-unit kernel
        launch overhead across the batch, and scales flops and
        finalisation with the batch size.

        Raises :class:`~repro.hardware.gpu.GpuOutOfMemoryError` when the
        batch's aggregate activations exceed device memory and unified
        memory is disallowed — the gateway reacts by splitting the
        batch.

        ``memory_pressure_bytes`` and ``slowdown`` pass straight to the
        :class:`~repro.hardware.gpu.InferenceSimulator` fault hooks
        (external memory pressure and slow-node kernel degradation).
        """
        if not token_counts:
            raise ValueError("serve_batch needs at least one request")
        bucket = bucket_for(max(token_counts), self.buckets)
        cold = self._sim.run(
            bucket, threads=1, msa_depth=msa_depth,
            allow_unified_memory=allow_unified_memory,
            batch_size=len(token_counts),
            memory_pressure_bytes=memory_pressure_bytes,
            slowdown=slowdown,
        )
        init = 0.0
        if not self._initialized:
            init = cold.initialization
            self._initialized = True
        compile_s = self._compile_cost(bucket, cold.xla_compile)
        result = BatchResult(
            bucket=bucket,
            batch_size=len(token_counts),
            num_tokens=tuple(token_counts),
            init_seconds=init,
            compile_seconds=compile_s,
            compute_seconds=cold.gpu_compute,
            finalize_seconds=cold.finalization,
            used_unified_memory=cold.used_unified_memory,
        )
        self.batch_history.append(result)
        return result

    def total_seconds(self) -> float:
        return sum(r.latency_seconds for r in self.history)

    def cold_equivalent_seconds(self, requests: Optional[List[InputSample]] = None,
                                msa_depth: int = 128) -> float:
        """What the same request stream costs in AF3's one-process-per-
        request Docker deployment (every request pays init + compile at
        its exact size, no padding waste).

        With no ``requests`` argument the served history is re-costed,
        reusing each request's actual ``msa_depth``; explicit samples
        fall back to the ``msa_depth`` parameter.
        """
        total = 0.0
        if requests is None:
            for r in self.history:
                total += self._sim.run(
                    r.num_tokens, threads=1, msa_depth=r.msa_depth
                ).total
        else:
            for sample in requests:
                total += self._sim.run(
                    sample.assembly.num_tokens, threads=1,
                    msa_depth=msa_depth,
                ).total
        return total

    def speedup_over_cold(self) -> float:
        """Throughput gain of the warm server over per-request Docker."""
        warm = self.total_seconds()
        if warm <= 0:
            raise ValueError("no requests served yet")
        return self.cold_equivalent_seconds() / warm
