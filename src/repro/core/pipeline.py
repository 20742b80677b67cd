"""The end-to-end AF3 pipeline on a simulated platform.

One :class:`Af3Pipeline` binds an input sample to a platform and a
thread count and produces everything the paper measures about a single
run: MSA phase time and perf counters, inference phase breakdown,
memory verdicts, and storage behaviour.

This is the primary public entry point of the library::

    from repro import Af3Pipeline, SERVER, get_sample

    pipeline = Af3Pipeline(SERVER)
    result = pipeline.run(get_sample("2PV7"), threads=4)
    print(result.total_seconds, result.msa_fraction)
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..hardware.cpu import CpuPhaseReport, CpuSimulator
from ..hardware.gpu import InferenceBreakdown
from ..hardware.memory import MemoryOutcome, OutOfMemoryError
from ..hardware.platform import Platform
from ..hardware.storage import IostatReport, PageCacheModel, simulate_iostat
from ..model.config import ModelConfig
from ..model.memory_planner import AttentionSchedule
from ..msa.engine import MsaEngine, MsaPhaseResult
from ..parallel.plan import ExecutionPlan
from ..sequences.sample import InputSample

#: AF3's default thread setting, which the paper shows can be
#: counterproductive (Section IV-C1).
AF3_DEFAULT_THREADS = 8

#: Slowdown of memory-bound MSA work whose working set spills into the
#: CXL expander (CXL.mem adds ~2-3x DRAM latency; alignment scanning
#: is moderately latency-tolerant, so the effective penalty is below
#: the raw latency ratio).
CXL_SLOWDOWN_FACTOR = 1.8


@dataclasses.dataclass
class PipelineResult:
    """Everything one simulated AF3 run produces."""

    sample_name: str
    platform_name: str
    threads: int
    msa_report: CpuPhaseReport
    inference: InferenceBreakdown
    msa_result: MsaPhaseResult
    iostat: IostatReport
    memory_outcome: MemoryOutcome
    peak_memory_bytes: float

    @property
    def msa_seconds(self) -> float:
        return self.msa_report.seconds

    @property
    def inference_seconds(self) -> float:
        return self.inference.total

    @property
    def total_seconds(self) -> float:
        return self.msa_seconds + self.inference_seconds

    @property
    def msa_fraction(self) -> float:
        """MSA's share of end-to-end time (the paper's Fig 7)."""
        total = self.total_seconds
        return self.msa_seconds / total if total else 0.0


class Af3Pipeline:
    """Simulates complete AF3 runs of input samples on one platform."""

    def __init__(
        self,
        platform: Platform,
        msa_engine: Optional[MsaEngine] = None,
        model_config: Optional[ModelConfig] = None,
        plan: Optional[ExecutionPlan] = None,
        schedule: AttentionSchedule = AttentionSchedule(),
    ) -> None:
        """``schedule`` is the inference attention schedule (resident
        reproduces the paper's Fig. 5 blow-up; a tiled one must be
        planned first — docs/memory_planner.md)."""
        self.platform = platform
        # The plan controls how the *functional* MSA scans execute
        # (real workers); it never changes simulated results.
        self.plan = plan or ExecutionPlan.serial()
        self.msa_engine = msa_engine or MsaEngine(plan=self.plan)
        self.model_config = model_config or ModelConfig.af3()
        self.schedule = schedule
        self._cpu_sim = CpuSimulator(platform.cpu)
        self._inference_sim = schedule.simulator(platform, self.model_config)

    def run(
        self,
        sample: InputSample,
        threads: int = AF3_DEFAULT_THREADS,
        allow_unified_memory: bool = True,
        check_memory: bool = True,
        persistent_model_state: bool = False,
    ) -> PipelineResult:
        """Simulate one end-to-end run.

        Raises :class:`OutOfMemoryError` when the MSA phase exceeds the
        platform's memory and ``check_memory`` is enabled — mirroring
        AF3's lack of static memory validation (the run dies mid-phase
        rather than refusing to start).  Inference may spill into
        unified memory only when ``allow_unified_memory`` is set and
        the schedule allows it (chunked alone does).
        """
        if check_memory:
            # Peak MSA memory is a pure function of chain lengths and
            # molecule types (MSA width == query length), so an
            # OOM-doomed run can be failed before paying for the
            # functional searches.  The predicted value is bit-equal
            # to the post-run measurement, so behaviour is unchanged —
            # only the point of failure moves earlier.
            predicted = self.msa_engine.predicted_peak_memory_bytes(
                sample, threads
            )
            if self.platform.memory.check(predicted) is MemoryOutcome.OOM:
                raise OutOfMemoryError("msa", predicted, self.platform.memory)
        msa_result = self.msa_engine.run(sample)
        peak = msa_result.peak_memory_bytes(threads)
        outcome = self.platform.memory.check(peak)
        if check_memory and outcome is MemoryOutcome.OOM:
            raise OutOfMemoryError("msa", peak, self.platform.memory)

        msa_report = self._cpu_sim.simulate(msa_result.trace, threads)
        if outcome is MemoryOutcome.FITS_WITH_CXL:
            # The spilled fraction of the working set runs at CXL
            # latency; scale the phase time accordingly.
            usable_dram = self.platform.memory.dram_bytes * 0.94
            spilled = max(0.0, peak - usable_dram) / max(peak, 1.0)
            slowdown = 1.0 + spilled * (CXL_SLOWDOWN_FACTOR - 1.0)
            msa_report = dataclasses.replace(
                msa_report, seconds=msa_report.seconds * slowdown
            )
        iostat = self._simulate_storage(sample, msa_result, msa_report)
        inference = self._inference_sim.run(
            sample.assembly.num_tokens,
            threads=threads,
            msa_depth=msa_result.features.max_msa_depth,
            allow_unified_memory=(
                allow_unified_memory and self.schedule.allow_unified_memory
            ),
            persistent_model_state=persistent_model_state,
        )
        return PipelineResult(
            sample_name=sample.name,
            platform_name=self.platform.name,
            threads=threads,
            msa_report=msa_report,
            inference=inference,
            msa_result=msa_result,
            iostat=iostat,
            memory_outcome=outcome,
            peak_memory_bytes=peak,
        )

    def _simulate_storage(
        self,
        sample: InputSample,
        msa_result: MsaPhaseResult,
        msa_report: CpuPhaseReport,
    ) -> IostatReport:
        """Page-cache-aware iostat view of the MSA phase."""
        engine_cfg = self.msa_engine.config
        specs = list(engine_cfg.protein_dbs)
        protein_passes = len(
            [
                c for c in sample.msa_queries()
                if c.molecule_type.value == "protein"
            ]
        )
        passes = [protein_passes] * len(specs)
        if sample.has_rna:
            rna_passes = len(
                [c for c in sample.msa_queries() if c.molecule_type.value == "rna"]
            )
            specs.extend(engine_cfg.rna_dbs)
            passes.extend([rna_passes] * len(engine_cfg.rna_dbs))
        cache = PageCacheModel(
            self.platform.memory.page_cache_bytes(
                msa_result.peak_memory_bytes(msa_report.threads)
            )
        )
        disk_bytes = cache.cold_bytes([s.on_disk_bytes for s in specs], passes)
        io_seconds = sum(
            f.seconds
            for name, f in msa_report.functions.items()
            if name in ("copy_to_iter", "addbuf", "seebuf")
        )
        io_fraction = max(0.05, min(1.0, io_seconds / max(msa_report.seconds, 1e-9)))
        return simulate_iostat(
            self.platform.storage,
            disk_bytes,
            msa_report.seconds,
            io_fraction=io_fraction,
        )


def optimal_thread_count(
    pipeline: Af3Pipeline,
    sample: InputSample,
    candidates: Optional[List[int]] = None,
) -> int:
    """The paper's adaptive-threading recommendation (Observation 3):
    pick the thread count minimising end-to-end time for this input on
    this platform instead of AF3's static default of 8."""
    best_threads, best_time = 1, float("inf")
    for threads in candidates or [1, 2, 4, 6, 8]:
        try:
            result = pipeline.run(sample, threads=threads)
        except OutOfMemoryError:
            continue
        if result.total_seconds < best_time:
            best_threads, best_time = threads, result.total_seconds
    return best_threads
