"""Benchmark runner: sweeps samples x platforms x thread counts.

This is AFSysBench's orchestration layer — the equivalent of the
paper's shell harness that executes every input through the MSA and
inference stages at each thread count and collects the measurements.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..hardware.memory import OutOfMemoryError
from ..hardware.platform import DESKTOP, DESKTOP_128G, Platform, SERVER
from ..model.config import ModelConfig
from ..msa.engine import MsaEngine, MsaEngineConfig
from ..sequences.builtin import builtin_samples
from ..sequences.sample import InputSample
from .pipeline import Af3Pipeline, PipelineResult
from .results import ResultSet, RunRecord

GIB = 1024 ** 3

#: The paper's thread-scaling sweep (Section III-D).
DEFAULT_THREAD_SWEEP: Tuple[int, ...] = (1, 2, 4, 6, 8)

#: Deterministic run-to-run measurement noise, as a fractional sigma.
#: The paper averages 5 runs with CV <= 5% (MSA) / 1% (inference); the
#: simulator is exact, so repeated-run studies inject this noise
#: explicitly (see run_repeated).
MEASUREMENT_NOISE = 0.02


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """What to run."""

    thread_counts: Tuple[int, ...] = DEFAULT_THREAD_SWEEP
    allow_unified_memory: bool = True


class BenchmarkRunner:
    """Runs the sweep and caches per-(platform) pipelines.

    The functional MSA work is shared across platforms and thread
    counts through a single :class:`MsaEngine`, so a full suite sweep
    costs one functional search pass per sample.
    """

    def __init__(
        self,
        platforms: Optional[Sequence[Platform]] = None,
        samples: Optional[Dict[str, InputSample]] = None,
        msa_config: Optional[MsaEngineConfig] = None,
        model_config: Optional[ModelConfig] = None,
        sweep: Optional[SweepConfig] = None,
    ) -> None:
        self.platforms = list(platforms or [SERVER, DESKTOP])
        self.samples = samples or builtin_samples()
        self.sweep = sweep or SweepConfig()
        self.msa_engine = MsaEngine(msa_config)
        self.model_config = model_config or ModelConfig.af3()
        self._pipelines: Dict[str, Af3Pipeline] = {}

    def pipeline_for(self, platform: Platform) -> Af3Pipeline:
        if platform.name not in self._pipelines:
            self._pipelines[platform.name] = Af3Pipeline(
                platform,
                msa_engine=self.msa_engine,
                model_config=self.model_config,
            )
        return self._pipelines[platform.name]

    def run_one(
        self, sample: InputSample, platform: Platform, threads: int
    ) -> RunRecord:
        """One (sample, platform, threads) cell, with the paper's
        Desktop-upgrade fallback on OOM."""
        pipeline = self.pipeline_for(platform)
        try:
            result = pipeline.run(
                sample,
                threads=threads,
                allow_unified_memory=self.sweep.allow_unified_memory,
            )
        except OutOfMemoryError:
            # Swap the Desktop for its 128 GiB upgrade when a sample's
            # MSA would OOM (exactly what the paper did for 6QNR).
            if platform.name == DESKTOP.name:
                result = self.pipeline_for(DESKTOP_128G).run(
                    sample,
                    threads=threads,
                    allow_unified_memory=self.sweep.allow_unified_memory,
                )
            else:
                return RunRecord(
                    sample=sample.name,
                    platform=platform.name,
                    threads=threads,
                    msa_seconds=0.0,
                    inference_seconds=0.0,
                    msa_fraction=0.0,
                    oom=True,
                )
        return _to_record(result, platform_name=platform.name)

    def run_repeated(
        self,
        sample: InputSample,
        platform: Platform,
        threads: int,
        repeats: int = 5,
        noise_seed: int = 0,
    ) -> List[RunRecord]:
        """Emulate the paper's repeated-measurement methodology.

        The simulator is deterministic, so run-to-run variation is
        injected as seeded multiplicative noise at the configured
        sigma; the MSA phase gets the full sigma and inference a fifth
        of it, mirroring the paper's CV bounds (MSA <= 5%, inference
        <= 1%).
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        import numpy as _np

        base = self.run_one(sample, platform, threads)
        rng = _np.random.default_rng(
            noise_seed + threads * 1009 + len(sample.name)
        )
        sigma = MEASUREMENT_NOISE
        records: List[RunRecord] = []
        for _ in range(repeats):
            msa_noise = float(rng.normal(1.0, sigma))
            inf_noise = float(rng.normal(1.0, sigma / 5.0))
            records.append(dataclasses.replace(
                base,
                msa_seconds=base.msa_seconds * max(0.5, msa_noise),
                inference_seconds=base.inference_seconds * max(0.5, inf_noise),
            ))
        return records

    def run_sweep(
        self,
        sample_names: Optional[Iterable[str]] = None,
        thread_counts: Optional[Iterable[int]] = None,
    ) -> ResultSet:
        """The full AFSysBench sweep."""
        results = ResultSet()
        names = list(sample_names or self.samples.keys())
        threads_list = list(thread_counts or self.sweep.thread_counts)
        for name in names:
            sample = self.samples[name]
            for platform in self.platforms:
                for threads in threads_list:
                    results.add(self.run_one(sample, platform, threads))
        return results


def _to_record(result: PipelineResult, platform_name: str) -> RunRecord:
    return RunRecord(
        sample=result.sample_name,
        platform=platform_name,
        threads=result.threads,
        msa_seconds=result.msa_seconds,
        inference_seconds=result.inference_seconds,
        msa_fraction=result.msa_fraction,
        init_seconds=result.inference.initialization,
        xla_seconds=result.inference.xla_compile,
        compute_seconds=result.inference.gpu_compute,
        finalize_seconds=result.inference.finalization,
        peak_memory_gib=result.peak_memory_bytes / GIB,
        disk_utilization=result.iostat.utilization,
    )
