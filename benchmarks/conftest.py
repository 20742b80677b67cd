"""Benchmark fixtures: a pre-warmed runner so pytest-benchmark measures
the simulation + rendering work, not the one-off functional searches —
plus a median-of-k recorder that persists ``BENCH_*.json`` artifacts
for the regression gate (``benchmarks/check_regression.py``).

Raw seconds are not comparable across machines, so every artifact also
stores a *canary*: the median time of a fixed numpy workload measured
in the same session.  The regression gate compares canary-normalised
ratios, which makes a committed baseline meaningful on any host.  Each
entry also carries its own canary, timed right before and right after
the entry, so a host whose speed drifts during the session (a shared
machine) normalises every entry by the speed it actually ran at.

A sample calls its function back to back until it has run for at least
:data:`MIN_SAMPLE_SECONDS` and records the mean time per call, so a
1 ms kernel and the 3 ms canary are each timed over a tenth of a second
rather than one call, which a scheduler hiccup can double.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List

# One BLAS thread, set before numpy loads.  The canary's small matmuls
# otherwise hand work to a second BLAS thread, and on a shared 2-core
# host whose other core is busy a call then took 50-100 ms instead of
# 2.5 ms for the first second of a session.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.core.runner import BenchmarkRunner  # noqa: E402
from repro.msa.engine import MsaEngine, MsaEngineConfig  # noqa: E402
from repro.sequences.builtin import builtin_samples  # noqa: E402

BENCH_MSA_CONFIG = MsaEngineConfig(
    num_background=24, homologs_per_query=4, seed=7
)

#: Where `record()`-ed medians are written at session end.
BENCH_OUT_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session")
def warm_runner() -> BenchmarkRunner:
    runner = BenchmarkRunner(msa_config=BENCH_MSA_CONFIG)
    for sample in builtin_samples().values():
        runner.msa_engine.run(sample)  # warm the functional cache
    return runner


@pytest.fixture(scope="session")
def msa_engine(warm_runner) -> MsaEngine:
    return warm_runner.msa_engine


# ---------------------------------------------------------------------------
# Median-of-k regression recorder
# ---------------------------------------------------------------------------


def _canary_workload() -> None:
    """Fixed numpy workload used to normalise away machine speed."""
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(160, 160))
    b = rng.normal(size=(160, 160))
    acc = np.zeros_like(a)
    for _ in range(6):
        acc += a @ b
        b = np.tanh(acc)


#: Canary samples timed right before and again right after each entry.
ENTRY_CANARY_SAMPLES = 3
#: Shortest wall time of one sample: a sample repeats its function
#: until this much time has passed and reports seconds per call.
MIN_SAMPLE_SECONDS = 0.1


@dataclasses.dataclass
class BenchEntry:
    median_seconds: float
    repeats: int
    #: Median canary time over the samples taken around this entry.
    canary_seconds: float


class BenchRecorder:
    """Collects median-of-k wall timings, grouped per artifact file."""

    def __init__(self) -> None:
        self.groups: Dict[str, Dict[str, BenchEntry]] = {}
        self._canary: float = 0.0

    def canary_seconds(self) -> float:
        if not self._canary:
            self._canary = statistics.median(
                self._samples(5, _canary_workload)
            )
        return self._canary

    @staticmethod
    def _samples(repeats: int, fn: Callable[[], object]) -> List[float]:
        """``repeats`` samples of seconds per call of ``fn``, each over
        at least :data:`MIN_SAMPLE_SECONDS` of back-to-back calls."""
        times = []
        for _ in range(max(1, repeats)):
            calls = 0
            t0 = time.perf_counter()
            while True:
                fn()
                calls += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= MIN_SAMPLE_SECONDS:
                    break
            times.append(elapsed / calls)
        return times

    def record(
        self, group: str, name: str, fn: Callable[[], object],
        repeats: int = 5,
    ) -> float:
        """Time ``fn`` median-of-``repeats`` samples (each at least
        :data:`MIN_SAMPLE_SECONDS` long) and store it under
        ``BENCH_<group>.json`` / ``name``, with the canary timed right
        around it.  Returns the median."""
        before = self._samples(ENTRY_CANARY_SAMPLES, _canary_workload)
        median = statistics.median(self._samples(repeats, fn))
        after = self._samples(ENTRY_CANARY_SAMPLES, _canary_workload)
        self.groups.setdefault(group, {})[name] = BenchEntry(
            median_seconds=median,
            repeats=repeats,
            canary_seconds=statistics.median(before + after),
        )
        return median

    def flush(self, out_dir: Path) -> None:
        if not self.groups:
            return
        out_dir.mkdir(parents=True, exist_ok=True)
        for group, entries in sorted(self.groups.items()):
            payload = {
                "canary_seconds": self.canary_seconds(),
                "host_cores": os.cpu_count() or 1,
                "entries": {
                    name: dataclasses.asdict(entry)
                    for name, entry in sorted(entries.items())
                },
            }
            path = out_dir / f"BENCH_{group}.json"
            path.write_text(json.dumps(payload, indent=2) + "\n")


_RECORDER = BenchRecorder()


@pytest.fixture(scope="session")
def bench_recorder() -> BenchRecorder:
    return _RECORDER


def pytest_sessionfinish(session, exitstatus):
    _RECORDER.flush(BENCH_OUT_DIR)
