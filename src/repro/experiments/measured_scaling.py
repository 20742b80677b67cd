"""Measured (wall-clock) counterparts to Fig. 4 and Fig. 6.

Every other driver in this package renders *simulated* platform
behaviour.  This one times the repo's real hot paths — the sharded
jackhmmer database scan and the chunked Pairformer block — under
increasing :class:`~repro.parallel.plan.ExecutionPlan` worker counts
on the machine actually running the code, so the simulator's scaling
story can be checked against measured hardware (``repro scale
--measured`` writes these curves next to the simulated ones).

Caveats the rendering spells out: measured curves depend on the host's
core count (a 1-core CI container measures scheduling overhead, not
speedup), and the scan sizes here are the CI-sized synthetic
databases, not the paper's 2.9 TiB corpus.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from ..core.report import render_series
from ..parallel.measure import (
    DEFAULT_WORKERS,
    measure_kernel_speedup,
    measure_model_scaling,
    measure_scan_scaling,
    speedup_curve,
)

#: Series labels (also the keys artifact files are grepped for).
SCAN_SERIES = "msa-scan/batched"
MODEL_SERIES = "pairformer/measured"


def collect(
    worker_counts: Sequence[int] = DEFAULT_WORKERS,
    seed: int = 0,
    quick: Optional[bool] = None,
) -> Dict[str, Dict[int, float]]:
    """Measured seconds per worker count for both hot paths."""
    if quick is None:
        quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    scan = measure_scan_scaling(
        worker_counts,
        seed=seed,
        num_background=24 if quick else 96,
        homologs_per_query=4 if quick else 8,
        repeats=1 if quick else 2,
    )
    model = measure_model_scaling(
        worker_counts,
        seed=seed,
        num_tokens=48 if quick else 96,
        repeats=1 if quick else 2,
    )
    return {
        SCAN_SERIES: dict(scan),
        MODEL_SERIES: dict(model),
    }


def kernel_speedup(seed: int = 0, quick: Optional[bool] = None) -> float:
    """Measured batched-over-scalar speedup of a serial shard scan.

    Uses the homolog-rich fixture (most targets reach the banded
    kernels, as in the paper's Table IV cycle distribution); quick mode
    shrinks the database but keeps that shape.
    """
    if quick is None:
        quick = bool(os.environ.get("REPRO_BENCH_QUICK"))
    times = measure_kernel_speedup(
        seed=seed,
        num_background=30 if quick else 60,
        homologs_per_query=30 if quick else 60,
        repeats=1 if quick else 3,
    )
    return times["scalar"] / times["batched"]


def render(
    series: Optional[Dict[str, Dict[int, float]]] = None,
    worker_counts: Sequence[int] = DEFAULT_WORKERS,
    seed: int = 0,
) -> str:
    """Fig. 4/6-style grids of measured times plus speedups."""
    series = series or collect(worker_counts, seed=seed)
    cores = os.cpu_count() or 1
    parts = [
        render_series(
            series,
            title="Measured scaling: real hot paths vs ExecutionPlan "
                  "workers (Fig. 4/6 counterparts)",
            x_label="workers",
        ),
        render_series(
            {name: dict(speedup_curve(pts)) for name, pts in series.items()},
            title="Measured speedup over 1 worker",
            x_label="workers",
            unit="x",
        ),
        f"kernel speedup (batched over scalar, serial scan): "
        f"{kernel_speedup(seed=seed):.2f}x",
        f"host cores: {cores}"
        + (" (speedups are bounded by the core count; on a 1-core host"
           " the worker curves measure scheduling overhead — the kernel"
           " speedup above is algorithmic and core-independent)"
           if cores < 4 else ""),
    ]
    return "\n\n".join(parts)


def main() -> None:
    print(render())


if __name__ == "__main__":
    main()
