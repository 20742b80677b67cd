"""Measured wall-clock scaling of the real hot paths.

Counterparts to the *simulated* thread-scaling artifacts: Fig. 4 (MSA
time vs threads) and Fig. 6 (inference time vs threads) are reproduced
analytically by :mod:`repro.experiments`; the functions here time the
repo's own numpy implementations under increasing
:class:`~repro.parallel.plan.ExecutionPlan` worker counts on the local
machine, so simulated and measured curves can be read side by side
(``repro scale --measured``).

Every measurement double-checks the determinism contract inline: the
parallel run's functional output must equal the serial run's, or the
measurement raises — a timing harness that quietly times a *different*
computation would be worse than none.

MSA imports stay function-local so :mod:`repro.parallel` remains
importable from inside :mod:`repro.msa` without a cycle.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Optional, Sequence

from .plan import ExecutionPlan

#: Worker counts of the default measured curves (the paper sweeps 1-8
#: threads; 7 exercises the uneven shards-per-worker case).
DEFAULT_WORKERS = (1, 2, 4, 7)


def _best_of(repeats: int, fn: Callable[[], object]) -> float:
    """Best-of-N wall time (min is the standard noise-robust choice
    for short single-process benchmarks)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _scan_fixture(
    seed: int,
    num_background: int,
    homologs_per_query: int,
    query_length: int,
):
    """One synthetic protein database + query shared by the scan
    measurements (2PV7-like query length by default)."""
    from ..msa.database import PROTEIN_SEARCH_DBS, build_database
    from ..sequences.generator import random_sequence

    query = random_sequence(query_length, seed=seed + 1)
    database = build_database(
        PROTEIN_SEARCH_DBS[0],
        [query],
        num_background=num_background,
        homologs_per_query=homologs_per_query,
        low_complexity_fraction=0.08,
        seed=seed,
    )
    return database, query


def measure_scan_scaling(
    worker_counts: Sequence[int] = DEFAULT_WORKERS,
    *,
    seed: int = 0,
    num_background: int = 96,
    homologs_per_query: int = 8,
    query_length: int = 242,
    repeats: int = 1,
    backend: str = "process",
) -> "OrderedDict[int, float]":
    """Wall seconds of the sharded jackhmmer scan per worker count.

    Builds one synthetic protein database and encodes it once, before
    any timed run, then runs the identical search under plans with
    increasing workers.  Raises if any parallel run's hits/stats
    deviate from the 1-worker run.
    """
    from ..msa.jackhmmer import JackhmmerSearch

    database, query = _scan_fixture(
        seed, num_background, homologs_per_query, query_length
    )
    database.encoded_records   # encode once, outside every timed run
    baseline = None
    series: "OrderedDict[int, float]" = OrderedDict()
    for workers in worker_counts:
        search = JackhmmerSearch(
            database,
            seed=seed,
            plan=ExecutionPlan(workers=workers, backend=backend),
        )
        result_box = {}

        def run():
            result_box["r"] = search.search("scaling_query", query)

        series[workers] = _best_of(repeats, run)
        result = result_box["r"]
        if baseline is None:
            baseline = result
        elif (result.hits != baseline.hits
              or result.stats != baseline.stats):
            raise AssertionError(
                f"parallel scan at {workers} workers diverged from serial"
            )
    return series


def measure_kernel_speedup(
    *,
    seed: int = 0,
    num_background: int = 60,
    homologs_per_query: int = 60,
    query_length: int = 242,
    repeats: int = 3,
    scan_shards: int = 2,
) -> "OrderedDict[str, float]":
    """Wall seconds of one serial database scan, scalar vs batched.

    Times the identical list of shard payloads through the scalar
    reference loop (``"scalar"``) and through the production batched
    cascade (``"batched"``).  Unlike the worker curves this speedup is
    algorithmic, not core-bound, so it shows up even on a 1-core host.
    Raises unless the two produce equal :class:`ShardScanResult`
    tuples — the ``==`` oracle contract checked at measurement time.

    The default fixture is homolog-rich so a large fraction of targets
    survives into the banded kernels — the cycle distribution the
    paper's Table IV reports (``calc_band_9``/``calc_band_10`` are the
    MSA hot spots), and the regime where batching pays off most.
    """
    from ..msa.jackhmmer import reference_scan_protein_shard
    from ..msa.kernels import scan_shard

    database, query = _scan_fixture(
        seed, num_background, homologs_per_query, query_length
    )
    payloads = scan_payloads(
        database, query, seed=seed, scan_shards=scan_shards
    )
    results = {}
    series: "OrderedDict[str, float]" = OrderedDict()
    for name, scan in (("scalar", reference_scan_protein_shard),
                       ("batched", scan_shard)):

        def run(scan=scan, name=name):
            results[name] = [scan(payload) for payload in payloads]

        series[name] = _best_of(repeats, run)
    if results["scalar"] != results["batched"]:
        raise AssertionError(
            "batched kernel results diverged from scalar"
        )
    return series


def scan_payloads(database, query: str, *, seed: int,
                  scan_shards: int) -> list:
    """The shard payloads of the first scan of a jackhmmer search for
    ``query`` over ``database``: the input both kernel timings share."""
    from ..msa.evalue import calibrate
    from ..msa.jackhmmer import SearchConfig, shard_payloads
    from ..msa.profile_hmm import ProfileHMM

    profile = ProfileHMM.from_query(
        query, database.spec.molecule_type, name="kernel_query"
    )
    gumbel = calibrate(profile, seed=seed)
    return shard_payloads(database, profile, gumbel,
                          SearchConfig().gates, scan_shards)


def measure_model_scaling(
    worker_counts: Sequence[int] = DEFAULT_WORKERS,
    *,
    seed: int = 0,
    num_tokens: int = 96,
    repeats: int = 1,
) -> "OrderedDict[int, float]":
    """Wall seconds of one Pairformer block per worker count.

    Times the chunked/threaded triangle + attention execution on an
    ``(N, N)`` pair representation; raises if any plan's outputs are
    not bit-equal to the serial block.
    """
    import numpy as np

    from ..model.config import ModelConfig
    from ..model.pairformer import PairformerBlock

    config = ModelConfig.tiny()
    rng = np.random.default_rng(seed)
    block = PairformerBlock(rng, config)
    single = rng.normal(size=(num_tokens, config.c_single)).astype(np.float32)
    pair = rng.normal(
        size=(num_tokens, num_tokens, config.c_pair)
    ).astype(np.float32)

    baseline = None
    series: "OrderedDict[int, float]" = OrderedDict()
    for workers in worker_counts:
        plan = ExecutionPlan(workers=workers, backend="thread")
        result_box = {}

        def run():
            result_box["r"] = block(single, pair, None, plan)

        series[workers] = _best_of(repeats, run)
        out_single, out_pair = result_box["r"]
        if baseline is None:
            baseline = (out_single, out_pair)
        elif not (
            (out_single == baseline[0]).all()
            and (out_pair == baseline[1]).all()
        ):
            raise AssertionError(
                f"chunked model at {workers} workers is not bit-equal"
            )
    return series


def speedup_curve(
    series: Dict[int, float], baseline_workers: Optional[int] = None
) -> "OrderedDict[int, float]":
    """Speedup over the (default: smallest) worker count's time."""
    if not series:
        return OrderedDict()
    base_key = (
        baseline_workers if baseline_workers is not None
        else min(series)
    )
    base = series[base_key]
    return OrderedDict(
        (workers, base / seconds if seconds > 0 else float("inf"))
        for workers, seconds in series.items()
    )
