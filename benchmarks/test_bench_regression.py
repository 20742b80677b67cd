"""Median-of-k timings of the DP hot kernels for the regression gate.

Unlike the pytest-benchmark microbenchmarks in
``test_bench_kernels.py`` (interactive tables), these write
``benchmarks/out/BENCH_kernels.json`` via the session recorder so
``check_regression.py`` can compare canary-normalised ratios against
the committed baseline in ``benchmarks/baselines/``.
"""

from __future__ import annotations

import os

import pytest

from repro.msa.aligner import global_align
from repro.msa.dp import calc_band_9, calc_band_10, msv_filter
from repro.msa.profile_hmm import ProfileHMM, encode_sequence
from repro.sequences.alphabets import MoleculeType
from repro.sequences.generator import mutate_sequence, random_sequence

REPEATS = 3 if os.environ.get("REPRO_BENCH_QUICK") else 7


@pytest.fixture(scope="module")
def dp_case():
    query = random_sequence(242, seed=1)  # 2PV7 chain length
    target = mutate_sequence(query, MoleculeType.PROTEIN, 0.7, seed=2)
    profile = ProfileHMM.from_query(query, MoleculeType.PROTEIN)
    return profile, encode_sequence(target, MoleculeType.PROTEIN)


def test_record_msv_filter(bench_recorder, dp_case):
    profile, encoded = dp_case
    bench_recorder.record(
        "kernels", "msv_filter",
        lambda: msv_filter(profile, encoded), repeats=REPEATS,
    )
    assert bench_recorder.groups["kernels"]["msv_filter"].median_seconds > 0


def test_record_calc_band_9(bench_recorder, dp_case):
    profile, encoded = dp_case
    bench_recorder.record(
        "kernels", "calc_band_9",
        lambda: calc_band_9(profile, encoded, 64), repeats=REPEATS,
    )
    assert bench_recorder.groups["kernels"]["calc_band_9"].median_seconds > 0


def test_record_calc_band_10(bench_recorder, dp_case):
    profile, encoded = dp_case
    bench_recorder.record(
        "kernels", "calc_band_10",
        lambda: calc_band_10(profile, encoded, 64), repeats=REPEATS,
    )
    assert bench_recorder.groups["kernels"]["calc_band_10"].median_seconds > 0


def test_record_global_align(bench_recorder):
    # The pairwise case of test_bench_kernels.py::test_global_alignment.
    query = random_sequence(242, seed=3)
    target = mutate_sequence(query, MoleculeType.PROTEIN, 0.7, seed=4)
    bench_recorder.record(
        "kernels", "global_align",
        lambda: global_align(query, target), repeats=REPEATS,
    )
    assert bench_recorder.groups["kernels"]["global_align"].median_seconds > 0
