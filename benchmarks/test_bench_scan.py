"""Measured parallel-scan benchmarks: timing, equivalence, speedup.

This is the acceptance harness for the parallel execution engine:

* records serial and parallel sharded-scan medians into
  ``benchmarks/out/BENCH_scan.json`` for the regression gate, plus one
  chain's serial search over three databases in one cascade;
* re-asserts byte-identity between every timed configuration (a
  benchmark that silently measured a different computation would be
  worse than none);
* on hosts with >= 4 cores, requires the 4-worker process scan to hit
  the issue's >= 2.5x speedup bar over serial.
"""

from __future__ import annotations

import os

import pytest

from repro.msa.database import PROTEIN_SEARCH_DBS, build_database
from repro.msa.jackhmmer import (
    JackhmmerSearch,
    SearchConfig,
    search_databases,
)
from repro.parallel import ExecutionPlan
from repro.sequences.generator import random_sequence

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 1 if QUICK else 3
#: Big enough that per-shard work dominates fork/IPC overhead on a
#: CI-class 4-core host; still a few seconds per serial pass.
NUM_BACKGROUND = 64 if QUICK else 192


@pytest.fixture(scope="module")
def scan_case():
    query = random_sequence(242, seed=1)
    database = build_database(
        PROTEIN_SEARCH_DBS[0],
        [query],
        num_background=NUM_BACKGROUND,
        homologs_per_query=8,
        low_complexity_fraction=0.08,
        seed=1,
    )
    database.encoded_records   # encode once, outside every timed run
    return query, database


def _search(query, database, plan):
    return JackhmmerSearch(
        database, SearchConfig(iterations=1), seed=1, plan=plan
    ).search("bench_query", query)


def test_record_scan_timings(bench_recorder, scan_case):
    query, database = scan_case
    plans = {
        "scan_serial": ExecutionPlan.serial(),
        "scan_workers2": ExecutionPlan(workers=2, backend="process"),
        "scan_workers4": ExecutionPlan(workers=4, backend="process"),
    }
    results = {}
    for name, plan in plans.items():
        box = {}

        def run(plan=plan, box=box):
            box["r"] = _search(query, database, plan)

        bench_recorder.record("scan", name, run, repeats=REPEATS)
        results[name] = box["r"]

    serial = results["scan_serial"]
    for name, result in results.items():
        assert result.hits == serial.hits, name
        assert result.stats == serial.stats, name


@pytest.fixture(scope="module")
def chain_case():
    """One protein chain and its three databases at ``repro run``'s
    search sizing, each encoded once outside every timed run."""
    query = random_sequence(242, seed=2)
    searches = []
    for k, spec in enumerate(PROTEIN_SEARCH_DBS):
        database = build_database(
            spec, [query], num_background=40, homologs_per_query=6,
            low_complexity_fraction=0.08, seed=2 + k,
        )
        database.encoded_records
        searches.append(
            JackhmmerSearch(database, SearchConfig(iterations=1), seed=2)
        )
    return query, searches


def test_record_chain_scan(bench_recorder, chain_case):
    """One chain against uniref90, mgnify and small_bfd: one profile,
    one calibration and one serial cascade over all 48 shards."""
    query, searches = chain_case
    box = {}

    def run():
        box["r"] = search_databases(searches, "bench_chain", query)

    bench_recorder.record("scan", "scan_chain_3db", run, repeats=REPEATS)
    for search, merged in zip(searches, box["r"]):
        alone = search.search("bench_chain", query)
        assert merged.hits == alone.hits
        assert merged.stats == alone.stats
    assert all(result.hits for result in box["r"])


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="speedup needs >= 4 physical cores; this host has fewer",
)
def test_scan_speedup_at_4_workers(bench_recorder, scan_case):
    query, database = scan_case
    entries = bench_recorder.groups.get("scan", {})
    if "scan_serial" not in entries or "scan_workers4" not in entries:
        test_record_scan_timings(bench_recorder, scan_case)
        entries = bench_recorder.groups["scan"]
    serial = entries["scan_serial"].median_seconds
    parallel = entries["scan_workers4"].median_seconds
    speedup = serial / parallel
    assert speedup >= 2.5, (
        f"4-worker sharded scan only {speedup:.2f}x over serial "
        f"({serial:.3f}s -> {parallel:.3f}s)"
    )
