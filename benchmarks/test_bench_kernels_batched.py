"""Batched-vs-scalar kernel benchmarks: timing, identity, speedup.

Acceptance harness for the batched kernel cascade
(:mod:`repro.msa.kernels`):

* times one serial database scan — the same list of shard payloads —
  through the scalar reference loop
  (:func:`~repro.msa.jackhmmer.reference_scan_protein_shard`), the
  batched cascade one shard at a time
  (:func:`~repro.msa.kernels.scan_shard`) and one batched cascade over
  every shard (:func:`~repro.msa.kernels.scan_shard_group`, the
  production grouping), and records the three medians plus per-kernel
  batched microbenchmarks (a 64-target bucket, a single target, six
  mixed-length Forward lanes and one chain's hits through the aligner)
  into
  ``benchmarks/out/BENCH_kernels_batched.json`` for the regression
  gate.  Only the shard scan is timed: the Gumbel calibration and the
  trace emission a full search adds are outside both entries;
* re-asserts ``==`` between the three scans' full ``ShardScanResult``
  lists;
* requires the batched scan to beat the scalar scan by >= 3x median.
  Unlike the worker-scaling bar this holds on ANY host, 1-core CI
  included — the speedup is algorithmic (one interpreter sweep per
  profile row for the whole batch), not parallelism.

The fixture is homolog-rich so most targets survive the MSV gate into
the banded Viterbi/Forward kernels — the regime the paper's Table IV
describes (``calc_band_9``/``calc_band_10`` dominate MSA CPU cycles)
and where batching pays off most.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.msa.aligner import assemble_msa
from repro.msa.database import PROTEIN_SEARCH_DBS, build_database
from repro.msa.jackhmmer import Hit, reference_scan_protein_shard
from repro.msa.kernels import (
    batch_targets,
    calc_band_9_batch,
    calc_band_10_batch,
    emission_gather,
    msv_filter_batch,
    scan_shard,
    scan_shard_group,
)
from repro.msa.profile_hmm import ProfileHMM, encode_sequence
from repro.parallel.measure import scan_payloads
from repro.sequences.generator import mutate_sequence, random_sequence

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 1 if QUICK else 3
#: Homolog-rich: most of the database reaches the banded kernels.
NUM_BACKGROUND = 30 if QUICK else 60
HOMOLOGS = 30 if QUICK else 60
#: Kernel calls per timed sample of the single-target entries (one
#: call takes only a few ms, too short to time alone on a noisy host).
SINGLE_CALLS = 10


@pytest.fixture(scope="module")
def kernel_case():
    query = random_sequence(242, seed=1)  # 2PV7 chain length
    database = build_database(
        PROTEIN_SEARCH_DBS[0],
        [query],
        num_background=NUM_BACKGROUND,
        homologs_per_query=HOMOLOGS,
        low_complexity_fraction=0.08,
        seed=1,
    )
    return query, database


def test_record_kernel_scan_timings(bench_recorder, kernel_case):
    query, database = kernel_case
    payloads = scan_payloads(database, query, seed=1, scan_shards=2)
    results = {}
    for name, scan in (("scalar", reference_scan_protein_shard),
                       ("batched", scan_shard)):

        def run(name=name, scan=scan):
            results[name] = [scan(payload) for payload in payloads]

        bench_recorder.record(
            "kernels_batched", f"scan_{name}", run, repeats=REPEATS
        )

    def run_grouped():
        results["grouped"] = scan_shard_group(payloads)

    bench_recorder.record(
        "kernels_batched", "scan_grouped", run_grouped, repeats=REPEATS
    )

    assert results["batched"] == results["scalar"]
    assert results["grouped"] == results["scalar"]


def test_record_batched_kernel_micro(bench_recorder, kernel_case):
    """Per-kernel medians on one realistic 64-target bucket."""
    query, _ = kernel_case
    from repro.sequences.alphabets import MoleculeType

    mtype = MoleculeType.PROTEIN
    profile = ProfileHMM.from_query(query, mtype)
    encoded = [
        encode_sequence(mutate_sequence(query, mtype, 0.7, seed=s), mtype)
        for s in range(64)
    ]
    (batch,) = batch_targets(encoded)

    def gather_rows():
        # The score table, the column index and every row's full
        # (B, P) gather over the bucket.
        table, index = emission_gather(profile, batch)
        row = np.empty(index.shape)
        for i in range(profile.length):
            np.take(table[i], index, out=row, mode="clip")

    bench_recorder.record(
        "kernels_batched", "emission_row_gather", gather_rows,
        repeats=REPEATS,
    )
    bench_recorder.record(
        "kernels_batched", "msv_filter_batch",
        lambda: msv_filter_batch(profile, encoded), repeats=REPEATS,
    )
    bench_recorder.record(
        "kernels_batched", "calc_band_9_batch",
        lambda: calc_band_9_batch(profile, batch, band=64),
        repeats=REPEATS,
    )
    bench_recorder.record(
        "kernels_batched", "calc_band_10_batch",
        lambda: calc_band_10_batch(profile, batch, band=64),
        repeats=REPEATS,
    )


def test_record_batched_kernel_single(bench_recorder, kernel_case):
    """Viterbi/Forward medians on one target alone in the 256 bucket.

    A lone survivor is the edge of the batched kernels' range: none of
    the 42 Forward calls in 10 serial ``target-run`` ops had one lane.
    Its cost is per-row interpreter overhead, not arithmetic, so these
    entries let the regression gate catch that overhead growing.
    """
    query, _ = kernel_case
    from repro.sequences.alphabets import MoleculeType

    mtype = MoleculeType.PROTEIN
    profile = ProfileHMM.from_query(query, mtype)
    target = encode_sequence(mutate_sequence(query, mtype, 0.7, seed=0),
                             mtype)
    (batch,) = batch_targets([target])
    assert batch.padded_len == 256
    for name, kernel in (("calc_band_9_batch_single", calc_band_9_batch),
                         ("calc_band_10_batch_single", calc_band_10_batch)):

        def run(kernel=kernel):
            for _ in range(SINGLE_CALLS):
                kernel(profile, batch, band=64)

        bench_recorder.record("kernels_batched", name, run, repeats=REPEATS)


def test_record_batched_forward_mixed(bench_recorder, kernel_case):
    """Forward median on six survivors of mixed length in one bucket.

    The common Forward call of a ``repro run`` search: 37 of the 42
    calls in 10 serial ``target-run`` ops had 6 lanes, the other 5.  Lanes of different
    lengths have different band lengths on most rows, so this entry
    times the per-block grouping of Forward's row totals.
    """
    query, _ = kernel_case
    from repro.sequences.alphabets import MoleculeType

    mtype = MoleculeType.PROTEIN
    profile = ProfileHMM.from_query(query, mtype)
    lanes = [
        encode_sequence(
            mutate_sequence(query, mtype, 0.7, seed=seed)[:length], mtype
        )
        for seed, length in enumerate((136, 160, 184, 208, 232, 256))
    ]
    (batch,) = batch_targets(lanes)
    assert batch.padded_len == 256 and len(set(batch.seq_lens)) == 6
    bench_recorder.record(
        "kernels_batched", "calc_band_10_batch_mixed",
        lambda: calc_band_10_batch(profile, batch, band=64),
        repeats=REPEATS,
    )


def test_record_assemble_msa_chain(bench_recorder, kernel_case):
    """MSA assembly of one chain: the query and its 17 accepted hits.

    A ``repro run`` search accepts 17-18 hits per chain, each within a
    few residues of the query's length (14 chains in 10 serial
    ``target-run`` ops at seed 0, 241 hits), and ``assemble_msa``
    aligns them all in one :func:`~repro.msa.aligner.align_many` call.
    """
    query, _ = kernel_case
    from repro.sequences.alphabets import MoleculeType

    mtype = MoleculeType.PROTEIN
    hits = [
        Hit(f"h{seed}", mutate_sequence(query, mtype, 0.7, seed=seed),
            50.0, 52.0, 1e-6)
        for seed in range(17)
    ]
    bench_recorder.record(
        "kernels_batched", "assemble_msa_chain",
        lambda: assemble_msa("q", query, mtype, hits), repeats=REPEATS,
    )


def test_batched_scan_speedup_over_scalar(bench_recorder, kernel_case):
    entries = bench_recorder.groups.get("kernels_batched", {})
    if "scan_scalar" not in entries or "scan_batched" not in entries:
        test_record_kernel_scan_timings(bench_recorder, kernel_case)
        entries = bench_recorder.groups["kernels_batched"]
    scalar = entries["scan_scalar"].median_seconds
    batched = entries["scan_batched"].median_seconds
    speedup = scalar / batched
    assert speedup >= 3.0, (
        f"batched shard scan only {speedup:.2f}x over scalar "
        f"({scalar:.3f}s -> {batched:.3f}s)"
    )
