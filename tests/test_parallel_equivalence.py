"""Differential tests for :mod:`repro.parallel`.

The engine's contract is *byte-identity*: any ``ExecutionPlan`` —
serial, threaded, or forked processes, any worker count — must produce
exactly the results of the serial code path, because shard boundaries
depend only on the record count (never the worker count), per-shard
work is pure, and the reducer merges in shard-index order.  These
tests pin that contract for the MSA scan (hits, e-values, stats,
assembled MSA features) and the chunked model ops (bit-equal arrays,
identical op accounting), plus the shard/resume arithmetic both the
checkpoint-resume path and the parallel scanner share.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.config import ModelConfig
from repro.model.ops import OpCounter
from repro.model.pairformer import PairformerBlock
from repro.model.triangle import TriangleAttention, TriangleMultiplication
from repro.msa.database import (
    NT_RNA,
    PROTEIN_SEARCH_DBS,
    SCAN_SHARDS,
    build_database,
)
from repro.msa.engine import MsaEngine, MsaEngineConfig
from repro.msa.jackhmmer import JackhmmerSearch, SearchConfig
from repro.msa.nhmmer import NhmmerSearch
from repro.parallel import (
    ExecutionPlan,
    merge_sharded,
    records_remaining,
    run_sharded,
    scan_timeline,
    shard_bounds,
)

# ---------------------------------------------------------------------------
# ExecutionPlan / shard arithmetic
# ---------------------------------------------------------------------------


class TestExecutionPlan:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ExecutionPlan(workers=0)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            ExecutionPlan(chunk=0)

    def test_rejects_bad_backend(self):
        with pytest.raises(ValueError):
            ExecutionPlan(backend="gpu")

    def test_serial_is_serial(self):
        assert ExecutionPlan.serial().is_serial
        assert not ExecutionPlan(workers=2).is_serial
        assert not ExecutionPlan(chunk=3).is_serial

    @pytest.mark.parametrize("n,plan", [
        (10, ExecutionPlan(workers=3)),
        (7, ExecutionPlan(workers=7)),
        (5, ExecutionPlan(workers=8)),
        (16, ExecutionPlan(chunk=5)),
        (1, ExecutionPlan.serial()),
    ])
    def test_chunk_bounds_partition(self, n, plan):
        bounds = plan.chunk_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_end == b_start
        assert all(start < end for start, end in bounds)


class TestShardArithmetic:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 28, 100, 1001])
    @pytest.mark.parametrize("s", [1, 3, 16, 40])
    def test_shard_bounds_partition_exactly(self, n, s):
        bounds = shard_bounds(n, s)
        assert len(bounds) == s
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (_, a_end), (b_start, _) in zip(bounds, bounds[1:]):
            assert a_end == b_start  # no gap, no overlap

    @pytest.mark.parametrize("n", [0, 1, 28, 100, 1001])
    @pytest.mark.parametrize("s", [1, 16, 40])
    def test_records_remaining_matches_shard_bounds(self, n, s):
        # Resuming after c shards must see exactly the records the
        # remaining shards cover — the guarantee that checkpoint resume
        # and the parallel scanner never double-read or skip a shard.
        bounds = shard_bounds(n, s)
        for completed in range(s + 1):
            tail = sum(end - start for start, end in bounds[completed:])
            assert records_remaining(n, completed, s) == tail

    def test_engine_resume_uses_the_same_formula(self, msa_engine, samples):
        # MsaEngine.resume_stream_bytes and the parallel scanner share
        # one integer formula; a drift between them would silently
        # re-read or skip paper-scale bytes on resume.
        sample = samples["2PV7"]
        total = msa_engine.database_footprint_bytes(sample)
        shards = msa_engine.config.scan_shards
        for completed in (0, 1, shards // 2, shards - 1, shards):
            assert msa_engine.resume_stream_bytes(sample, completed) == (
                records_remaining(total, completed, shards)
            )

    def test_trace_partial_scan_agrees_with_shard_fractions(self):
        from repro.msa.database import BufferedDatabaseReader

        db = build_database(
            PROTEIN_SEARCH_DBS[0], [], num_background=8, seed=0
        )
        reader = BufferedDatabaseReader(db)
        full = reader.trace_full_scan().total_bytes()
        for completed in (0, 4, 8, 15, SCAN_SHARDS):
            fraction = (SCAN_SHARDS - completed) / SCAN_SHARDS
            partial = reader.trace_partial_scan(completed).total_bytes()
            assert partial == pytest.approx(full * fraction)


# ---------------------------------------------------------------------------
# Order-invariant reducer (property-based)
# ---------------------------------------------------------------------------


class TestMergeSharded:
    @given(
        shards=st.lists(
            st.lists(st.integers(), max_size=4), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_completion_order(self, shards, seed):
        # Workers finish in arbitrary order; the merge must not care.
        indexed = list(enumerate(shards))
        expected = [item for _, shard in indexed for item in shard]
        rng = np.random.default_rng(seed)
        shuffled = [indexed[i] for i in rng.permutation(len(indexed))]
        assert merge_sharded(shuffled) == expected

    def test_duplicate_shard_rejected(self):
        with pytest.raises(ValueError):
            merge_sharded([(0, [1]), (0, [2])])


def _tag(payload):
    """Module-level so the fork backend can pickle it."""
    index, value = payload
    return (index, value * value)


class TestRunSharded:
    PAYLOADS = [(i, i + 1) for i in range(9)]

    def _run(self, plan):
        return run_sharded(_tag, self.PAYLOADS, plan)

    def test_serial_results_in_index_order(self):
        outcome = self._run(ExecutionPlan.serial())
        assert outcome.backend == "serial"
        assert outcome.results == [(i, (i + 1) ** 2) for i in range(9)]
        assert len(outcome.timings) == len(self.PAYLOADS)

    @pytest.mark.parametrize("plan", [
        ExecutionPlan(workers=2, backend="thread"),
        ExecutionPlan(workers=4, backend="thread"),
        ExecutionPlan(workers=3, backend="process"),
    ])
    def test_parallel_matches_serial(self, plan):
        serial = self._run(ExecutionPlan.serial())
        outcome = self._run(plan)
        assert outcome.results == serial.results
        assert len(outcome.timings) == len(self.PAYLOADS)
        assert 1 <= len(outcome.workers_used()) <= plan.workers


# ---------------------------------------------------------------------------
# MSA scan byte-identity
# ---------------------------------------------------------------------------

PARALLEL_PLANS = [
    ExecutionPlan(workers=2, backend="thread"),
    ExecutionPlan(workers=4, backend="process"),
    ExecutionPlan(workers=7, backend="thread"),
]

_DB_CACHE = {}


def _protein_case(seed):
    if seed not in _DB_CACHE:
        from repro.sequences.generator import random_sequence

        query = random_sequence(180, seed=seed + 1)
        db = build_database(
            PROTEIN_SEARCH_DBS[0],
            [query],
            num_background=24,
            homologs_per_query=4,
            low_complexity_fraction=0.1,
            seed=seed,
        )
        _DB_CACHE[seed] = (query, db)
    return _DB_CACHE[seed]


class TestJackhmmerEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("plan", PARALLEL_PLANS, ids=str)
    def test_byte_identical_across_workers(self, seed, plan):
        query, db = _protein_case(seed)
        config = SearchConfig(iterations=2)
        serial = JackhmmerSearch(db, config, seed=seed).search("q", query)
        parallel = JackhmmerSearch(
            db, config, seed=seed, plan=plan
        ).search("q", query)
        assert parallel.hits == serial.hits      # names, scores, e-values
        assert parallel.stats == serial.stats    # every cascade counter
        assert parallel.gumbel == serial.gumbel

    def test_scan_outcomes_record_every_shard(self):
        """One result per checkpoint shard, one timing per worker
        group, and every shard in exactly one group's range."""
        query, db = _protein_case(0)
        config = SearchConfig(iterations=2)
        for workers in (1, 2, 7, 20):
            result = JackhmmerSearch(
                db, config, seed=0,
                plan=ExecutionPlan(workers=workers, backend="thread"),
            ).search("q", query)
            assert len(result.scan_outcomes) == result.stats.iterations
            for outcome in result.scan_outcomes:
                assert [r.shard_index for r in outcome.results] == list(
                    range(SCAN_SHARDS)
                )
                assert len(outcome.timings) == min(workers, SCAN_SHARDS)
                covered = [
                    shard
                    for timing in outcome.timings
                    for shard in range(*timing.shards)
                ]
                assert covered == list(range(SCAN_SHARDS))


class TestNhmmerEquivalence:
    @pytest.mark.parametrize("plan", PARALLEL_PLANS, ids=str)
    def test_byte_identical_across_workers(self, plan):
        from repro.sequences.generator import random_sequence

        query = random_sequence(
            90, seed=5, molecule_type=NT_RNA.molecule_type
        )
        db = build_database(
            NT_RNA, [query], num_background=20,
            homologs_per_query=3, seed=5,
        )
        serial = NhmmerSearch(db, seed=5).search("rna", query)
        parallel = NhmmerSearch(db, seed=5, plan=plan).search("rna", query)
        assert parallel.hits == serial.hits
        assert parallel.stats == serial.stats


class TestEngineEquivalence:
    def test_full_msa_phase_byte_identical(self, msa_2pv7, samples):
        # Same tiny config as the session-scoped serial fixture.
        config = MsaEngineConfig(
            num_background=24, homologs_per_query=4, seed=7
        )
        parallel_engine = MsaEngine(
            config, plan=ExecutionPlan(workers=3, backend="thread")
        )
        parallel = parallel_engine.run(samples["2PV7"])
        serial = msa_2pv7
        assert set(parallel.chain_msas) == set(serial.chain_msas)
        for name, msa in parallel.chain_msas.items():
            assert msa.rows == serial.chain_msas[name].rows
            assert msa.row_names == serial.chain_msas[name].row_names
        assert np.array_equal(
            parallel.features.token_classes, serial.features.token_classes
        )
        for cname, feats in parallel.features.chain_features.items():
            ref = serial.features.chain_features[cname]
            for field in dataclasses.fields(feats):
                mine = getattr(feats, field.name)
                theirs = getattr(ref, field.name)
                if isinstance(mine, np.ndarray):
                    assert np.array_equal(mine, theirs), field.name
                else:
                    assert mine == theirs, field.name


# ---------------------------------------------------------------------------
# Model chunking bit-equality
# ---------------------------------------------------------------------------

MODEL_PLANS = [
    ExecutionPlan.serial(),
    ExecutionPlan(workers=2, backend="thread"),
    ExecutionPlan(workers=4, chunk=5, backend="thread"),
    ExecutionPlan(workers=1, chunk=3),
    ExecutionPlan(workers=7, backend="thread"),
]


def _pair_input(n=24, c=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n, c)).astype(np.float32)


class TestModelChunkingBitEquality:
    @pytest.mark.parametrize("plan", MODEL_PLANS, ids=str)
    @pytest.mark.parametrize("outgoing", [True, False])
    def test_triangle_multiplication(self, plan, outgoing):
        rng = np.random.default_rng(1)
        layer = TriangleMultiplication(rng, 16, 12, outgoing=outgoing)
        z = _pair_input()
        assert np.array_equal(layer(z), layer(z, None, plan))

    @pytest.mark.parametrize("plan", MODEL_PLANS, ids=str)
    @pytest.mark.parametrize("starting", [True, False])
    def test_triangle_attention(self, plan, starting):
        rng = np.random.default_rng(2)
        layer = TriangleAttention(rng, 16, 4, starting=starting)
        z = _pair_input(seed=3)
        assert np.array_equal(layer(z), layer(z, None, plan))

    @pytest.mark.parametrize("plan", MODEL_PLANS, ids=str)
    def test_pairformer_block_and_op_accounting(self, plan):
        config = ModelConfig.tiny()
        rng = np.random.default_rng(4)
        block = PairformerBlock(rng, config)
        srng = np.random.default_rng(5)
        single = srng.normal(size=(20, config.c_single)).astype(np.float32)
        pair = srng.normal(
            size=(20, 20, config.c_pair)
        ).astype(np.float32)

        serial_counter = OpCounter()
        s_single, s_pair = block(single, pair, serial_counter)
        chunked_counter = OpCounter()
        c_single, c_pair = block(single, pair, chunked_counter, plan)

        assert np.array_equal(s_single, c_single)
        assert np.array_equal(s_pair, c_pair)
        # Chunking must not change the op accounting either.
        assert chunked_counter.total_flops() == serial_counter.total_flops()


# ---------------------------------------------------------------------------
# Static OOM prediction (pipeline pre-check relies on exact equality)
# ---------------------------------------------------------------------------


class TestPeakMemoryPrediction:
    @pytest.mark.parametrize("threads", [1, 4, 8])
    @pytest.mark.parametrize(
        "fixture", ["msa_2pv7", "msa_promo", "msa_6qnr"]
    )
    def test_prediction_is_bit_identical(
        self, request, fixture, threads, msa_engine, samples
    ):
        result = request.getfixturevalue(fixture)
        name = {"msa_2pv7": "2PV7", "msa_promo": "promo",
                "msa_6qnr": "6QNR"}[fixture]
        assert msa_engine.predicted_peak_memory_bytes(
            samples[name], threads
        ) == result.peak_memory_bytes(threads)


# ---------------------------------------------------------------------------
# Measured worker timelines feed the observability layer
# ---------------------------------------------------------------------------


class TestScanTimeline:
    def test_real_worker_tracks(self):
        query, db = _protein_case(0)
        result = JackhmmerSearch(
            db, SearchConfig(iterations=1), seed=0,
            plan=ExecutionPlan(workers=2, backend="thread"),
        ).search("q", query)
        recorder = scan_timeline(result.scan_outcomes,
                                 track_prefix="msa-worker")
        spans = recorder.spans
        # One span per worker group of shards.
        assert len(spans) == min(2, SCAN_SHARDS)
        tracks = {span.track for span in spans}
        assert tracks <= {"msa-worker-0", "msa-worker-1"}
        shards = sorted(
            shard
            for span in spans
            for shard in range(
                int(span.attrs["shards"].split("-")[0]),
                int(span.attrs["shards"].split("-")[1]) + 1,
            )
        )
        assert shards == list(range(SCAN_SHARDS))
        for span in spans:
            assert span.end >= span.start >= 0.0
