"""Differential tests for :mod:`repro.msa.kernels`.

The batched kernels' contract is **bit-identity** with the scalar
kernels in :mod:`repro.msa.dp`: every score, DP cell count, band
width, survivor set and hit list must be exactly equal — ``==`` on
floats, never ``approx`` — for any mix of target lengths (empty and
single-residue included), any band, any bucket boundary, and any
:class:`ExecutionPlan` backend or worker count.  The scalar side is
the reference shard loops (``reference_scan_protein_shard``,
``reference_scan_rna_shard``), which production never runs; the
batched side is the one grouped scan both searches run
(``scan_shard_group``, one cascade over a contiguous group of shards,
split back into one exact result per shard) and its one-shard case
``scan_shard``.  Hypothesis drives the length/band/profile/grouping
space; fixed cases pin the geometry helpers.
"""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa.database import (
    NT_RNA,
    PROTEIN_SEARCH_DBS,
    SCAN_SHARDS,
    build_database,
)
from repro.msa.dp import (
    NEG_INF,
    _band_mask,
    _log2addexp,
    calc_band_9,
    calc_band_10,
    msv_filter,
)
from repro.msa.evalue import calibrate, reference_calibrate
from repro.msa import jackhmmer
from repro.msa.jackhmmer import (
    JackhmmerSearch,
    SearchConfig,
    reference_scan_protein_shard,
)
from repro.msa.kernels import (
    PAD,
    ScanGates,
    TargetBatch,
    batch_targets,
    calc_band_9_batch,
    calc_band_10_batch,
    emission_gather,
    msv_filter_batch,
    pad_length,
    pad_waste,
    run_cascade,
    scan_shard,
    scan_shard_group,
    scan_waste_summary,
    window_bounds,
)
from repro.msa.kernels import batched
from repro.msa.kernels.batched import (
    FORWARD_FOLD_ROWS,
    MSV_COLUMNS,
    _band_bounds,
    _fold_forward_rows,
    _msv_chunks,
)
from repro.msa.nhmmer import (
    FINAL_EVALUE,
    MSV_EVALUE,
    SCAN_WINDOW,
    NhmmerSearch,
    reference_scan_rna_shard,
)
from repro.msa.profile_hmm import ProfileHMM, encode_sequence
from repro.parallel import ExecutionPlan, shard_bounds
from repro.sequences.alphabets import MoleculeType, alphabet_for
from repro.sequences.generator import mutate_sequence, random_sequence

PROTEIN = MoleculeType.PROTEIN
RNA = MoleculeType.RNA


def make_profile(qlen, seed=0):
    return ProfileHMM.from_query(
        random_sequence(qlen, seed=seed), PROTEIN, name=f"q{seed}"
    )


def encode_random(lengths, seed=0):
    rng = np.random.default_rng(seed)
    residues = list(alphabet_for(PROTEIN))
    return [
        encode_sequence("".join(rng.choice(residues, n)), PROTEIN)
        for n in lengths
    ]


# ---------------------------------------------------------------------------
# Bucketing geometry
# ---------------------------------------------------------------------------


class TestBatching:
    @pytest.mark.parametrize("n,width", [
        (0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8),
        (8, 8), (9, 16), (255, 256), (256, 256), (257, 512),
    ])
    def test_pad_length_powers_of_two(self, n, width):
        assert pad_length(n) == width

    def test_pad_length_rejects_negative(self):
        with pytest.raises(ValueError):
            pad_length(-1)

    def test_batches_cover_all_targets_once(self):
        encs = encode_random([0, 1, 3, 4, 5, 17, 17, 100], seed=1)
        batches = batch_targets(encs)
        seen = [i for b in batches for i in b.indices]
        assert sorted(seen) == list(range(len(encs)))

    def test_rows_padded_with_sentinel(self):
        encs = encode_random([3, 5], seed=2)
        (batch,) = [b for b in batch_targets(encs) if 3 in b.seq_lens]
        row = list(batch.indices).index(0)
        assert (batch.encoded[row, 3:] == PAD).all()
        assert (batch.encoded[row, :3] == encs[0]).all()

    def test_same_bucket_preserves_input_order(self):
        encs = encode_random([9, 12, 16, 10], seed=3)  # all pad to 16
        (batch,) = batch_targets(encs)
        assert batch.indices == (0, 1, 2, 3)

    def test_take_compacts_and_keeps_original_indices(self):
        encs = encode_random([5, 6, 7, 8], seed=4)
        (batch,) = batch_targets(encs)
        sub = batch.take([2, 0])
        assert sub.indices == (2, 0)
        assert sub.size == 2
        assert (sub.encoded[0] == batch.encoded[2]).all()
        assert sub.padded_len == batch.padded_len

    def test_row_gather_matches_emission_row(self):
        """Each profile row's gather, in the MSV ``(lane, column)`` and
        the banded ``(column, lane)`` layouts, is ``emission_row`` on
        real columns, 0 on wildcards and NEG_INF on padding."""
        profile = make_profile(12, seed=5)
        encs = encode_random([0, 1, 6, 8, 8], seed=5)
        encs[2][1] = -1  # wildcard position
        encs[4][0] = encs[4][7] = -1
        for batch in batch_targets(encs):
            table, index = emission_gather(profile, batch)
            assert table.shape == (profile.length,
                                   profile.match_scores.shape[1] + 2)
            index_t = np.ascontiguousarray(index.T)
            for i in range(profile.length):
                row = np.take(table[i], index)
                assert (np.take(table[i], index_t) == row.T).all()
                for lane, idx in enumerate(batch.indices):
                    n = len(encs[idx])
                    assert (row[lane, :n]
                            == profile.emission_row(encs[idx])[i]).all()
                    assert (row[lane, :n][encs[idx] == -1] == 0.0).all()
                    assert (row[lane, n:] == NEG_INF).all()


# ---------------------------------------------------------------------------
# Kernel-level bit-identity (property-based)
# ---------------------------------------------------------------------------


def assert_batch_matches_scalar(profile, encs, band):
    """Every batched result must equal the scalar result bit for bit."""
    msv = msv_filter_batch(profile, encs)
    for idx, enc in enumerate(encs):
        s_msv = msv_filter(profile, enc)
        assert msv.scores[idx] == s_msv.score
        assert msv.cells[idx] == s_msv.cells
        assert msv.band_widths[idx] == s_msv.band_width
    for batch in batch_targets(encs):
        vit = calc_band_9_batch(profile, batch, band=band)
        fwd = calc_band_10_batch(profile, batch, band=band)
        for row, idx in enumerate(batch.indices):
            s_vit = calc_band_9(profile, encs[idx], band=band)
            s_fwd = calc_band_10(profile, encs[idx], band=band)
            assert vit.scores[row] == s_vit.score
            assert vit.cells[row] == s_vit.cells
            assert vit.band_widths[row] == s_vit.band_width
            assert fwd.scores[row] == s_fwd.score
            assert fwd.cells[row] == s_fwd.cells
            assert fwd.band_widths[row] == s_fwd.band_width


class TestKernelBitIdentity:
    @given(
        qlen=st.integers(min_value=1, max_value=24),
        lengths=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=10
        ),
        band=st.integers(min_value=1, max_value=48),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_profiles_and_length_mixes(
        self, qlen, lengths, band, seed
    ):
        profile = make_profile(qlen, seed=seed)
        encs = encode_random(lengths, seed=seed + 1)
        assert_batch_matches_scalar(profile, encs, band)

    def test_empty_and_single_residue_targets(self):
        profile = make_profile(10, seed=6)
        encs = encode_random([0, 1, 0, 1, 2], seed=6)
        assert_batch_matches_scalar(profile, encs, band=8)

    def test_bucket_boundary_lengths(self):
        # Lengths straddling every power-of-two boundary in range.
        profile = make_profile(16, seed=7)
        lengths = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64,
                   65]
        assert_batch_matches_scalar(
            profile, encode_random(lengths, seed=7), band=16
        )

    def test_wildcards_in_batch(self):
        profile = make_profile(14, seed=8)
        encs = encode_random([10, 20], seed=8)
        encs[0][0] = -1
        encs[1][-1] = -1
        assert_batch_matches_scalar(profile, encs, band=12)

    def test_band_wider_than_everything(self):
        profile = make_profile(6, seed=9)
        assert_batch_matches_scalar(
            profile, encode_random([0, 3, 9], seed=9), band=1000
        )

    @given(
        qlen=st.integers(min_value=20, max_value=200),
        lengths=st.lists(
            st.integers(min_value=0, max_value=400), min_size=2, max_size=8
        ),
        band=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_banded_regime_length_mixes(self, qlen, lengths, band, seed):
        # Bands narrower than the rows, so lanes of one bucket have
        # band windows that diverge row by row.
        profile = make_profile(qlen, seed=seed)
        encs = encode_random(lengths, seed=seed + 1)
        assert_batch_matches_scalar(profile, encs, band)

    @pytest.mark.parametrize("qlen,lengths,band", [
        pytest.param(30, [0, 0, 0], 8, id="all-empty-batch"),
        pytest.param(1, [0, 1, 2, 9, 40], 1, id="profile-of-one-band-1"),
        pytest.param(1, [3, 40, 129], 64, id="profile-of-one"),
        pytest.param(60, [17, 60, 61, 100, 129, 250], 1, id="band-1"),
        pytest.param(200, [257, 511, 300], 64, id="lanes-257-and-511"),
    ])
    def test_banded_regime_fixed_cases(self, qlen, lengths, band):
        profile = make_profile(qlen, seed=qlen)
        assert_batch_matches_scalar(
            profile, encode_random(lengths, seed=len(lengths)), band
        )

    def test_batch_rejects_nonpositive_band(self):
        # Both paths validate the band before any empty-target guard.
        profile = make_profile(6, seed=10)
        for lengths in ([4], [0]):
            enc = encode_random(lengths, seed=10)
            (batch,) = batch_targets(enc)
            for band in (0, -3):
                for kernel in (calc_band_9_batch, calc_band_10_batch):
                    with pytest.raises(ValueError):
                        kernel(profile, batch, band=band)
                for kernel in (calc_band_9, calc_band_10):
                    with pytest.raises(ValueError):
                        kernel(profile, enc[0], band=band)


def assert_forward_matches_scalar(profile, encs, band):
    for batch in batch_targets(encs):
        fwd = calc_band_10_batch(profile, batch, band=band)
        for row, idx in enumerate(batch.indices):
            scalar = calc_band_10(profile, encs[idx], band=band)
            assert fwd.scores[row] == scalar.score
            assert fwd.cells[row] == scalar.cells


#: Profile lengths around the Forward fold block: one short of a block,
#: one block, one row into the next, and a partial third block.
FOLD_LENGTHS = [FORWARD_FOLD_ROWS - 1, FORWARD_FOLD_ROWS,
                FORWARD_FOLD_ROWS + 1, 2 * FORWARD_FOLD_ROWS + 1]


class TestForwardBlockFold:
    """Forward folds its row totals once per block of
    ``FORWARD_FOLD_ROWS`` rows; scores stay ``==`` the scalar kernel's
    at every block boundary and for every lane count."""

    @given(
        qlen=st.sampled_from(FOLD_LENGTHS),
        lengths=st.lists(
            st.integers(min_value=0, max_value=160), min_size=1, max_size=40
        ),
        band=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_block_boundaries_and_length_mixes(
        self, qlen, lengths, band, seed
    ):
        profile = make_profile(qlen, seed=seed)
        assert_forward_matches_scalar(
            profile, encode_random(lengths, seed=seed + 1), band
        )

    @pytest.mark.parametrize("qlen", FOLD_LENGTHS)
    @pytest.mark.parametrize("lengths", [
        pytest.param([0, 0, 0], id="all-zero-length"),
        pytest.param([0, 37, 0, 80], id="empty-lanes-in-every-row"),
        pytest.param([53], id="one-lane"),
        pytest.param([20 + 3 * k for k in range(40)], id="forty-lanes"),
    ])
    def test_fixed_cases(self, qlen, lengths):
        profile = make_profile(qlen, seed=qlen)
        assert_forward_matches_scalar(
            profile, encode_random(lengths, seed=len(lengths)), band=16
        )


def reference_fold(block, rel_starts, counts, total_score):
    """The scalar kernel's row total and fold, one (row, lane) at a time."""
    scores = total_score.tolist()
    for r, b in zip(*np.nonzero(counts)):
        first = 1 + rel_starts[r, b]
        finite = block[r, first:first + counts[r, b], b].copy()
        hi = float(finite.max())
        row_total = hi + float(np.log2(np.exp2(finite - hi).sum()))
        scores[b] = float(
            _log2addexp(np.array(scores[b]), np.array(row_total))
        )
    return np.array(scores)


#: Band lengths around numpy's pairwise-summation edges: its unrolled
#: 8-way loop starts at 8 and its blocks split above 128 cells.
PAIRWISE_EDGES = [1, 2, 7, 8, 9, 127, 128, 129, 256, 257]


class TestFoldSegments:
    """``_fold_forward_rows``' flat ``reduceat`` segments equal the
    scalar kernel's per-row ``.sum()`` and fold (``==``, sign too)."""

    @pytest.mark.parametrize("rows", [1, FORWARD_FOLD_ROWS])
    @pytest.mark.parametrize("length", PAIRWISE_EDGES)
    def test_block_of_band_lengths(self, rows, length):
        rng = np.random.default_rng(rows * 1000 + length)
        lanes = 6
        # Lane 0 has no in-band cell on any row; the others on some.
        counts = np.where(
            rng.random((rows, lanes)) < 0.8,
            rng.integers(max(1, length - 2), length + 1, (rows, lanes)),
            0,
        )
        counts[:, 0] = 0
        counts[0, 1:] = length
        # Ignored where a lane has no cells (the kernel's is negative).
        rel_starts = np.where(
            counts > 0, rng.integers(0, 4, (rows, lanes)), -7
        )
        ends = rel_starts + counts
        width = int(ends.max()) + 3
        # Past a row's window the kernel leaves stale cells: junk that
        # any read would turn into inf.  In the window, off-band cells
        # are NEG_INF, and in-band cells are finite, some exactly -0.0.
        block = np.full((rows, 1 + width, lanes), 1e300)
        for r in range(rows):
            block[r, :1 + ends[r].max()] = NEG_INF
            for b in range(lanes):
                first = 1 + rel_starts[r, b]
                band = rng.uniform(-40.0, 10.0, counts[r, b])
                band[::5] = -0.0
                block[r, first:first + counts[r, b], b] = band
        for total in (np.full(lanes, NEG_INF),
                      rng.uniform(-30.0, 5.0, lanes)):
            expected = reference_fold(block, rel_starts, counts, total)
            _fold_forward_rows(block, rel_starts, counts, total)
            assert (total == expected).all()
            assert (np.signbit(total) == np.signbit(expected)).all()

    @pytest.mark.parametrize("length", PAIRWISE_EDGES)
    def test_reduceat_from_zero_equals_sum(self, length):
        # The numpy behaviour the fold rests on, alone.
        cells = np.random.default_rng(length).uniform(0.0, 1.0, length)
        led = np.concatenate([[0.0], cells, [0.0], cells[::-1]])
        sums = np.add.reduceat(led, [0, length + 1])
        assert sums[0] == cells.sum()
        assert sums[1] == cells[::-1].copy().sum()

    def test_no_cells_leaves_the_score(self):
        counts = np.zeros((3, 4), dtype=np.int64)
        total = np.array([NEG_INF, 0.0, -3.25, 12.5])
        block = np.full((3, 5, 4), NEG_INF)
        _fold_forward_rows(block, counts - 1, counts, total)
        assert (total == [NEG_INF, 0.0, -3.25, 12.5]).all()
        assert np.signbit(total).tolist() == [True, False, True, False]


def assert_msv_matches_scalar(profile, encs):
    """Flat MSV equals scalar ``msv_filter`` on every window, in input
    order: score (``==`` and sign) and cells."""
    msv = msv_filter_batch(profile, encs)
    assert msv.scores.shape == msv.cells.shape == (len(encs),)
    for idx, enc in enumerate(encs):
        scalar = msv_filter(profile, enc)
        assert msv.scores[idx] == scalar.score
        assert np.signbit(msv.scores[idx]) == np.signbit(scalar.score)
        assert msv.cells[idx] == scalar.cells


def integer_profile(qlen, seed):
    """Small integer scores, -0.0 among them: running sums hit 0.0
    exactly on most rows."""
    rng = np.random.default_rng(seed)
    scores = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], (qlen, 20))
    return ProfileHMM(scores, PROTEIN)


class TestMsvEdgeLanes:
    """Flat MSV equals scalar ``msv_filter`` (``==`` and sign) on
    zero-length windows, on windows whose running sum lands on 0.0,
    and across the edges of its column budget."""

    @given(
        qlen=st.integers(min_value=1, max_value=20),
        lengths=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_integer_scores_sum_to_zero(self, qlen, lengths, seed):
        assert_msv_matches_scalar(
            integer_profile(qlen, seed), encode_random(lengths, seed=seed)
        )

    @given(
        qlen=st.integers(min_value=1, max_value=20),
        lengths=st.lists(
            st.integers(min_value=0, max_value=40), min_size=1, max_size=12
        ),
        wildcard_rate=st.sampled_from([0.0, 0.2, 1.0]),
        integer_scores=st.booleans(),
        budget=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_window_lists(
        self, qlen, lengths, wildcard_rate, integer_scores, budget, seed
    ):
        """Random window lists, with empty windows and wildcards, swept
        under a small column budget so that windows land on both sides
        of every chunk edge, and some alone in a chunk of their own."""
        profile = (integer_profile(qlen, seed) if integer_scores
                   else make_profile(qlen, seed=seed))
        encs = encode_random(lengths, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        for enc in encs:
            enc[rng.random(len(enc)) < wildcard_rate] = -1
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batched, "MSV_COLUMNS", budget)
            assert_msv_matches_scalar(profile, encs)

    @pytest.mark.parametrize("total,chunks", [
        (MSV_COLUMNS - 1, 1), (MSV_COLUMNS, 1), (MSV_COLUMNS + 1, 2),
    ])
    def test_windows_at_the_column_budget(self, total, chunks):
        """Windows totalling one column under, at and over the budget
        take one, one and two sweeps; every window equals the scalar."""
        lengths = [1000] * (total // 1000) + [total % 1000, 0]
        assert len(_msv_chunks(lengths)) == chunks
        encs = encode_random(lengths, seed=total)
        encs[-2][::7] = -1
        assert_msv_matches_scalar(integer_profile(3, seed=total), encs)

    def test_window_longer_than_the_budget(self):
        """A window longer than the budget is swept in a chunk of its
        own, between its neighbours' chunks."""
        lengths = [5, MSV_COLUMNS + 3, 0, 7]
        assert _msv_chunks(lengths) == [[0], [1], [3]]
        encs = encode_random(lengths, seed=11)
        assert_msv_matches_scalar(make_profile(3, seed=11), encs)

    @pytest.mark.parametrize("fill", [-1.0, -0.0, 0.0])
    def test_no_positive_score(self, fill):
        profile = ProfileHMM(np.full((9, 20), fill), PROTEIN)
        assert_msv_matches_scalar(
            profile, encode_random([0, 5, 0, 12, 16, 0], seed=3)
        )

    def test_sweep_memory_is_one_budget(self):
        """One call over windows totalling several budgets allocates no
        more than one budget's four float buffers plus its index: the
        sweep never holds all of a cascade's columns at once."""
        profile = make_profile(4, seed=12)
        encs = encode_random([997] * (5 * MSV_COLUMNS // 997), seed=12)
        msv_filter_batch(profile, encs)  # warm numpy's own caches
        tracemalloc.start()
        try:
            msv_filter_batch(profile, encs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        buffers = 4 * MSV_COLUMNS * 8
        index = MSV_COLUMNS * 8
        # Slack for the score table, the window starts and the result.
        assert peak <= buffers + index + 64 * 1024


@pytest.mark.parametrize("length", [1, 3, 7, 12, 49, 242])
@pytest.mark.parametrize("band", [1, 2, 5, 64])
def test_band_bounds_match_scalar_mask(length, band):
    """The kernel's per-row band starts and counts equal the scalar
    ``_band_mask`` rows' ``argmax`` and ``sum`` for every lane.

    Ratios like 10/3 or 250/242 are not dyadic, so ``row * ratio``
    rounds: row 121 of a 250-residue lane is centred on 125 exactly,
    but the float center lies an ulp below, so column ``125 - band``
    is in the band and ``125 + band`` is not.
    """
    seq_lens = np.array([0, 1, 5, 10, 11, 100, 129, 250, 257, 511])
    band_eff = np.minimum(band, np.maximum(length, seq_lens))
    starts, counts = _band_bounds(length, seq_lens, band_eff)
    assert starts.shape == counts.shape == (length, len(seq_lens))
    for lane, n in enumerate(seq_lens):
        mask = _band_mask(length, int(n), int(band_eff[lane]))
        assert (counts[:, lane] == mask.sum(axis=1)).all()
        if n:
            assert (starts[:, lane] == mask.argmax(axis=1)).all()
        else:
            assert (starts[:, lane] == 0).all()


# ---------------------------------------------------------------------------
# Cascade equivalence: shard scan == reference shard scan
# ---------------------------------------------------------------------------


def _shard_case(seed=0, homologs=6, background=20):
    query = random_sequence(150, seed=seed + 1)
    db = build_database(
        PROTEIN_SEARCH_DBS[0],
        [query],
        num_background=background,
        homologs_per_query=homologs,
        low_complexity_fraction=0.1,
        seed=seed,
    )
    mtype = db.spec.molecule_type
    profile = ProfileHMM.from_query(query, mtype, name="q")
    gumbel = calibrate(profile, seed=seed)
    targets = [
        (name, seq, encode_sequence(seq, mtype)) for name, seq in db.records
    ]
    return query, db, profile, gumbel, targets


def _rna_case(seed=6):
    query = random_sequence(
        320, seed=seed, molecule_type=NT_RNA.molecule_type
    )
    db = build_database(
        NT_RNA, [query], num_background=14,
        homologs_per_query=3, seed=seed,
    )
    return query, db


def rna_gates(msv_evalue=MSV_EVALUE, final_evalue=FINAL_EVALUE):
    """nhmmer's scan gates: no Viterbi gate, 256-nt windows."""
    return ScanGates(48, msv_evalue, math.inf, final_evalue, SCAN_WINDOW)


def rna_targets(records):
    return [(name, seq, encode_sequence(seq, RNA)) for name, seq in records]


@functools.lru_cache(maxsize=None)
def _rna_window_case():
    """A 60-nt RNA query, its Gumbel fit, and one 600-nt record holding
    a near copy of the query at 450: its best-MSV window is the third
    of four, never the first."""
    query = random_sequence(60, RNA, seed=11)
    profile = ProfileHMM.from_query(query, RNA, name="rna_window")
    gumbel = calibrate(profile, seed=11)
    background = random_sequence(600, RNA, seed=12)
    planted = mutate_sequence(query, RNA, 0.9, seed=13)
    record = background[:450] + planted + background[450 + len(planted):]
    return query, profile, gumbel, ("late_homolog", record)


class TestCascadeEquivalence:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_shard_scan_identical(self, seed):
        _, db, profile, gumbel, targets = _shard_case(seed=seed)
        payload = (0, profile, gumbel, targets,
                   SearchConfig(iterations=1).gates, db.spec.num_sequences)
        assert scan_shard(payload) == reference_scan_protein_shard(payload)

    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=60), min_size=0, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        # (msv, viterbi, final) E-value gates, from pass-all to ones
        # that reject at every stage.
        gates=st.sampled_from([
            (1e9, 1e6, 1e3), (1e4, 1e3, 1e2), (3e3, 3e2, 30.0),
        ]),
    )
    @settings(max_examples=30, deadline=None)
    def test_shard_scan_equals_reference_for_length_mixes(
        self, lengths, seed, gates
    ):
        profile = make_profile(30, seed=seed)
        targets = [
            (f"t{i}", "", enc)
            for i, enc in enumerate(encode_random(lengths, seed=seed + 1))
        ]
        gumbel = calibrate(profile, seed=seed)
        payload = (3, profile, gumbel, targets, ScanGates(16, *gates),
                   10_000)
        assert scan_shard(payload) == reference_scan_protein_shard(payload)

    # nhmmer's default gates, then gates every record passes.
    @pytest.mark.parametrize("msv_evalue,final_evalue",
                             [(500.0, 1e-2), (1e300, 1e300)])
    def test_rna_shard_scan_identical(self, msv_evalue, final_evalue):
        query, db = _rna_case()
        mtype = db.spec.molecule_type
        profile = ProfileHMM.from_query(query, mtype, name="rna")
        gumbel = calibrate(profile, seed=6)
        # Records shorter and longer than one scan window, and empty.
        records = list(db.records) + [("empty", ""), ("one", "A")]
        payload = (1, profile, gumbel, rna_targets(records),
                   rna_gates(msv_evalue, final_evalue),
                   db.spec.num_sequences)
        batched = scan_shard(payload)
        assert batched == reference_scan_rna_shard(payload)
        assert batched.hits and batched.msv_pass == batched.vit_pass

    @given(
        lengths=st.lists(
            st.one_of(
                st.sampled_from([0, 1, 127, 128, 129, 255, 256, 257,
                                 383, 384, 385, 600]),
                st.integers(min_value=0, max_value=700),
            ),
            min_size=0, max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        # (msv, final) E-value gates, from nhmmer's defaults to pass-all.
        gates=st.sampled_from([
            (MSV_EVALUE, FINAL_EVALUE), (1e6, 1e2), (1e300, 1e300),
        ]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rna_shard_scan_equals_reference_for_window_mixes(
        self, lengths, seed, gates
    ):
        query, profile, gumbel, late = _rna_window_case()
        records = []
        for i, length in enumerate(lengths):
            seq = random_sequence(length, RNA, seed=seed + i) if length else ""
            if i % 2 and length >= 2 * len(query):
                # A homolog somewhere in the record, so gates and the
                # best-window choice both matter.
                at = (seed + i) % (length - len(query))
                homolog = mutate_sequence(query, RNA, 0.8, seed=seed + i)
                seq = seq[:at] + homolog + seq[at + len(homolog):]
            records.append((f"r{i}", seq))
        records.insert(seed % (len(records) + 1), late)
        payload = (2, profile, gumbel, rna_targets(records),
                   rna_gates(*gates), NT_RNA.num_sequences)
        assert scan_shard(payload) == reference_scan_rna_shard(payload)

    def test_rna_best_window_is_not_the_first(self):
        """The fixed record above really needs its later window: the
        scan accepts it with that window's scores."""
        _, profile, gumbel, late = _rna_window_case()
        seq = late[1]
        scores = [
            msv_filter(profile, encode_sequence(seq[lo:hi], RNA)).score
            for lo, hi in window_bounds(len(seq), SCAN_WINDOW)
        ]
        assert len(scores) == 4 and scores.index(max(scores)) > 0
        payload = (0, profile, gumbel, rna_targets([late]),
                   rna_gates(1e300, 1e300), NT_RNA.num_sequences)
        batched = scan_shard(payload)
        assert batched == reference_scan_rna_shard(payload)
        (hit,) = batched.hits
        first = encode_sequence(seq[:SCAN_WINDOW], RNA)
        assert hit.forward_score != calc_band_10(profile, first,
                                                 band=48).score

    def test_cascade_counters_match_scalar_loop(self):
        """One cascade over three shards reports each shard's own
        counters, hits and waste, as its scalar loop does."""
        _, db, profile, gumbel, targets = _shard_case(seed=2)
        gates = SearchConfig(iterations=1).gates
        bounds = shard_bounds(len(targets), 3)
        outcomes = run_cascade(
            profile, gumbel,
            [
                (4 + k, db.spec.num_sequences,
                 [(name, seq, [enc]) for name, seq, enc in targets[lo:hi]])
                for k, (lo, hi) in enumerate(bounds)
            ],
            gates,
        )
        assert outcomes == [
            reference_scan_protein_shard(
                (4 + k, profile, gumbel, targets[lo:hi], gates,
                 db.spec.num_sequences)
            )
            for k, (lo, hi) in enumerate(bounds)
        ]
        # A shard with no MSV survivor beside two with hits.
        assert [len(outcome.hits) for outcome in outcomes] == [0, 3, 3]

    def test_each_shard_gates_with_its_own_db_size(self):
        """Two shards of one cascade hold the same target under
        different database sizes: it clears the MSV gate under the
        smaller size only, as each shard's own reference loop says."""
        _, _, profile, gumbel, _ = _shard_case(seed=2)
        seq = random_sequence(150, seed=99)
        encoded = encode_sequence(seq, profile.molecule_type)
        survival = gumbel.survival(msv_filter(profile, encoded).score)
        assert survival > 1e-3
        small = math.floor(100.0 / survival)
        large = 10 * small
        gates = ScanGates(64, 100.0, 1e300, 1e300)
        payloads = [
            (shard, profile, gumbel, [("t", seq, encoded)], gates, db_size)
            for shard, db_size in ((0, small), (1, large))
        ]
        expected = [reference_scan_protein_shard(p) for p in payloads]
        assert [r.msv_pass for r in expected] == [1, 0]
        assert len(expected[0].hits) == 1 and expected[1].hits == ()
        assert scan_shard_group(payloads) == expected
        assert run_cascade(
            profile, gumbel,
            [(shard, db_size, [("t", seq, [encoded])])
             for shard, _, _, _, _, db_size in payloads],
            gates,
        ) == expected

    def test_empty_shard(self):
        _, db, profile, gumbel, _ = _shard_case(seed=3)
        _, rna_profile, rna_gumbel, _ = _rna_window_case()
        for reference, prof, gumbel_params, gates in (
            (reference_scan_protein_shard, profile, gumbel,
             SearchConfig(iterations=1).gates),
            (reference_scan_rna_shard, rna_profile, rna_gumbel,
             rna_gates()),
        ):
            payload = (0, prof, gumbel_params, [], gates,
                       db.spec.num_sequences)
            for scan in (reference, scan_shard):
                result = scan(payload)
                assert result.hits == ()
                assert result.candidates == 0
                assert result.pad_waste == ()


@functools.lru_cache(maxsize=None)
def _grouping_case(molecule, records, gates):
    """The ``SCAN_SHARDS`` shard payloads of one scan over the first
    ``records`` records of a protein or RNA case, and the scalar
    reference's result for each shard alone."""
    if molecule == "protein":
        _, db, profile, gumbel, targets = _shard_case(seed=7)
        gates = ScanGates(64, *gates)
        reference = reference_scan_protein_shard
    else:
        query, db = _rna_case()
        profile = ProfileHMM.from_query(query, RNA, name="rna")
        gumbel = calibrate(profile, seed=6)
        targets = rna_targets(db.records)
        gates = rna_gates(gates[0], gates[2])
        reference = reference_scan_rna_shard
    targets = targets[:records]
    payloads = [
        (i, profile, gumbel, targets[lo:hi], gates, db.spec.num_sequences)
        for i, (lo, hi) in enumerate(shard_bounds(len(targets),
                                                  SCAN_SHARDS))
    ]
    return payloads, [reference(payload) for payload in payloads]


class TestGroupedScan:
    @given(
        molecule=st.sampled_from(["protein", "rna"]),
        # Fewer records than shards leaves some shards empty.
        records=st.sampled_from([0, 1, 5, 15, 16, 40]),
        # (msv, viterbi, final) E-value gates: the searches' defaults,
        # pass-all, and an MSV gate nothing clears.
        gates=st.sampled_from([
            (200.0, 1.0, 1e-3), (1e300, 1e300, 1e300), (1e-300, 0.0, 0.0),
        ]),
        cuts=st.sets(st.integers(min_value=1, max_value=SCAN_SHARDS - 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_contiguous_grouping_equals_each_shard_alone(
        self, molecule, records, gates, cuts
    ):
        payloads, expected = _grouping_case(molecule, records, gates)
        edges = [0, *sorted(cuts), SCAN_SHARDS]
        results = [
            result
            for lo, hi in zip(edges, edges[1:])
            for result in scan_shard_group(payloads[lo:hi])
        ]
        assert results == expected

    def test_groups_of_a_real_scan(self):
        """Every worker-group count of a 16-shard scan, against each
        shard's scalar result; some groups have no MSV survivor."""
        for molecule in ("protein", "rna"):
            payloads, expected = _grouping_case(
                molecule, 40, (200.0, 1.0, 1e-3)
            )
            assert any(r.msv_pass == 0 for r in expected)
            assert any(r.hits for r in expected)
            for groups in (1, 2, 3, 5, SCAN_SHARDS):
                results = [
                    result
                    for lo, hi in shard_bounds(SCAN_SHARDS, groups)
                    for result in scan_shard_group(payloads[lo:hi])
                ]
                assert results == expected, (molecule, groups)

    def test_empty_group(self):
        assert scan_shard_group([]) == []


# ---------------------------------------------------------------------------
# Full searches: every backend x worker count against the scalar oracle
# ---------------------------------------------------------------------------

KERNEL_PLANS = [
    ExecutionPlan(workers=1, backend="serial"),
    ExecutionPlan(workers=2, backend="thread"),
    ExecutionPlan(workers=4, backend="process"),
    ExecutionPlan(workers=7, backend="thread"),
]


def each_shard(reference, payloads):
    """A group scan that runs ``reference`` over each shard alone."""
    return [reference(payload) for payload in payloads]


def scalar_oracle(monkeypatch, module, reference, search):
    """Run ``search()`` with ``module``'s shard scan and calibration
    swapped for their reference loops, on a serial plan: the search as
    the per-target loops compute it."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "scan_shard_group",
                      functools.partial(each_shard, reference))
        patch.setattr(module, "calibrate", reference_calibrate)
        return search()


class TestSearchEquivalence:
    def test_jackhmmer_batched_equals_scalar_for_every_plan(
        self, monkeypatch
    ):
        query, db, *_ = _shard_case(seed=1)
        config = SearchConfig(iterations=2)

        def search(plan=ExecutionPlan.serial()):
            return JackhmmerSearch(db, config, seed=1, plan=plan).search(
                "q", query
            )

        scalar = scalar_oracle(
            monkeypatch, jackhmmer, reference_scan_protein_shard, search
        )
        for plan in KERNEL_PLANS:
            batched = search(plan)
            assert batched.hits == scalar.hits, plan
            assert batched.stats == scalar.stats, plan
            assert batched.gumbel == scalar.gumbel, plan

    def test_nhmmer_batched_equals_scalar_for_every_plan(self, monkeypatch):
        query, db = _rna_case()

        def search(plan=ExecutionPlan.serial()):
            return NhmmerSearch(db, seed=6, plan=plan).search("rna", query)

        scalar = scalar_oracle(
            monkeypatch, jackhmmer, reference_scan_rna_shard, search
        )
        for plan in KERNEL_PLANS:
            batched = search(plan)
            assert batched.hits == scalar.hits, plan
            assert batched.stats == scalar.stats, plan
            assert batched.scan_waste == scalar.scan_waste, plan

    def test_database_encoding_is_shared_across_searches(self):
        query, db, *_ = _shard_case(seed=5)
        config = SearchConfig(iterations=1)
        first = JackhmmerSearch(db, config, seed=5).search("q", query)
        encoded = db.encoded_records
        again = JackhmmerSearch(db, config, seed=5).search("q", query)
        assert db.encoded_records is encoded
        assert again.hits == first.hits
        assert again.stats == first.stats


# ---------------------------------------------------------------------------
# Per-bucket padded-token waste: measured, not assumed
# ---------------------------------------------------------------------------


class TestScanWaste:
    def test_pad_waste_hand_checked(self):
        # 3 -> width 4 (waste 1), 5 and 7 -> width 8 (waste 3 + 1).
        assert pad_waste([3, 5, 7]) == ((4, 1, 3), (8, 2, 12))

    def test_batch_token_properties(self):
        encs = encode_random([3, 5, 7], seed=0)
        by_width = {b.padded_len: b for b in batch_targets(encs)}
        assert by_width[4].real_tokens == 3
        assert by_width[4].padded_tokens == 4
        assert by_width[8].real_tokens == 12
        assert by_width[8].padded_tokens == 16

    def test_cascade_measures_what_pad_waste_predicts(self):
        """The batched cascade's measured accounting equals the pure
        length-derived accounting the reference loop reports."""
        _, db, profile, gumbel, targets = _shard_case(seed=2)
        bounds = shard_bounds(len(targets), 3)
        outcomes = run_cascade(
            profile, gumbel,
            [
                (k, db.spec.num_sequences,
                 [(name, seq, [enc]) for name, seq, enc in targets[lo:hi]])
                for k, (lo, hi) in enumerate(bounds)
            ],
            SearchConfig(iterations=1).gates,
        )
        assert [outcome.pad_waste for outcome in outcomes] == [
            pad_waste([len(enc) for _, _, enc in targets[lo:hi]])
            for lo, hi in bounds
        ]

    def test_rna_scan_counts_every_window(self):
        query, db = _rna_case()
        result = NhmmerSearch(db, seed=6).search("rna", query)
        windows = [
            hi - lo
            for _, seq in db.records
            for lo, hi in window_bounds(len(seq), SCAN_WINDOW)
        ]
        assert len(windows) > len(db.records)
        assert result.scan_waste == scan_waste_summary(pad_waste(windows))

    def test_scan_waste_summary_merges_shards(self):
        summary = scan_waste_summary([(8, 2, 12), (8, 1, 5), (4, 1, 3)])
        assert summary["targets"] == 4
        assert summary["real_tokens"] == 20
        assert summary["padded_tokens"] == 28
        assert summary["waste_tokens"] == 8
        assert list(summary["per_bucket"]) == ["4", "8"]
        assert summary["per_bucket"]["8"]["targets"] == 3

    def test_search_scan_waste_identical_across_kernels(self, monkeypatch):
        query, db, *_ = _shard_case(seed=1)

        def search():
            return JackhmmerSearch(
                db, SearchConfig(iterations=2), seed=1
            ).search("q", query)

        scalar = scalar_oracle(
            monkeypatch, jackhmmer, reference_scan_protein_shard, search
        )
        batched = search()
        assert scalar.scan_waste == batched.scan_waste
        summary = batched.scan_waste
        # Two iterations scan the full database twice.
        assert summary["targets"] == 2 * len(db.records)
        # Power-of-two padding bounds per-target overhead under 2x.
        assert 0 < summary["waste_pct"] < 50.0
