"""Pairwise alignment and MSA assembly tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa.aligner import (
    ALIGN_CHUNK,
    Msa,
    PairwiseAlignment,
    align_many,
    assemble_msa,
    global_align,
    reference_global_align,
)
from repro.msa.jackhmmer import Hit
from repro.sequences.alphabets import (
    PROTEIN_ALPHABET,
    RNA_ALPHABET,
    MoleculeType,
)
from repro.sequences.generator import mutate_sequence, random_sequence


class TestGlobalAlign:
    def test_identical_sequences(self):
        a = global_align("MKTAYI", "MKTAYI")
        assert a.aligned_query == a.aligned_target == "MKTAYI"
        assert a.identity == 1.0

    def test_single_substitution(self):
        a = global_align("MKTAYI", "MKTCYI")
        assert "-" not in a.aligned_query
        assert a.identity == pytest.approx(5 / 6)

    def test_deletion_in_target(self):
        a = global_align("MKTAYI", "MKTYI")
        assert len(a.aligned_query) == 6
        assert a.aligned_target.count("-") == 1

    def test_insertion_in_target(self):
        a = global_align("MKTYI", "MKTAYI")
        assert a.aligned_query.count("-") == 1

    def test_alignment_lengths_equal(self):
        q = random_sequence(50, seed=1)
        t = mutate_sequence(q, MoleculeType.PROTEIN, 0.7, seed=2)
        a = global_align(q, t)
        assert len(a.aligned_query) == len(a.aligned_target)

    def test_gapless_projection_has_query_length(self):
        q = random_sequence(60, seed=3)
        t = mutate_sequence(q, MoleculeType.PROTEIN, 0.6, seed=4)
        a = global_align(q, t)
        assert len(a.target_row()) == len(q)

    def test_homolog_identity_tracks_mutation_rate(self):
        q = random_sequence(200, seed=5)
        close = global_align(q, mutate_sequence(q, MoleculeType.PROTEIN, 0.9,
                                                seed=6)).identity
        far = global_align(q, mutate_sequence(q, MoleculeType.PROTEIN, 0.4,
                                              seed=7)).identity
        assert close > far

    def test_empty_rejected(self):
        for align in (global_align, reference_global_align):
            for pair in (("", "MK"), ("MK", ""), ("", "")):
                with pytest.raises(ValueError):
                    align(*pair)

    def test_score_optimality_on_small_case(self):
        # Brute check: aligning "AC" to "AGC" should pay one gap, not
        # two mismatches: score = 2 + 2 - 2 = 2.
        a = global_align("AC", "AGC")
        assert a.score == pytest.approx(2.0)

    def test_mismatched_aligned_lengths_rejected(self):
        with pytest.raises(ValueError):
            PairwiseAlignment("AB-", "AB", 0.0)


def _words(alphabet, min_size, max_size):
    return st.text(alphabet=alphabet, min_size=min_size, max_size=max_size)


@st.composite
def _pairs(draw):
    """Query/target over one alphabet: 1-20 protein letters or RNA."""
    alphabet = draw(st.one_of(
        st.integers(min_value=1, max_value=20).map(
            lambda k: "".join(PROTEIN_ALPHABET[:k])
        ),
        st.just("".join(RNA_ALPHABET)),
    ))
    return (draw(_words(alphabet, 1, 40)), draw(_words(alphabet, 1, 40)))


@st.composite
def _skewed_pairs(draw):
    """Lengths differing up to 10x, so one side takes long gap runs."""
    alphabet = draw(st.sampled_from(["A", "AC", "ACGU"]))
    short = draw(_words(alphabet, 1, 8))
    long = draw(_words(alphabet, len(short), 10 * len(short)))
    return (short, long) if draw(st.booleans()) else (long, short)


class TestPrefixMaxEqualsReference:
    """``global_align`` equals the per-cell loop field for field (``==``)."""

    @given(pair=_pairs())
    @settings(max_examples=300, deadline=None)
    def test_random_pairs(self, pair):
        assert global_align(*pair) == reference_global_align(*pair)

    @given(pair=st.tuples(_words("AB", 1, 30), _words("AB", 1, 30)))
    @settings(max_examples=300, deadline=None)
    def test_tie_heavy_two_letter_pairs(self, pair):
        assert global_align(*pair) == reference_global_align(*pair)

    @given(pair=_skewed_pairs())
    @settings(max_examples=200, deadline=None)
    def test_lengths_differing_up_to_tenfold(self, pair):
        assert global_align(*pair) == reference_global_align(*pair)

    @given(
        residue=st.sampled_from(PROTEIN_ALPHABET + RNA_ALPHABET),
        other=_words("".join(PROTEIN_ALPHABET), 1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_one_residue_sides(self, residue, other):
        for pair in ((residue, other), (other, residue), (residue, residue)):
            assert global_align(*pair) == reference_global_align(*pair)

    def test_one_letter_alphabet_ties_everywhere(self):
        for n in range(1, 8):
            for m in range(1, 8):
                pair = ("A" * n, "A" * m)
                assert global_align(*pair) == reference_global_align(*pair)

    def test_homolog_of_chain_length(self):
        q = random_sequence(242, seed=3)
        t = mutate_sequence(q, MoleculeType.PROTEIN, 0.7, seed=4)
        assert global_align(q, t) == reference_global_align(q, t)


@st.composite
def _chains(draw):
    """A query and 1-20 hits of length 1-300, so batches span chunk
    boundaries: random words longer or shorter than the query, copies
    of the query, slices of it with a random tail, and words over
    letters the query never uses (every pair a mismatch)."""
    query = draw(_words("ACDE", 1, 300))
    hit = st.one_of(
        _words("ACDE", 1, 300),
        st.just(query),
        st.tuples(
            st.integers(min_value=0, max_value=len(query) - 1),
            _words("ACDE", 0, 40),
        ).map(lambda cut: query[cut[0]:] + cut[1]),
        _words("KLMN", 1, 300),
    )
    return query, draw(st.lists(hit, min_size=1, max_size=20))


class TestAlignManyEqualsReference:
    """Each of ``align_many``'s results equals the per-cell loop (``==``)."""

    @given(chain=_chains())
    @settings(max_examples=40, deadline=None)
    def test_chains_across_chunk_boundaries(self, chain):
        query, targets = chain
        assert align_many(query, targets) == [
            reference_global_align(query, target) for target in targets
        ]

    @pytest.mark.parametrize("hits", [
        1, ALIGN_CHUNK - 1, ALIGN_CHUNK, ALIGN_CHUNK + 1, 2 * ALIGN_CHUNK + 1,
    ])
    def test_identical_and_all_mismatch_hits(self, hits):
        query = "ACDE" * 5
        targets = [query if k % 2 else "KLMN" * (1 + k % 7)
                   for k in range(hits)]
        assert align_many(query, targets) == [
            reference_global_align(query, target) for target in targets
        ]

    def test_homolog_chain_of_seventeen_hits(self):
        q = random_sequence(219, seed=14)
        targets = [mutate_sequence(q, MoleculeType.PROTEIN, 0.6, seed=s)
                   for s in range(17)]
        assert align_many(q, targets) == [
            reference_global_align(q, t) for t in targets
        ]

    def test_no_targets(self):
        assert align_many("MKT", []) == []

    def test_empty_rejected(self):
        for query, targets in (("", ["MK"]), ("MK", ["MK", ""])):
            with pytest.raises(ValueError):
                align_many(query, targets)


class TestMsa:
    def make(self):
        return Msa(
            query_name="q",
            molecule_type=MoleculeType.PROTEIN,
            rows=("MKT", "MAT", "M-T"),
            row_names=("q", "h1", "h2"),
        )

    def test_depth_width(self):
        msa = self.make()
        assert msa.depth == 3
        assert msa.width == 3

    def test_column(self):
        assert self.make().column(1) == "KA-"

    def test_coverage(self):
        cov = self.make().coverage()
        assert cov[0] == pytest.approx(1.0)
        assert cov[1] == pytest.approx(2 / 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, ("MKT", "MK"), ("q", "h"))

    def test_names_must_align(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, ("MKT",), ("q", "extra"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Msa("q", MoleculeType.PROTEIN, tuple(), tuple())


class TestAssembleMsa:
    def test_query_is_first_row(self):
        q = random_sequence(40, seed=8)
        hits = [
            Hit(f"h{i}", mutate_sequence(q, MoleculeType.PROTEIN, 0.8,
                                         seed=9 + i), 50.0, 52.0, 1e-6)
            for i in range(4)
        ]
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, hits)
        assert msa.rows[0] == q
        assert msa.depth == 5
        assert all(len(r) == len(q) for r in msa.rows)

    def test_max_rows_respected(self):
        q = random_sequence(30, seed=10)
        hits = [
            Hit(f"h{i}", mutate_sequence(q, MoleculeType.PROTEIN, 0.8,
                                         seed=20 + i), 50.0, 52.0, 1e-6)
            for i in range(10)
        ]
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, hits, max_rows=4)
        assert msa.depth == 4

    @pytest.mark.parametrize("max_rows", [0, -1, -5])
    def test_max_rows_below_one_rejected(self, max_rows):
        q = random_sequence(20, seed=12)
        hits = [Hit("h0", q, 50.0, 52.0, 1e-6)]
        with pytest.raises(ValueError, match="max_rows"):
            assemble_msa("q", q, MoleculeType.PROTEIN, hits,
                         max_rows=max_rows)

    def test_max_rows_one_keeps_only_the_query(self):
        q = random_sequence(20, seed=13)
        hits = [Hit("h0", q, 50.0, 52.0, 1e-6)]
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, hits, max_rows=1)
        assert msa.rows == (q,)

    def test_no_hits_yields_query_only(self):
        q = random_sequence(30, seed=11)
        msa = assemble_msa("q", q, MoleculeType.PROTEIN, [])
        assert msa.depth == 1
