"""Unit tests for synthetic sequence generation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences.alphabets import MoleculeType, alphabet_for, background_for
from repro.sequences.generator import (
    FamilySpec,
    homologous_query,
    insert_poly_run,
    make_database_sequences,
    make_family,
    mutate_sequence,
    random_sequence,
)


class TestRandomSequence:
    def test_length(self):
        assert len(random_sequence(123, seed=1)) == 123

    def test_deterministic(self):
        assert random_sequence(50, seed=42) == random_sequence(50, seed=42)

    def test_seed_sensitivity(self):
        assert random_sequence(50, seed=1) != random_sequence(50, seed=2)

    def test_alphabet_respected(self):
        for mtype in (MoleculeType.PROTEIN, MoleculeType.DNA, MoleculeType.RNA):
            seq = random_sequence(300, mtype, seed=3)
            assert set(seq) <= set(alphabet_for(mtype))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(-1)

    @staticmethod
    def reference(length, molecule_type, seed):
        """The per-residue ``random.choices`` draw the vectorised
        :func:`random_sequence` reproduces."""
        background = background_for(molecule_type)
        residues = list(background)
        weights = [background[r] for r in residues]
        rng = random.Random(seed)
        return "".join(rng.choices(residues, weights=weights, k=length))

    @settings(max_examples=200, deadline=None)
    @given(
        length=st.integers(0, 400),
        molecule_type=st.sampled_from(
            [MoleculeType.PROTEIN, MoleculeType.DNA, MoleculeType.RNA]
        ),
        seed=st.integers(-(2 ** 40), 2 ** 40),
    )
    def test_equals_random_choices(self, length, molecule_type, seed):
        assert random_sequence(length, molecule_type, seed=seed) == (
            self.reference(length, molecule_type, seed)
        )


class TestInsertPolyRun:
    def test_length_preserved(self):
        seq = random_sequence(100, seed=1)
        out = insert_poly_run(seq, "Q", 20, position=10)
        assert len(out) == 100
        assert out[10:30] == "Q" * 20

    def test_zero_run_is_noop(self):
        seq = random_sequence(50, seed=1)
        assert insert_poly_run(seq, "Q", 0) == seq

    def test_run_too_long_rejected(self):
        with pytest.raises(ValueError):
            insert_poly_run("AAAA", "Q", 5)

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError):
            insert_poly_run("A" * 10, "Q", 5, position=8)


class TestMutateSequence:
    def test_high_identity_mostly_preserved(self):
        seq = random_sequence(300, seed=1)
        mut = mutate_sequence(seq, MoleculeType.PROTEIN, 0.95, seed=2,
                              indel_rate=0.0)
        matches = sum(a == b for a, b in zip(seq, mut))
        assert matches / len(seq) > 0.88

    def test_zero_identity_mostly_changed(self):
        seq = random_sequence(300, seed=1)
        mut = mutate_sequence(seq, MoleculeType.PROTEIN, 0.0, seed=2,
                              indel_rate=0.0)
        matches = sum(a == b for a, b in zip(seq, mut))
        # Random replacement still matches ~1/20 by chance.
        assert matches / len(seq) < 0.15

    def test_invalid_identity(self):
        with pytest.raises(ValueError):
            mutate_sequence("MKT", MoleculeType.PROTEIN, 1.5)

    def test_deterministic(self):
        seq = random_sequence(100, seed=1)
        assert mutate_sequence(seq, MoleculeType.PROTEIN, 0.7, seed=5) == (
            mutate_sequence(seq, MoleculeType.PROTEIN, 0.7, seed=5)
        )


class TestDatabase:
    def test_family_members(self):
        seed_seq, members = make_family(
            FamilySpec(seed_length=100, members=5), MoleculeType.PROTEIN, seed=1
        )
        assert len(seed_seq) == 100
        assert len(members) == 5

    def test_database_record_count(self):
        records = make_database_sequences(
            10, [FamilySpec(80, 4), FamilySpec(90, 3)], seed=1
        )
        assert len(records) == 17

    def test_database_names_unique(self):
        records = make_database_sequences(20, [FamilySpec(80, 5)], seed=2)
        names = [n for n, _ in records]
        assert len(set(names)) == len(names)

    def test_homologous_query_resembles_family(self):
        records = make_database_sequences(5, [FamilySpec(120, 6)], seed=3)
        query = homologous_query(records, 0, seed=4)
        assert len(query) > 60

    def test_homologous_query_missing_family(self):
        records = make_database_sequences(5, [], seed=3)
        with pytest.raises(ValueError):
            homologous_query(records, 0)

    def test_invalid_length_range(self):
        with pytest.raises(ValueError):
            make_database_sequences(5, [], length_range=(100, 50))
