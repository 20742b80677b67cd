"""Unit tests for profile HMM construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa.profile_hmm import (
    ProfileHMM,
    Transitions,
    consensus,
    encode_sequence,
)
from repro.sequences.alphabets import (
    MoleculeType,
    alphabet_for,
    unknown_symbol_for,
)
from repro.sequences.generator import random_sequence

MOLECULES = [MoleculeType.PROTEIN, MoleculeType.DNA, MoleculeType.RNA]


def reference_encode(sequence, molecule_type):
    """The per-residue loop :func:`encode_sequence` vectorises."""
    index = {res: i for i, res in enumerate(alphabet_for(molecule_type))}
    unknown = unknown_symbol_for(molecule_type)
    out = []
    for ch in sequence:
        if ch == unknown:
            out.append(-1)
        elif ch in index:
            out.append(index[ch])
        else:
            raise ValueError(
                f"residue {ch!r} not in {molecule_type.value} alphabet"
            )
    return out


class TestEncodeSequence:
    def test_roundtrip_indices(self):
        seq = "ACDE"
        enc = encode_sequence(seq, MoleculeType.PROTEIN)
        assert enc.tolist() == [0, 1, 2, 3]

    def test_wildcard_is_minus_one(self):
        enc = encode_sequence("AXA", MoleculeType.PROTEIN)
        assert enc.tolist() == [0, -1, 0]

    def test_invalid_residue(self):
        with pytest.raises(ValueError):
            encode_sequence("AZ1", MoleculeType.PROTEIN)

    @settings(max_examples=150, deadline=None)
    @given(
        molecule_type=st.sampled_from(MOLECULES),
        data=st.data(),
    )
    def test_equals_the_per_residue_loop(self, molecule_type, data):
        symbols = alphabet_for(molecule_type) + (
            unknown_symbol_for(molecule_type),
        )
        sequence = data.draw(st.text(alphabet=st.sampled_from(symbols),
                                     max_size=300))
        enc = encode_sequence(sequence, molecule_type)
        assert enc.dtype == np.int64
        assert enc.tolist() == reference_encode(sequence, molecule_type)

    @settings(max_examples=150, deadline=None)
    @given(molecule_type=st.sampled_from(MOLECULES), sequence=st.text())
    def test_first_bad_residue_is_reported(self, molecule_type, sequence):
        try:
            expected = reference_encode(sequence, molecule_type)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                encode_sequence(sequence, molecule_type)
            assert str(raised.value) == str(error)
        else:
            assert encode_sequence(sequence, molecule_type).tolist() == (
                expected
            )


class TestTransitions:
    def test_defaults_are_log_probabilities(self):
        t = Transitions.default()
        # All log2 of probabilities < 1 -> negative.
        for field in ("mm", "mi", "md", "im", "ii", "dm", "dd"):
            assert getattr(t, field) < 0

    def test_match_outgoing_sums_to_one(self):
        t = Transitions.default()
        total = 2.0 ** t.mm + 2.0 ** t.mi + 2.0 ** t.md
        assert abs(total - 1.0) < 1e-9


class TestFromQuery:
    def test_shape(self):
        prof = ProfileHMM.from_query("MKTAYIAK", MoleculeType.PROTEIN)
        assert prof.length == 8
        assert prof.alphabet_size == 20

    def test_query_residue_scores_highest(self):
        prof = ProfileHMM.from_query("MKTAYIAK", MoleculeType.PROTEIN)
        assert consensus(prof) == "MKTAYIAK"

    def test_match_score_positive_for_query_residue(self):
        prof = ProfileHMM.from_query("M", MoleculeType.PROTEIN)
        enc = encode_sequence("M", MoleculeType.PROTEIN)
        assert prof.emission_row(enc)[0, 0] > 0

    def test_wildcard_column_is_neutral(self):
        prof = ProfileHMM.from_query("X", MoleculeType.PROTEIN)
        assert np.allclose(prof.match_scores[0], 0.0, atol=1e-9)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            ProfileHMM.from_query("MK", MoleculeType.PROTEIN, smoothing=0.0)

    def test_rna_profile(self):
        prof = ProfileHMM.from_query("ACGU", MoleculeType.RNA)
        assert prof.alphabet_size == 4


class TestFromAlignment:
    def test_conserved_column_scores_high(self):
        rows = ["MKT", "MKT", "MAT"]
        prof = ProfileHMM.from_alignment(rows, MoleculeType.PROTEIN)
        assert prof.length == 3
        m_score = prof.match_scores[0, 10]  # 'M' is index 10
        assert m_score > 0

    def test_gap_columns_fall_back_to_background(self):
        prof = ProfileHMM.from_alignment(["-K", "-K"], MoleculeType.PROTEIN)
        assert np.allclose(prof.match_scores[0], 0.0, atol=1e-9)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ProfileHMM.from_alignment(["MK", "MKT"], MoleculeType.PROTEIN)

    def test_empty_alignment_rejected(self):
        with pytest.raises(ValueError):
            ProfileHMM.from_alignment([], MoleculeType.PROTEIN)


class TestEmissionRow:
    def test_shape(self):
        prof = ProfileHMM.from_query("MKTAY", MoleculeType.PROTEIN)
        seq = encode_sequence(random_sequence(30, seed=1), MoleculeType.PROTEIN)
        assert prof.emission_row(seq).shape == (5, 30)

    def test_wildcard_positions_score_zero(self):
        prof = ProfileHMM.from_query("MKTAY", MoleculeType.PROTEIN)
        enc = encode_sequence("MXK", MoleculeType.PROTEIN)
        mat = prof.emission_row(enc)
        assert np.allclose(mat[:, 1], 0.0)

    def test_nbytes_positive(self):
        prof = ProfileHMM.from_query("MKT", MoleculeType.PROTEIN)
        assert prof.nbytes == 3 * 20 * 8
