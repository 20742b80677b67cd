"""Unit tests for sequence-complexity analysis (promo's poly-Q driver)."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences.complexity import (
    LOW_COMPLEXITY_ENTROPY,
    ComplexityProfile,
    longest_run,
    low_complexity_mask,
    profile_sequence,
    shannon_entropy,
    windowed_entropy,
)
from repro.sequences.generator import insert_poly_run, random_sequence


class TestShannonEntropy:
    def test_empty(self):
        assert shannon_entropy("") == 0.0

    def test_homopolymer_is_zero(self):
        assert shannon_entropy("QQQQQQ") == 0.0

    def test_uniform_two_symbols_is_one_bit(self):
        assert abs(shannon_entropy("ABAB") - 1.0) < 1e-12

    def test_random_protein_near_max(self):
        seq = random_sequence(5000, seed=3)
        # 20-letter background entropy is ~4.19 bits.
        assert 3.9 < shannon_entropy(seq) < math.log2(20) + 0.01


class TestWindowedEntropy:
    def test_short_sequence_single_window(self):
        assert len(windowed_entropy("ABC", window=12)) == 1

    def test_window_count(self):
        seq = random_sequence(100, seed=1)
        assert len(windowed_entropy(seq, window=12)) == 100 - 12 + 1

    def test_incremental_matches_direct(self):
        seq = random_sequence(60, seed=2)
        window = 10
        ents = windowed_entropy(seq, window)
        for i in (0, 13, 50):
            assert abs(ents[i] - shannon_entropy(seq[i:i + window])) < 1e-9


class TestLongestRun:
    def test_empty(self):
        assert longest_run("") == ("", 0)

    def test_single_char(self):
        assert longest_run("A") == ("A", 1)

    def test_finds_run(self):
        assert longest_run("ABQQQQC") == ("Q", 4)

    def test_run_at_end(self):
        assert longest_run("ABCDDD") == ("D", 3)


class TestLowComplexityMask:
    def test_polyq_masked(self):
        seq = insert_poly_run(random_sequence(100, seed=5), "Q", 30, position=30)
        mask = low_complexity_mask(seq)
        assert all(mask[35:55])  # core of the run is masked

    def test_random_mostly_unmasked(self):
        mask = low_complexity_mask(random_sequence(200, seed=9))
        assert sum(mask) / len(mask) < 0.15

    def test_empty(self):
        assert low_complexity_mask("") == []


class TestComplexityProfile:
    def test_promo_like_sequence_is_low_complexity(self):
        seq = insert_poly_run(random_sequence(400, seed=4), "Q", 48, position=120)
        prof = profile_sequence(seq)
        assert prof.is_low_complexity
        assert prof.longest_run_residue == "Q"
        assert prof.longest_run_length >= 48

    def test_random_sequence_is_not(self):
        prof = profile_sequence(random_sequence(400, seed=6))
        assert not prof.is_low_complexity

    def test_inflation_monotone_in_masked_fraction(self):
        base = random_sequence(400, seed=8)
        factors = []
        for run in (0, 20, 40, 80):
            seq = insert_poly_run(base, "Q", run, position=100) if run else base
            factors.append(profile_sequence(seq).hit_inflation_factor)
        assert factors == sorted(factors)
        assert factors[0] >= 1.0

    def test_inflation_bounded(self):
        prof = profile_sequence("Q" * 500)
        assert prof.hit_inflation_factor <= 4.0

    def test_promo_inflation_near_calibration_target(self):
        # The promo sample's chain A is calibrated to inflate gapped
        # work ~2.5x (DESIGN.md section 4).
        seq = insert_poly_run(random_sequence(403, seed=20250705 + 31),
                              "Q", 48, position=120)
        prof = profile_sequence(seq)
        assert 2.0 < prof.hit_inflation_factor < 3.2


def loop_windowed_entropy(sequence, window):
    """The per-window entropy loop the table lookup replaced."""
    n = len(sequence)
    if n == 0:
        return []
    if n <= window:
        return [shannon_entropy(sequence)]
    counts = Counter(sequence[:window])
    out = []

    def entropy_of(counter):
        return -sum(
            (c / window) * math.log2(c / window) for c in counter.values() if c
        )

    out.append(entropy_of(counts))
    for i in range(window, n):
        counts[sequence[i]] += 1
        left = sequence[i - window]
        counts[left] -= 1
        if not counts[left]:
            del counts[left]
        out.append(entropy_of(counts))
    return out


def loop_mask(sequence, window, threshold=LOW_COMPLEXITY_ENTROPY):
    """The per-residue mask loop, over freshly computed entropies."""
    n = len(sequence)
    mask = [False] * n
    if n == 0:
        return mask
    entropies = loop_windowed_entropy(sequence, window)
    if n <= window:
        if entropies[0] < threshold:
            return [True] * n
        return mask
    for start, ent in enumerate(entropies):
        if ent < threshold:
            for i in range(start, min(start + window, n)):
                mask[i] = True
    return mask


class TestOnePassEqualsLoops:
    """Entropies, mask and profile equal the former loops with ``==``."""

    @given(
        sequence=st.text(alphabet=st.sampled_from("ACDEFGHIKLMNPQRSTVWY"),
                         max_size=200)
        | st.text(alphabet=st.sampled_from("AQ"), max_size=200),
        window=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_entropies_mask_and_profile(self, sequence, window):
        entropies = loop_windowed_entropy(sequence, window)
        mask = loop_mask(sequence, window)
        assert windowed_entropy(sequence, window) == entropies
        assert low_complexity_mask(sequence, window) == mask
        assert profile_sequence(sequence, window) == ComplexityProfile(
            length=len(sequence),
            entropy=shannon_entropy(sequence),
            min_window_entropy=min(entropies) if entropies else 0.0,
            low_complexity_fraction=sum(mask) / len(mask) if mask else 0.0,
            longest_run_residue=longest_run(sequence)[0],
            longest_run_length=longest_run(sequence)[1],
        )
