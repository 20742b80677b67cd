"""E-value statistics tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msa import evalue
from repro.msa.evalue import (
    CALIBRATION_MEMO_ENTRIES,
    EULER_GAMMA,
    GumbelParams,
    calibrate,
    reference_calibrate,
)
from repro.msa.profile_hmm import ProfileHMM, Transitions, encode_sequence
from repro.msa.dp import calc_band_9
from repro.sequences.alphabets import MoleculeType
from repro.sequences.generator import mutate_sequence, random_sequence


class TestGumbelParams:
    def test_survival_monotone_decreasing(self):
        g = GumbelParams(mu=10.0, lam=0.7)
        scores = [0.0, 5.0, 10.0, 20.0, 40.0]
        survivals = [g.survival(s) for s in scores]
        assert survivals == sorted(survivals, reverse=True)

    def test_survival_bounds(self):
        g = GumbelParams(mu=10.0, lam=0.7)
        assert 0.0 <= g.survival(100.0) <= g.survival(-100.0) <= 1.0

    def test_evalue_scales_with_db_size(self):
        g = GumbelParams(mu=10.0, lam=0.7)
        assert g.evalue(20.0, 2_000) == pytest.approx(2 * g.evalue(20.0, 1_000))

    def test_score_for_evalue_inverts(self):
        g = GumbelParams(mu=10.0, lam=0.7)
        score = g.score_for_evalue(1e-3, 1_000_000)
        assert g.evalue(score, 1_000_000) == pytest.approx(1e-3, rel=1e-6)

    def test_deep_tail_is_exponential(self):
        g = GumbelParams(mu=0.0, lam=1.0)
        # For large x, P(S>=s) ~ exp(-x).
        assert g.survival(40.0) == pytest.approx(math.exp(-40.0), rel=1e-9)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            GumbelParams(mu=0.0, lam=0.0)

    def test_invalid_evalue_inputs(self):
        g = GumbelParams(mu=0.0, lam=1.0)
        with pytest.raises(ValueError):
            g.evalue(1.0, -5)
        with pytest.raises(ValueError):
            g.score_for_evalue(0.0, 100)


class TestCalibration:
    def test_deterministic(self):
        prof = ProfileHMM.from_query(random_sequence(40, seed=1),
                                     MoleculeType.PROTEIN)
        a = calibrate(prof, seed=3)
        b = calibrate(prof, seed=3)
        assert a.mu == b.mu and a.lam == b.lam

    def test_homolog_gets_tiny_evalue(self):
        query = random_sequence(60, seed=5)
        prof = ProfileHMM.from_query(query, MoleculeType.PROTEIN)
        g = calibrate(prof, seed=5)
        hom = encode_sequence(
            mutate_sequence(query, MoleculeType.PROTEIN, 0.8, seed=6),
            MoleculeType.PROTEIN,
        )
        score = calc_band_9(prof, hom, band=64).score
        assert g.evalue(score, 150_000_000) < 1e-6

    def test_random_target_gets_large_evalue(self):
        query = random_sequence(60, seed=7)
        prof = ProfileHMM.from_query(query, MoleculeType.PROTEIN)
        g = calibrate(prof, seed=7)
        rand = encode_sequence(random_sequence(60, seed=99),
                               MoleculeType.PROTEIN)
        score = calc_band_9(prof, rand, band=64).score
        assert g.evalue(score, 150_000_000) > 1.0

    def test_too_few_samples_rejected(self):
        prof = ProfileHMM.from_query("MKT", MoleculeType.PROTEIN)
        for fit in (calibrate, reference_calibrate):
            for samples in (0, 2, 3):
                with pytest.raises(ValueError):
                    fit(prof, samples=samples)

    def test_method_of_moments_recovers_known_gumbel(self):
        # Sanity on the estimator itself: scores drawn from a Gumbel
        # should recover (mu, lambda) approximately.
        import numpy as np

        rng = np.random.default_rng(0)
        mu, lam = 12.0, 0.8
        draws = mu + rng.gumbel(0.0, 1.0 / lam, size=4000)
        std = draws.std(ddof=1)
        lam_est = math.pi / (std * math.sqrt(6))
        mu_est = draws.mean() - EULER_GAMMA / lam_est
        assert lam_est == pytest.approx(lam, rel=0.1)
        assert mu_est == pytest.approx(mu, rel=0.05)


def _profile(mtype: MoleculeType, length: int, seed: int) -> ProfileHMM:
    return ProfileHMM.from_query(
        random_sequence(length, mtype, seed=seed), mtype
    )


class TestCalibrationOracle:
    """The batched panel fit equals the per-sequence scalar loop: ``==``
    on the whole :class:`GumbelParams`, never ``approx``.  Each case
    empties the memo first, so the kernel fits rather than recalls."""

    @pytest.mark.parametrize("mtype", [MoleculeType.PROTEIN, MoleculeType.RNA])
    @pytest.mark.parametrize("length,samples", [(3, 4), (3, 40), (300, 4),
                                                (300, 40)])
    def test_extremes(self, mtype, length, samples):
        evalue._CALIBRATION_MEMO.clear()  # fit, not recall
        prof = _profile(mtype, length, seed=length + samples)
        assert calibrate(prof, samples=samples, seed=11) == (
            reference_calibrate(prof, samples=samples, seed=11)
        )

    @settings(max_examples=12, deadline=None)
    @given(
        mtype=st.sampled_from([MoleculeType.PROTEIN, MoleculeType.RNA]),
        length=st.integers(3, 300),
        samples=st.integers(4, 40),
        seed=st.integers(0, 10_000),
    )
    def test_batched_equals_scalar(self, mtype, length, samples, seed):
        evalue._CALIBRATION_MEMO.clear()
        prof = _profile(mtype, length, seed=seed)
        assert calibrate(prof, samples=samples, seed=seed) == (
            reference_calibrate(prof, samples=samples, seed=seed)
        )


@pytest.fixture
def cleared_memo():
    """The calibration memo, emptied before and after the test."""
    evalue._CALIBRATION_MEMO.clear()
    yield evalue._CALIBRATION_MEMO
    evalue._CALIBRATION_MEMO.clear()


def _counting_panel_scorer(monkeypatch):
    """Count the panel scorings :func:`calibrate` runs (its misses)."""
    calls = []
    scorer = evalue.viterbi_panel_scores

    def counted(profile, panel):
        calls.append(profile.name)
        return scorer(profile, panel)

    monkeypatch.setattr(evalue, "viterbi_panel_scores", counted)
    return calls


class TestCalibrationMemo:
    """:func:`calibrate` fits each (profile, panel) once per process."""

    @pytest.mark.parametrize("mtype", [MoleculeType.PROTEIN, MoleculeType.RNA])
    def test_cleared_memo_equals_oracle(self, cleared_memo, mtype):
        prof = _profile(mtype, 57, seed=4)
        fresh = calibrate(prof, seed=9)
        assert fresh == reference_calibrate(prof, seed=9)
        assert len(cleared_memo) == 1
        assert calibrate(prof, seed=9) is fresh

    def test_equal_scores_share_one_fit(self, cleared_memo, monkeypatch):
        calls = _counting_panel_scorer(monkeypatch)
        query = random_sequence(80, seed=2)
        for name in ("uniref90", "mgnify", "small_bfd"):
            calibrate(ProfileHMM.from_query(query, MoleculeType.PROTEIN,
                                            name=name))
        assert calls == ["uniref90"]

    def test_every_input_is_in_the_key(self, cleared_memo, monkeypatch):
        calls = _counting_panel_scorer(monkeypatch)
        base = _profile(MoleculeType.PROTEIN, 40, seed=1)
        scores = base.match_scores.copy()
        scores[7, 3] = np.nextafter(scores[7, 3], np.inf)
        slower = dataclasses.replace(
            base.transitions, ii=base.transitions.ii - 0.5
        )
        rna = _profile(MoleculeType.RNA, 40, seed=1)
        rna_as_dna = ProfileHMM(rna.match_scores, MoleculeType.DNA)
        variants = [
            (base, 40, 0),
            (base, 40, 1),                     # seed
            (base, 39, 0),                     # samples
            (ProfileHMM(base.match_scores, MoleculeType.PROTEIN,
                        slower), 40, 0),       # transitions
            (ProfileHMM(scores, MoleculeType.PROTEIN), 40, 0),  # one score
            (rna, 40, 0),
            (rna_as_dna, 40, 0),               # molecule type
        ]
        fits = [calibrate(prof, samples=n, seed=seed)
                for prof, n, seed in variants]
        assert len(calls) == len(variants)
        assert len(cleared_memo) == len(variants)
        for (prof, n, seed), fit in zip(variants, fits):
            assert fit == reference_calibrate(prof, samples=n, seed=seed)
        # Asking again is a hit for every one of them.
        for prof, n, seed in variants:
            calibrate(prof, samples=n, seed=seed)
        assert len(calls) == len(variants)

    def test_transition_sign_of_zero_is_in_the_key(self, cleared_memo):
        base = Transitions.default()
        pos = ProfileHMM(np.zeros((5, 20)), MoleculeType.PROTEIN,
                         dataclasses.replace(base, mm=0.0))
        neg = ProfileHMM(np.zeros((5, 20)), MoleculeType.PROTEIN,
                         dataclasses.replace(base, mm=-0.0))
        assert (evalue._calibration_key(pos, 40, 0)
                != evalue._calibration_key(neg, 40, 0))

    def test_memo_is_capped_oldest_first(self, cleared_memo, monkeypatch):
        calls = _counting_panel_scorer(monkeypatch)
        prof = _profile(MoleculeType.RNA, 3, seed=0)
        for seed in range(CALIBRATION_MEMO_ENTRIES + 5):
            calibrate(prof, samples=4, seed=seed)
            assert len(cleared_memo) <= CALIBRATION_MEMO_ENTRIES
        assert len(cleared_memo) == CALIBRATION_MEMO_ENTRIES
        misses = len(calls)
        calibrate(prof, samples=4, seed=CALIBRATION_MEMO_ENTRIES + 4)
        assert len(calls) == misses          # newest: still held
        calibrate(prof, samples=4, seed=0)
        assert len(calls) == misses + 1      # oldest: evicted

    def test_memo_holds_only_plain_values(self, cleared_memo):
        calibrate(_profile(MoleculeType.PROTEIN, 30, seed=3), seed=2)
        ((key, fit),) = cleared_memo.items()
        assert isinstance(fit, GumbelParams)

        def leaves(value):
            if isinstance(value, tuple):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for leaf in leaves(key):
            assert not isinstance(leaf, ProfileHMM)
            assert not callable(leaf)
            assert isinstance(leaf, (str, int, MoleculeType))

    def test_rejected_samples_are_not_memoised(self, cleared_memo):
        prof = ProfileHMM.from_query("MKT", MoleculeType.PROTEIN)
        with pytest.raises(ValueError):
            calibrate(prof, samples=3)
        assert not cleared_memo
