"""E-value statistics for profile search scores.

HMMER converts bit scores to E-values using an extreme-value (Gumbel)
distribution whose parameters it calibrates per profile.  We do the
same: score a panel of background-random sequences, fit Gumbel
parameters by the method of moments, and report
``E = db_size * P(score >= s)``.

Calibration is deterministic (seeded) so the same profile always yields
the same thresholds.  :func:`repro.msa.jackhmmer.search_databases`
calibrates a query once for all of its databases, so nothing here
keeps fits between calls.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import numpy as np

from ..sequences.generator import random_sequence
from .dp import calc_band_9
from .kernels.batched import viterbi_panel_scores
from .profile_hmm import ProfileHMM, encode_sequence

#: Euler-Mascheroni constant, used in the method-of-moments Gumbel fit.
EULER_GAMMA = 0.5772156649015329

#: Number of random sequences scored during calibration.  HMMER uses
#: hundreds; 40 keeps calibration cheap while pinning the location
#: parameter to well under a bit of error for our smoothed profiles.
DEFAULT_CALIBRATION_SAMPLES = 40


@dataclasses.dataclass(frozen=True)
class GumbelParams:
    """Location/scale of the null score distribution (log2-odds bits)."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    def survival(self, score: float) -> float:
        """P(S >= score) under the Gumbel null."""
        x = self.lam * (score - self.mu)
        # P(S >= s) = 1 - exp(-exp(-x)); stable tail for large x.
        if x > 30:
            return math.exp(-x)
        return 1.0 - math.exp(-math.exp(-x))

    def evalue(self, score: float, db_size: int) -> float:
        """Expected chance hits at or above ``score`` in ``db_size`` targets."""
        if db_size < 0:
            raise ValueError("db_size must be >= 0")
        return db_size * self.survival(score)

    def score_for_evalue(self, evalue: float, db_size: int) -> float:
        """Bit score at which the E-value equals ``evalue``."""
        if evalue <= 0 or db_size <= 0:
            raise ValueError("evalue and db_size must be positive")
        p = min(1.0, evalue / db_size)
        if p >= 1.0:
            return self.mu  # everything passes
        # invert P = 1 - exp(-exp(-x))
        x = -math.log(-math.log(1.0 - p))
        return self.mu + x / self.lam


def _calibration_panel(
    profile: ProfileHMM, samples: int, seed: int
) -> List[np.ndarray]:
    """The seeded background panel: ``samples`` random sequences of
    one length, encoded for ``profile``."""
    if samples < 4:
        raise ValueError("need at least 4 calibration samples")
    length = max(32, profile.length)
    return [
        encode_sequence(
            random_sequence(
                length, profile.molecule_type, seed=seed + 31 * (i + 1)
            ),
            profile.molecule_type,
        )
        for i in range(samples)
    ]


def _fit_gumbel(scores: np.ndarray) -> GumbelParams:
    """Method of moments: ``lambda = pi / (std * sqrt(6))`` and
    ``mu = mean - gamma / lambda``."""
    std = float(scores.std(ddof=1))
    if std < 1e-9:
        std = 1e-9
    lam = math.pi / (std * math.sqrt(6.0))
    mu = float(scores.mean()) - EULER_GAMMA / lam
    return GumbelParams(mu=mu, lam=lam)


def calibrate(
    profile: ProfileHMM,
    samples: int = DEFAULT_CALIBRATION_SAMPLES,
    seed: int = 0,
) -> GumbelParams:
    """Fit Gumbel parameters by scoring random background sequences.

    Every panel sequence has the same length, so the panel is a single
    full bucket for the batched Viterbi kernel and is scored in one
    call.  :func:`reference_calibrate` is its per-sequence oracle.
    """
    panel = _calibration_panel(profile, samples, seed)
    return _fit_gumbel(viterbi_panel_scores(profile, panel))


def reference_calibrate(
    profile: ProfileHMM,
    samples: int = DEFAULT_CALIBRATION_SAMPLES,
    seed: int = 0,
) -> GumbelParams:
    """:func:`calibrate` with the panel scored one sequence at a time
    by the scalar :func:`~repro.msa.dp.calc_band_9` (the test oracle;
    the batched scores are bit-identical, so the fit is too)."""
    panel = _calibration_panel(profile, samples, seed)
    return _fit_gumbel(
        np.array([calc_band_9(profile, enc).score for enc in panel])
    )
