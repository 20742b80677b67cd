"""E-value statistics for profile search scores.

HMMER converts bit scores to E-values using an extreme-value (Gumbel)
distribution whose parameters it calibrates per profile.  We do the
same: score a panel of background-random sequences, fit Gumbel
parameters by the method of moments, and report
``E = db_size * P(score >= s)``.

Calibration is deterministic (seeded) so the same profile always yields
the same thresholds, and :func:`calibrate` computes each fit once per
process: a search runs one query against several databases, and every
one of those searches calibrates the same profile with the same seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import threading
from collections import OrderedDict
from typing import List, Tuple

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

#: Bound of the :func:`calibrate` memo.  An entry is one key tuple and
#: one :class:`GumbelParams` (well under 1 KB); a ``repro run`` target
#: adds one per chain plus one per jackhmmer re-estimation.
CALIBRATION_MEMO_ENTRIES = 256


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


#: ``_calibration_key -> GumbelParams``, oldest first.
_CALIBRATION_MEMO: "OrderedDict[Tuple, GumbelParams]" = OrderedDict()
_CALIBRATION_MEMO_LOCK = threading.Lock()


def _calibration_key(profile: ProfileHMM, samples: int, seed: int) -> Tuple:
    """Everything :func:`calibrate` reads, as plain values.

    The profile enters only through its molecule type, its transition
    scores and the shape and sha256 of its match scores, so the key
    holds no profile (nor any function) and two profiles with equal
    scores share one fit.  Transition scores are hashed as bytes, so
    ``-0.0`` and ``0.0`` stay distinct.
    """
    scores = np.ascontiguousarray(profile.match_scores, dtype=np.float64)
    digest = hashlib.sha256(scores.tobytes())
    digest.update(
        np.array(dataclasses.astuple(profile.transitions)).tobytes()
    )
    return (profile.molecule_type, samples, seed, scores.shape,
            digest.hexdigest())


def calibrate(
    profile: ProfileHMM,
    samples: int = DEFAULT_CALIBRATION_SAMPLES,
    seed: int = 0,
) -> GumbelParams:
    """Fit Gumbel parameters by scoring random background sequences.

    Every panel sequence has the same length, so the panel is a single
    full bucket for the batched Viterbi kernel and is scored in one
    call.  :func:`reference_calibrate` is its per-sequence oracle.

    The fit is a pure function of :func:`_calibration_key`, so the
    frozen result is memoised per process (at most
    :data:`CALIBRATION_MEMO_ENTRIES`, evicting the oldest).
    """
    key = _calibration_key(profile, samples, seed)
    with _CALIBRATION_MEMO_LOCK:
        gumbel = _CALIBRATION_MEMO.get(key)
    if gumbel is not None:
        return gumbel
    panel = _calibration_panel(profile, samples, seed)
    gumbel = _fit_gumbel(viterbi_panel_scores(profile, panel))
    with _CALIBRATION_MEMO_LOCK:
        _CALIBRATION_MEMO[key] = gumbel
        while len(_CALIBRATION_MEMO) > CALIBRATION_MEMO_ENTRIES:
            _CALIBRATION_MEMO.popitem(last=False)
    return gumbel


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
