"""Output heads: distogram and confidence (pLDDT / PAE)."""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .config import ModelConfig
from .ops import OpCounter, init_linear, linear, relu, softmax

NUM_DISTOGRAM_BINS = 64
NUM_PLDDT_BINS = 50
NUM_PAE_BINS = 64


@dataclasses.dataclass(frozen=True)
class Confidence:
    """Per-token and per-pair confidence estimates."""

    plddt: np.ndarray        # (N,) in [0, 100]
    pae: np.ndarray          # (N, N) expected position error, Angstroms
    ptm: float               # predicted TM-score proxy in [0, 1]

    def __post_init__(self) -> None:
        n = self.plddt.shape[0]
        if self.pae.shape != (n, n):
            raise ValueError("pae must be (N, N)")
        if not 0.0 <= self.ptm <= 1.0:
            raise ValueError("ptm must lie in [0, 1]")


class DistogramHead:
    """Pair representation -> inter-token distance distribution."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig) -> None:
        self.proj = init_linear(rng, config.c_pair, NUM_DISTOGRAM_BINS)

    def __call__(
        self, pair: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        counter = counter or OpCounter()
        with counter.scope("heads.distogram"):
            logits = linear(pair, self.proj, counter)
            symmetric = 0.5 * (logits + np.swapaxes(logits, 0, 1))
            return softmax(symmetric, axis=-1, counter=counter)


class ConfidenceHead:
    """Single + pair representations -> pLDDT, PAE and pTM."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig) -> None:
        self.plddt_fc1 = init_linear(rng, config.c_single, config.c_single)
        self.plddt_fc2 = init_linear(rng, config.c_single, NUM_PLDDT_BINS)
        self.pae_proj = init_linear(rng, config.c_pair, NUM_PAE_BINS)

    def __call__(
        self,
        single: np.ndarray,
        pair: np.ndarray,
        counter: Optional[OpCounter] = None,
    ) -> Confidence:
        counter = counter or OpCounter()
        with counter.scope("heads.confidence"):
            hidden = relu(linear(single, self.plddt_fc1, counter), counter)
            plddt_probs = softmax(
                linear(hidden, self.plddt_fc2, counter), axis=-1, counter=counter
            )
            bin_centers = (np.arange(NUM_PLDDT_BINS) + 0.5) * (100.0 / NUM_PLDDT_BINS)
            plddt = plddt_probs @ bin_centers

            pae_probs = softmax(
                linear(pair, self.pae_proj, counter), axis=-1, counter=counter
            )
            pae_centers = (np.arange(NUM_PAE_BINS) + 0.5) * (32.0 / NUM_PAE_BINS)
            pae = pae_probs @ pae_centers

            # pTM proxy from PAE (standard TM kernel over expected errors).
            n = single.shape[0]
            d0 = max(1.24 * (max(n, 19) - 15) ** (1.0 / 3.0) - 1.8, 1.0)
            ptm = float(np.mean(1.0 / (1.0 + (pae / d0) ** 2)))
        return Confidence(plddt=plddt, pae=pae, ptm=ptm)
