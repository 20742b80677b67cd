"""Content-keyed MSA result cache (the AF_Cache-style serving win).

The MSA phase dominates end-to-end AF3 time (paper Fig 3/7) and its
result depends only on the input chains — not on when or for whom the
request arrived.  A high-traffic gateway therefore caches MSA results
keyed by *chain content*: two requests for the same assembly (or the
same assembly under a different name) share one search.  The gateway
additionally coalesces requests onto in-flight computations, so a
burst of identical requests pays for exactly one MSA.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Optional

from ..msa.cost import msa_depth
from ..sequences.chain import Assembly, Chain


def chain_content_key(assembly: Assembly) -> str:
    """Deterministic key over the chains that drive the MSA phase.

    Order-insensitive over chains (an A/B assembly equals a B/A one)
    and includes molecule type and copy count — copies reuse one MSA
    but change the paired-feature assembly, so they are part of the
    content identity.
    """
    parts = sorted(
        f"{chain.molecule_type.value}:{chain.copies}:{chain.sequence}"
        for chain in assembly
        if chain.molecule_type.is_polymer
    )
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    # 32 hex chars = 128 bits.  The previous 16-char (64-bit) key made
    # birthday collisions plausible at millions-of-users scale, and a
    # colliding key silently serves one user's MSA for another's input
    # — a cross-contamination bug, not just a cache miss.
    return digest[:32]


def chain_feature_key(chain: Chain) -> str:
    """:func:`chain_content_key` of a chain on its own.

    Per-chain MSAs do not depend on copy count (copies reuse one
    search), so the key normalises ``copies`` to 1: this is exactly the
    digest ``chain_content_key`` produces for a single-chain assembly
    holding one copy of ``chain``.  Screening workloads key the disk
    feature store per *chain* so an N-chain all-vs-all campaign stores
    N entries, not N² pair entries.
    """
    part = f"{chain.molecule_type.value}:1:{chain.sequence}"
    return hashlib.sha256(part.encode()).hexdigest()[:32]


def chain_store_payload(chain: Chain) -> dict:
    """The per-chain record the disk feature store persists.

    Platform-independent on purpose (a store filled on one host must be
    valid on another), and identical whether written by an offline
    ``msa-precompute`` job or by a gateway leader publishing its scan —
    the differential tests rely on that bit-equivalence.
    """
    residues = len(chain.sequence or "")
    return {
        "schema": 1,
        "molecule_type": chain.molecule_type.value,
        "residues": residues,
        "msa_depth": msa_depth(residues),
        "sequence_sha": hashlib.sha256(
            (chain.sequence or "").encode()
        ).hexdigest()[:16],
    }


@dataclasses.dataclass(frozen=True)
class CachedMsa:
    """What the gateway needs to reuse a finished MSA phase.

    ``degraded`` marks a reduced-depth fault-fallback result; the
    cache refuses to store those (a later identical request must not
    inherit another request's degraded quality).
    """

    msa_seconds: float   # what the original computation cost
    msa_depth: int       # depth fed to the inference cost model
    degraded: bool = False


class MsaResultCache:
    """Bounded LRU cache of completed MSA phases, keyed by content."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store: "OrderedDict[str, CachedMsa]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.degraded_rejected = 0

    def lookup(self, key: str) -> Optional[CachedMsa]:
        """LRU lookup; counts a hit (refreshing recency) or a miss."""
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, key: str, entry: CachedMsa) -> bool:
        """Store a finished MSA; returns False for rejected entries.

        Degraded-mode (reduced-depth fallback) results are never
        cached: serving them to later full-quality requests would
        silently propagate the degradation past the fault that caused
        it.
        """
        if entry.degraded:
            self.degraded_rejected += 1
            return False
        previous = self._store.get(key)
        if previous is not None and previous != entry:
            # Overwriting a live key with *different* content retires a
            # result earlier requests may have been served from; that is
            # an invalidation, not a silent refresh, and the disk
            # feature store mirrors the same accounting.
            self.invalidations += 1
        self._store[key] = entry
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1
        return True

    def invalidate(self, key: str) -> bool:
        """Drop an entry whose underlying data is no longer trusted
        (e.g. a fault corrupted the in-flight MSA that produced it)."""
        if self._store.pop(key, None) is not None:
            self.invalidations += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses); 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
