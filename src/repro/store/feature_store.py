"""Disk-backed content-addressed MSA/feature store.

The MSA phase dominates end-to-end AF3 latency (paper Fig 3/7) yet its
result depends only on chain content, so a screening campaign should
pay it once per distinct chain — across workers *and* across runs.
:class:`repro.serving.MsaResultCache` already exploits the property
in-process; this module is the durable tier underneath it:

* **content addressing** — entries are keyed by the same 32-hex digest
  family as :func:`repro.serving.cache.chain_content_key` (per-chain
  stores use :func:`~repro.serving.cache.chain_feature_key`);
* **atomic persistence** — every object is written to a temp file and
  ``os.replace``d into place, so a crash never leaves a half-written
  entry where a reader can see it;
* **size-bounded LRU** — an on-disk index (``index.json``) records
  recency and byte sizes; inserts evict oldest-first until the total
  fits ``byte_budget``;
* **corruption detection** — payloads carry a sha256 checksum; a read
  that fails to parse or verify *invalidates* the entry and reports a
  miss rather than serving bad features (the fault-injection layer
  tampers entries through :meth:`FeatureStore.corrupt` to prove it);
* **MsaResultCache parity** — degraded entries are rejected and
  counted, and overwriting a live key with different content counts an
  invalidation, exactly as the in-memory cache does.

Reads are served from a verified in-memory mirror once a key has been
checked, so a hot store costs a dict lookup per read; recency updates
from reads are flushed lazily (``sync()``), while every mutation
persists the index immediately.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from collections import OrderedDict
from typing import Dict, List, Optional

__all__ = ["DEFAULT_BYTE_BUDGET", "FeatureStore", "payload_checksum"]

#: Default eviction budget: plenty for ~10^5 chain records while still
#: small enough that property tests can exercise eviction cheaply.
DEFAULT_BYTE_BUDGET = 64 * 1024 * 1024

_INDEX_NAME = "index.json"
_OBJECTS_DIR = "objects"
_HEX = set("0123456789abcdef")


def payload_checksum(payload) -> str:
    """sha256 over the canonical (sorted, compact) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` through a sibling ``.tmp`` file and ``os.replace``
    it into place, so a reader sees the old file or the new one, never
    a half-written one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _validate_key(key: str) -> None:
    if not (isinstance(key, str) and len(key) == 32 and set(key) <= _HEX):
        raise ValueError(
            f"store keys are 32 lowercase hex chars (chain_content_key), "
            f"got {key!r}"
        )


class FeatureStore:
    """One store root on disk: ``objects/<k[:2]>/<key>.json`` + index."""

    def __init__(self, root, byte_budget: int = DEFAULT_BYTE_BUDGET) -> None:
        if byte_budget < 1:
            raise ValueError("byte_budget must be >= 1")
        self.root = pathlib.Path(root)
        self.byte_budget = int(byte_budget)
        self._objects = self.root / _OBJECTS_DIR
        self._objects.mkdir(parents=True, exist_ok=True)
        #: key -> on-disk object size in bytes, oldest-used first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._total = 0
        self._payloads: Dict[str, dict] = {}  # checksum-verified mirror
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.evictions = 0
        self.invalidations = 0
        self.degraded_rejected = 0
        self.corruption_detected = 0
        self.oversize_rejected = 0
        self._load()

    # -- persistence ---------------------------------------------------

    def _object_path(self, key: str) -> pathlib.Path:
        return self._objects / key[:2] / f"{key}.json"

    def _load(self) -> None:
        index_path = self.root / _INDEX_NAME
        entries = []
        if index_path.exists():
            try:
                entries = json.loads(index_path.read_text()).get("entries", [])
            except (OSError, ValueError):
                entries = []  # unreadable index: rebuild from objects
        for item in entries:
            try:
                key, size = item
            except (TypeError, ValueError):
                continue
            if isinstance(key, str) and self._object_path(key).exists():
                self._index[key] = int(size)
        # Adopt orphaned objects (crash between object write and index
        # sync).  Sorted by key so two reopenings agree byte for byte.
        for path in sorted(self._objects.glob("*/*.json")):
            if path.stem not in self._index:
                self._index[path.stem] = path.stat().st_size
        self._total = sum(self._index.values())
        self._evict_to_budget()
        self._write_index()
        self._dirty = False

    def _write_index(self) -> None:
        doc = {
            "version": 1,
            "byte_budget": self.byte_budget,
            "entries": [[k, s] for k, s in self._index.items()],
        }
        atomic_write_text(self.root / _INDEX_NAME, json.dumps(doc))

    def sync(self) -> None:
        """Flush lazily-buffered recency updates to the on-disk index."""
        if self._dirty:
            self._write_index()
            self._dirty = False

    # -- core operations -----------------------------------------------

    def put(self, key: str, payload: dict, degraded: bool = False) -> bool:
        """Persist one entry; returns False for rejected entries.

        Mirrors :meth:`repro.serving.MsaResultCache.insert`: degraded
        results are never stored (counted in ``degraded_rejected``) and
        replacing a live key with *different* content counts an
        invalidation.  Entries larger than the whole byte budget are
        rejected rather than evicting the entire store.
        """
        _validate_key(key)
        if degraded or (isinstance(payload, dict) and payload.get("degraded")):
            self.degraded_rejected += 1
            return False
        # Canonical JSON round-trip: what get() returns is bit-identical
        # whether served from the mirror now or from disk after reopen.
        payload = json.loads(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )
        text = json.dumps(
            {"key": key, "payload": payload,
             "checksum": payload_checksum(payload)},
            sort_keys=True, separators=(",", ":"),
        )
        size = len(text.encode())
        if size > self.byte_budget:
            self.oversize_rejected += 1
            return False
        previous = self._fetch(key) if key in self._index else None
        if previous is not None and previous != payload:
            self.invalidations += 1
        atomic_write_text(self._object_path(key), text)
        if key in self._index:
            self._total -= self._index[key]
        self._index[key] = size
        self._index.move_to_end(key)
        self._total += size
        self._payloads[key] = payload
        self.puts += 1
        self._evict_to_budget()
        self._write_index()
        self._dirty = False
        return True

    def get(self, key: str) -> Optional[dict]:
        """Checked read; counts a hit (refreshing recency) or a miss.

        A corrupt on-disk object is invalidated and reported as a miss
        — the store never serves an entry that fails its checksum.
        """
        if key not in self._index:
            self.misses += 1
            return None
        payload = self._fetch(key)
        if payload is None:
            self.misses += 1
            return None
        self._index.move_to_end(key)
        self._dirty = True
        self.hits += 1
        return payload

    def _fetch(self, key: str) -> Optional[dict]:
        """Verified payload for an indexed key (mirror or disk)."""
        cached = self._payloads.get(key)
        if cached is not None:
            return cached
        try:
            doc = json.loads(self._object_path(key).read_text())
        except (OSError, ValueError):
            doc = None
        if (
            not isinstance(doc, dict)
            or doc.get("key") != key
            or payload_checksum(doc.get("payload")) != doc.get("checksum")
        ):
            self.corruption_detected += 1
            self._discard(key)
            self._write_index()
            self._dirty = False
            return None
        payload = doc["payload"]
        self._payloads[key] = payload
        return payload

    def invalidate(self, key: str) -> bool:
        """Drop an entry whose underlying data is no longer trusted."""
        if key not in self._index:
            return False
        self._discard(key)
        self.invalidations += 1
        self._write_index()
        self._dirty = False
        return True

    def corrupt(self, key: str) -> bool:
        """Fault-injection hook: tamper the on-disk object in place.

        Truncates one byte (breaking the JSON/checksum) and drops the
        in-memory mirror so the next read exercises the detection path.
        Returns False for keys the store does not hold.
        """
        if key not in self._index:
            return False
        path = self._object_path(key)
        try:
            text = path.read_text()
        except OSError:
            text = ""
        atomic_write_text(path, text[:-1] if text else "x")
        self._payloads.pop(key, None)
        return True

    # -- internals -----------------------------------------------------

    def _discard(self, key: str) -> None:
        size = self._index.pop(key, 0)
        self._total -= size
        self._payloads.pop(key, None)
        try:
            self._object_path(key).unlink()
        except OSError:
            pass

    def _evict_to_budget(self) -> None:
        while self._total > self.byte_budget and len(self._index) > 1:
            oldest = next(iter(self._index))
            self._discard(oldest)
            self.evictions += 1

    # -- introspection -------------------------------------------------

    def keys(self) -> List[str]:
        """Held keys, least-recently-used first."""
        return list(self._index)

    def missing(self, keys) -> List[str]:
        """The subset of ``keys`` the store does not hold, in input
        order (batch planners use this to compute only the gap)."""
        return [key for key in keys if key not in self._index]

    @property
    def total_bytes(self) -> int:
        return self._total

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def counters(self) -> "OrderedDict[str, int]":
        """Lifetime operation counters (order is the report order)."""
        return OrderedDict(
            [
                ("hits", self.hits),
                ("misses", self.misses),
                ("puts", self.puts),
                ("evictions", self.evictions),
                ("invalidations", self.invalidations),
                ("degraded_rejected", self.degraded_rejected),
                ("corruption_detected", self.corruption_detected),
                ("oversize_rejected", self.oversize_rejected),
            ]
        )
