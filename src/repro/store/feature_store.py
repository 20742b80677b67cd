"""Disk-backed content-addressed MSA/feature store.

The MSA phase dominates end-to-end AF3 latency (paper Fig 3/7) yet its
result depends only on chain content, so a screening campaign should
pay it once per distinct chain — across workers *and* across runs.
:class:`repro.serving.MsaResultCache` already exploits the property
in-process; this module is the durable tier underneath it:

* **content addressing** — entries are keyed by the same 32-hex digest
  family as :func:`repro.serving.cache.chain_content_key` (per-chain
  stores use :func:`~repro.serving.cache.chain_feature_key`);
* **atomic persistence** — every object is written to a uniquely named
  temp file and ``os.replace``d into place, so a crash never leaves a
  half-written entry where a reader can see it, and two writers never
  share a temp file;
* **snapshot + journal index** — ``index.json`` is a snapshot of the
  recency order and byte sizes, and ``index.journal`` holds one
  ``O_APPEND`` line per mutation since it (``p <key> <size>`` for a
  put, ``d <key>`` for an eviction, invalidation or detected
  corruption), so a put costs one object write and one record instead
  of a full index rewrite;
* **size-bounded LRU** — inserts evict oldest-first until the total
  fits ``byte_budget``;
* **corruption detection** — payloads carry a sha256 checksum; a read
  that fails to parse or verify *invalidates* the entry and reports a
  miss rather than serving bad features (the fault-injection layer
  tampers entries through :meth:`FeatureStore.corrupt` to prove it);
* **MsaResultCache parity** — degraded entries are rejected and
  counted, and overwriting a live key with different content counts an
  invalidation, exactly as the in-memory cache does.

Opening a root reads the snapshot, replays the journal over it, drops
keys whose object is gone and adopts objects no record names, then
writes a fresh snapshot and starts an empty journal.  ``sync()`` does
the same write, and so does a put once the journal holds more than
``_JOURNAL_RATIO`` records per entry.  Reads are served from a
verified in-memory mirror once a key has been checked, so a hot store
costs a dict lookup per read; their recency reaches disk only through
the next snapshot.

Nothing is fsynced.  Every read re-verifies its checksum, so an entry
lost or torn by a power cut costs a recompute, never a wrong answer,
while fsyncing every put costs more than the journal saves (see
``docs/feature_store.md``).
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
_JOURNAL_NAME = "index.journal"
_OBJECTS_DIR = "objects"
_HEX = set("0123456789abcdef")
#: A put compacts once the journal holds more than this many records
#: per entry, which bounds replay work and journal size on reopen.
_JOURNAL_RATIO = 4


def payload_checksum(payload) -> str:
    """sha256 over the canonical (sorted, compact) JSON of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def atomic_write_text(
    path: pathlib.Path, text: str, durable: bool = False
) -> None:
    """Write ``text`` through a uniquely named sibling ``.tmp`` file and
    ``os.replace`` it into place, so a reader sees the old file or the
    new one, never a half-written one, and concurrent writers of one
    path never touch each other's temp file.

    ``durable`` also fsyncs the temp file before the rename and the
    directory after it, so the new file survives a power cut.  The
    store's own writes leave it off (a lost put is a checksum miss).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x") as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def _is_key(key) -> bool:
    return isinstance(key, str) and len(key) == 32 and set(key) <= _HEX


def _validate_key(key: str) -> None:
    if not _is_key(key):
        raise ValueError(
            f"store keys are 32 lowercase hex chars (chain_content_key), "
            f"got {key!r}"
        )


class FeatureStore:
    """One store root on disk: ``objects/<k[:2]>/<key>.json`` plus the
    ``index.json`` snapshot and its ``index.journal``."""

    def __init__(self, root, byte_budget: int = DEFAULT_BYTE_BUDGET) -> None:
        if byte_budget < 1:
            raise ValueError("byte_budget must be >= 1")
        self.root = pathlib.Path(root)
        self.byte_budget = int(byte_budget)
        self._objects = self.root / _OBJECTS_DIR
        self._objects.mkdir(parents=True, exist_ok=True)
        self._journal = self.root / _JOURNAL_NAME
        #: key -> on-disk object size in bytes, oldest-used first.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._total = 0
        self._payloads: Dict[str, dict] = {}  # checksum-verified mirror
        self._records = 0   # journal records since the last snapshot
        self._dirty = False  # read recency not yet in a snapshot
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
        index = self._index
        try:
            entries = json.loads(
                (self.root / _INDEX_NAME).read_text()
            )["entries"]
        except (OSError, ValueError, TypeError, KeyError):
            entries = []   # no or unreadable snapshot: rebuild
        for item in entries:
            try:
                key, _ = item
            except (TypeError, ValueError):
                continue
            if _is_key(key):
                index[key] = 0
        try:
            records = self._journal.read_text().splitlines()
        except OSError:
            records = []
        for record in records:   # malformed (torn) lines are skipped
            fields = record.split()
            if len(fields) < 2 or not _is_key(fields[1]):
                continue
            if fields[0] == "p" and len(fields) == 3:
                index.pop(fields[1], None)
                index[fields[1]] = 0
            elif fields[0] == "d" and len(fields) == 2:
                index.pop(fields[1], None)
        # Sizes come from the objects themselves; keys whose object is
        # gone (a drop whose record was lost) are dropped.
        for key in list(index):
            try:
                index[key] = self._object_path(key).stat().st_size
            except OSError:
                del index[key]
        # Adopt orphaned objects (a crash between object write and its
        # record).  Sorted by key so two reopenings agree byte for byte.
        for path in sorted(self._objects.glob("*/*.json")):
            if path.stem not in index and _is_key(path.stem):
                try:
                    index[path.stem] = path.stat().st_size
                except OSError:
                    pass   # dropped by another writer since the glob
        self._total = sum(index.values())
        self._evict_to_budget()
        self._compact()

    def _append(self, record: str) -> None:
        """One journal record, as one ``O_APPEND`` write."""
        fd = os.open(
            self._journal, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666
        )
        try:
            os.write(fd, record.encode())
        finally:
            os.close(fd)
        self._records += 1

    def _compact(self) -> None:
        """Write the snapshot, then start an empty journal.

        A crash between the two replays the old journal over the new
        snapshot on reopen, which yields the same entries.
        """
        doc = {
            "version": 1,
            "byte_budget": self.byte_budget,
            "entries": [[k, s] for k, s in self._index.items()],
        }
        atomic_write_text(self.root / _INDEX_NAME, json.dumps(doc))
        open(self._journal, "w").close()
        self._records = 0
        self._dirty = False

    def sync(self) -> None:
        """Fold the journal and read recency into a fresh snapshot."""
        if self._dirty or self._records:
            self._compact()

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
        self._append(f"p {key} {size}\n")
        self._total += size - self._index.pop(key, 0)
        self._index[key] = size
        self._payloads[key] = payload
        self.puts += 1
        self._evict_to_budget()
        if self._records > _JOURNAL_RATIO * max(1, len(self._index)):
            self._compact()
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
        """Unlink the object, then record the drop: a crash between the
        two leaves a put record whose object is gone, which reopen
        drops, rather than an orphan it would adopt back."""
        size = self._index.pop(key, 0)
        self._total -= size
        self._payloads.pop(key, None)
        try:
            self._object_path(key).unlink()
        except OSError:
            pass
        self._append(f"d {key}\n")

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
