"""Durability tests for the feature store's snapshot + journal index.

* a put writes one object and one journal record, never the snapshot,
  and creates no directory;
* compaction bounds the journal, and torn records are skipped;
* a store written before the journal existed (``index.json`` only)
  opens unchanged, and one in the two-level object layout is flattened
  on open, also half-flattened and by two openers at once;
* a process killed after any single write step leaves a store that
  reopens with exactly the objects on disk, serves no torn object, and
  a rerun precompute computes only the missing chains;
* two processes writing one key of one store never collide;
* a stateful fuzz of put/get/invalidate/corrupt/eviction/sync/reopen
  keeps a reopened store equal to the live one.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serving import chain_store_payload
from repro.store import FeatureStore, collect_chains, precompute_msas
from repro.store import feature_store
from repro.store.feature_store import _JOURNAL_RATIO, payload_checksum

from .test_feature_store import _key, _payload, _sample


def _journal(root) -> list:
    return (pathlib.Path(root) / "index.journal").read_text().splitlines()


def _snapshot(root) -> dict:
    return json.loads((pathlib.Path(root) / "index.json").read_text())


def _is_object(path, root) -> bool:
    """Whether ``path`` is where the store at ``root`` keeps an object,
    by the store's own layout helper."""
    path = pathlib.Path(path)
    return feature_store.object_path(root, path.stem) == path


def _on_disk(root) -> set:
    return {
        p.stem for p in pathlib.Path(root).rglob("*.json")
        if _is_object(p, root)
    }


def _files(root) -> dict:
    """Every file under ``root``, relative path -> bytes."""
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in root.rglob("*") if p.is_file()
    }


def _old_layout_object(root, key: str, payload: dict) -> None:
    """Write one object where the two-level layout kept it."""
    path = pathlib.Path(root) / "objects" / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_object_text(key, payload))


def _object_text(key: str, payload: dict) -> str:
    """An object file as every version of the store writes it."""
    return json.dumps(
        {"key": key, "payload": payload,
         "checksum": payload_checksum(payload)},
        sort_keys=True, separators=(",", ":"),
    )


# -- the journal --------------------------------------------------------

class TestJournal:
    def test_put_appends_one_record_and_leaves_the_snapshot(self, tmp_path):
        store = FeatureStore(tmp_path)
        snapshot = (tmp_path / "index.json").read_bytes()
        sizes = {}
        for n in range(20):
            assert store.put(_key(n), _payload(n))
            sizes[_key(n)] = store._object_path(_key(n)).stat().st_size
        assert (tmp_path / "index.json").read_bytes() == snapshot
        assert _journal(tmp_path) == [
            f"p {key} {size}" for key, size in sizes.items()
        ]
        store.get(_key(0))
        store.invalidate(_key(1))
        assert _journal(tmp_path)[-1] == f"d {_key(1)}"
        store.sync()
        assert _journal(tmp_path) == []
        assert _snapshot(tmp_path)["entries"] == [
            [key, size] for key, size in sizes.items()
            if key != _key(1)
        ][1:] + [[_key(0), sizes[_key(0)]]]

    def test_object_bytes_are_the_canonical_record(self, tmp_path):
        store = FeatureStore(tmp_path)
        store.put(_key(3), {"b": [1, 2], "a": "x"})
        assert store._object_path(_key(3)).read_text() == _object_text(
            _key(3), {"a": "x", "b": [1, 2]}
        )

    def test_compaction_bounds_the_journal(self, tmp_path, monkeypatch):
        compactions = []
        compact = FeatureStore._compact

        def counting(self):
            compactions.append(len(self._index))
            compact(self)

        monkeypatch.setattr(FeatureStore, "_compact", counting)
        store = FeatureStore(tmp_path)
        for n in range(600):
            store.put(_key(n % 3), _payload(n))
            assert len(_journal(tmp_path)) <= _JOURNAL_RATIO * max(
                1, len(store)
            )
            if n % 50 == 0:
                store.invalidate(_key(n % 3))
        # Compaction is amortised: a snapshot per few records, not per put.
        assert 1 < len(compactions) <= 600 // _JOURNAL_RATIO
        assert FeatureStore(tmp_path).keys() == store.keys()

    def test_torn_and_foreign_records_are_skipped(self, tmp_path):
        store = FeatureStore(tmp_path)
        for n in range(3):
            store.put(_key(n), _payload(n))
        with open(tmp_path / "index.journal", "a") as journal:
            journal.write(f"d not-a-key\nx {_key(0)}\np {_key(9)} 1")
        assert FeatureStore(tmp_path).keys() == store.keys()

    def test_replayed_drop_of_a_live_object_is_adopted_back(self, tmp_path):
        # Drops unlink before they record, so a drop record whose object
        # still exists can only come from another writer's re-put.
        store = FeatureStore(tmp_path)
        store.put(_key(0), _payload(0))
        with open(tmp_path / "index.journal", "a") as journal:
            journal.write(f"d {_key(0)}\n")
        assert FeatureStore(tmp_path).get(_key(0)) == _payload(0)


    def test_puts_create_no_directory(self, tmp_path, monkeypatch):
        store = FeatureStore(tmp_path, byte_budget=8 * 1024)
        made = []
        mkdir = os.mkdir

        def recording(path, *args, **kwargs):
            made.append(path)
            mkdir(path, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", recording)
        for n in range(300):
            assert store.put(_key(n), _payload(n))
        store.sync()
        assert made == []
        assert not [p for p in (tmp_path / "objects").iterdir() if p.is_dir()]
        assert store.evictions > 0   # drops ran on the same flat layout
        assert set(store.keys()) == _on_disk(tmp_path)


class TestOldStore:
    def test_index_json_only_store_opens(self, tmp_path):
        """A root holding only a version-1 ``index.json`` and objects
        (the layout before the journal) opens with the same entries."""
        held = [_key(n) for n in range(4)]
        for n, key in enumerate(held + [_key(7)]):
            path = tmp_path / "objects" / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(_object_text(key, _payload(n)))
        gone = _key(8)   # indexed, but its object was dropped
        entries = [
            [key, len(_object_text(key, _payload(n)))]
            for n, key in enumerate(held)
        ]
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "byte_budget": 1 << 20,
            "entries": entries[2:] + [[gone, 10]] + entries[:2],
        }))
        store = FeatureStore(tmp_path)
        # Snapshot order first, then the orphan; the missing key dropped.
        assert store.keys() == held[2:] + held[:2] + [_key(7)]
        for n, key in enumerate(held):
            assert store.get(key) == _payload(n)
        assert _journal(tmp_path) == []
        assert _snapshot(tmp_path)["version"] == 1

    def test_two_level_store_with_journal_records_opens_flat(self, tmp_path):
        """A two-level root with a snapshot and a journal replays both
        over the moved objects; no prefix directory is left."""
        for n in (0, 1, 2, 3, 5):
            _old_layout_object(tmp_path, _key(n), _payload(n))
        sizes = {
            _key(n): len(_object_text(_key(n), _payload(n)))
            for n in range(6)
        }
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "byte_budget": 1 << 20,
            "entries": [[_key(n), sizes[_key(n)]] for n in (0, 1)],
        }))
        (tmp_path / "index.journal").write_text("".join([
            f"p {_key(2)} {sizes[_key(2)]}\n",
            f"p {_key(3)} {sizes[_key(3)]}\n",
            f"p {_key(4)} {sizes[_key(4)]}\n",
            f"d {_key(4)}\n",
            f"p {_key(0)} {sizes[_key(0)]}\n",
        ]))
        store = FeatureStore(tmp_path)
        # Replayed order, the dropped key gone, then the orphan.
        assert store.keys() == [_key(n) for n in (1, 2, 3, 0, 5)]
        for n in (0, 1, 2, 3, 5):
            assert store.get(_key(n)) == _payload(n)
        assert store.total_bytes == sum(
            sizes[_key(n)] for n in (0, 1, 2, 3, 5)
        )
        assert _on_disk(tmp_path) == set(store.keys())
        assert not [p for p in (tmp_path / "objects").iterdir() if p.is_dir()]
        assert _journal(tmp_path) == []

    def test_half_migrated_store_opens_and_then_stays_put(self, tmp_path):
        """A crash mid-migration leaves some objects flat and some
        nested: the next open finishes it, and a further open changes
        no file."""
        held = [_key(n) for n in range(8)]
        for n, key in enumerate(held):
            if n % 2:
                _old_layout_object(tmp_path, key, _payload(n))
            else:
                path = tmp_path / "objects" / f"{key}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(_object_text(key, _payload(n)))
        # One emptied prefix directory, as a crash before its rmdir
        # leaves it.
        (tmp_path / "objects" / "zz").mkdir()
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "byte_budget": 1 << 20,
            "entries": [
                [key, len(_object_text(key, _payload(n)))]
                for n, key in enumerate(held)
            ],
        }))
        store = FeatureStore(tmp_path)
        assert store.keys() == held
        for n, key in enumerate(held):
            assert store.get(key) == _payload(n)
        assert not [p for p in (tmp_path / "objects").iterdir() if p.is_dir()]
        before = _files(tmp_path)
        assert FeatureStore(tmp_path).keys() == held
        assert _files(tmp_path) == before

    def test_two_processes_open_one_two_level_store(self, tmp_path):
        """Two openers race through one migration; both serve every
        payload and the root ends flat."""
        keys = [_key(n) for n in range(200)]
        for n, key in enumerate(keys):
            _old_layout_object(tmp_path, key, _payload(n))
        (tmp_path / "index.json").write_text(json.dumps({
            "version": 1, "byte_budget": 1 << 20,
            "entries": [
                [key, len(_object_text(key, _payload(n)))]
                for n, key in enumerate(keys[:100])
            ],
        }))
        outputs = _race(_OPENER, tmp_path, json.dumps(keys))
        expected = {key: _payload(n) for n, key in enumerate(keys)}
        for out in outputs:
            assert json.loads(out) == expected
        assert _on_disk(tmp_path) == set(keys)
        assert not [p for p in (tmp_path / "objects").iterdir() if p.is_dir()]
        assert sorted(FeatureStore(tmp_path).keys()) == sorted(keys)


# -- crash injection ------------------------------------------------------

_CRASHED = 86
STEPS = (
    "temp object written",
    "object renamed",
    "record appended",
    "snapshot written",
    "journal reset",
)


def _crash_after(root, step: str, occurrence: int) -> None:
    """Patch this (forked) process to die, as by SIGKILL, right after
    the ``occurrence``-th time ``step`` completes in the store at
    ``root``."""
    seen = [0]

    def tick():
        seen[0] += 1
        if seen[0] == occurrence:
            os._exit(_CRASHED)

    replace = os.replace

    def crashing_replace(src, dst):
        dst = pathlib.Path(dst)
        is_object = _is_object(dst, root)
        if step == "temp object written" and is_object:
            tick()
        replace(src, dst)
        if (step == "object renamed" and is_object) or (
            step == "snapshot written" and dst.name == "index.json"
        ):
            tick()

    def after(method):
        def wrapped(*args):
            method(*args)
            tick()
        return wrapped

    feature_store.os.replace = crashing_replace
    if step == "record appended":
        FeatureStore._append = after(FeatureStore._append)
    if step == "journal reset":
        FeatureStore._compact = after(FeatureStore._compact)


def _campaign(root, samples) -> None:
    """Puts, syncs, drops and a put-time compaction, in that order."""
    store = FeatureStore(root)
    precompute_msas(samples[:4], store)
    for key in store.keys():
        store.invalidate(key)
    precompute_msas(samples, store)   # its first put compacts


def _run_until_crash(root, samples, step: str, occurrence: int) -> int:
    pid = os.fork()
    if pid == 0:   # pragma: no cover - runs in the child
        code = 1
        try:
            _crash_after(root, step, occurrence)
            _campaign(root, samples)
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"campaign child hung ({step!r} #{occurrence})")
        time.sleep(0.002)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("step", STEPS)
def test_crash_after_every_write_step(step, tmp_path):
    samples = [_sample(i) for i in range(6)]
    expected = {
        key: chain_store_payload(chain)
        for key, chain in collect_chains(samples).items()
    }
    assert len(expected) == 6
    occurrence = 1
    while True:
        root = tmp_path / f"crash-{occurrence}"
        code = _run_until_crash(root, samples, step, occurrence)
        if code == 0:
            break   # the campaign wrote this step fewer times
        assert code == _CRASHED
        reopened = FeatureStore(root)
        assert set(reopened.keys()) == _on_disk(root)
        for key in reopened.keys():
            assert reopened.get(key) == expected[key]   # nothing torn
        held = len(reopened)
        rerun = precompute_msas(samples, reopened)
        assert rerun.already_stored == held
        assert rerun.computed == len(expected) - held
        assert sorted(FeatureStore(root).keys()) == sorted(expected)
        occurrence += 1
    assert occurrence > 1, f"the campaign never reached {step!r}"


# -- concurrent writers ---------------------------------------------------

_START_TOGETHER = """
import json, pathlib, sys, time
sys.path.insert(0, sys.argv[1])
from repro.store import FeatureStore
root, writer = pathlib.Path(sys.argv[2]), int(sys.argv[3])
(root / f"ready-{writer}").touch()
while not all((root / f"ready-{i}").exists() for i in (0, 1)):
    time.sleep(0.001)
store = FeatureStore(root)   # both processes open at once
"""

_WRITER = _START_TOGETHER + """
for n in range(1500):
    store.put("ab" * 16, {"writer": writer, "n": n})
"""

_OPENER = _START_TOGETHER + """
print(json.dumps({key: store.get(key) for key in json.loads(sys.argv[4])}))
"""


def _race(script: str, root, *args) -> list:
    """Run ``script`` in two processes that open ``root`` at once;
    returns their stdouts once both exit cleanly."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, str(src), str(root),
             str(writer), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for writer in (0, 1)
    ]
    try:
        results = [proc.communicate(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()   # a no-op for a process that has exited
    for proc, (_out, err) in zip(procs, results):
        assert proc.returncode == 0, err
        assert err == ""
    return [out for out, _err in results]


def test_two_processes_put_one_key_into_one_store(tmp_path):
    _race(_WRITER, tmp_path)
    reopened = FeatureStore(tmp_path)
    assert reopened.keys() == ["ab" * 16]
    payload = reopened.get("ab" * 16)   # checksum-verified
    assert payload["writer"] in (0, 1) and 0 <= payload["n"] < 1500
    assert not list(tmp_path.rglob("*.tmp"))


# -- stateful fuzz --------------------------------------------------------

BUDGET = 900


class StoreMachine(RuleBasedStateMachine):
    """A live store against a model of what was put; reopening checks
    the on-disk index against the live one."""

    def __init__(self):
        super().__init__()
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="fs_machine_"))
        self.store = FeatureStore(self.root, byte_budget=BUDGET)
        self.model = {}          # key -> payload of its last accepted put
        self.corrupted = set()
        self.recency_unsynced = False

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(n=st.integers(0, 7), pad=st.integers(0, 900))
    def put(self, n, pad):
        if self.store.put(_key(n), _payload(n, pad)):
            self.model[_key(n)] = _payload(n, pad)
            self.corrupted.discard(_key(n))

    @rule(n=st.integers(0, 7))
    def get(self, n):
        key = _key(n)
        held = key in self.store and key not in self.corrupted
        got = self.store.get(key)
        if held:
            assert got == self.model[key]
            self.recency_unsynced = True
        else:
            assert got is None
        self.corrupted.discard(key)

    @rule(n=st.integers(0, 7))
    def invalidate(self, n):
        held = _key(n) in self.store
        assert self.store.invalidate(_key(n)) == held
        self.corrupted.discard(_key(n))

    @rule(n=st.integers(0, 7))
    def corrupt(self, n):
        if self.store.corrupt(_key(n)):
            self.corrupted.add(_key(n))

    @rule()
    def sync(self):
        self.store.sync()
        self.recency_unsynced = False

    @rule()
    def reopen(self):
        reopened = FeatureStore(self.root, byte_budget=BUDGET)
        if self.recency_unsynced:
            assert sorted(reopened.keys()) == sorted(self.store.keys())
        else:
            assert reopened.keys() == self.store.keys()
        for key in reopened.keys():
            if key not in self.corrupted:
                assert reopened._fetch(key) == self.model[key]
        self.store = reopened
        self.recency_unsynced = False

    @invariant()
    def bounded_and_on_disk(self):
        store = self.store
        assert store.total_bytes <= BUDGET
        assert store.total_bytes == sum(store._index.values())
        assert set(store.keys()) == _on_disk(self.root)
        assert set(store.keys()) <= set(self.model)


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStoreMachine = StoreMachine.TestCase
