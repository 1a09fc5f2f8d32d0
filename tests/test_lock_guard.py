"""The record-store lock contract, checked at run time.

Under ``python -X dev`` a ``TardisStore`` routes every record-store call
through a guard that raises unless the calling thread holds the store
lock (docs/internals.md §11.2). These tests put the guard on with the
same helper the store's constructor uses, so they run in a plain test
session too; two subprocess tests check that dev mode alone switches it
on and that nothing is wrapped without it.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import TardisStore
from repro.client import TardisClient
from repro.core.recovery import recover_store
from repro.core.store import _RecordStoreGuard
from repro.core.versions import VersionedRecordStore
from repro.partitioning.workers import ShardedRecordStore
from repro.server import TardisServer

PLANES = {
    "flat": {},
    "shards": {"shards": 2},
    "workers": {"shards": 2, "shard_workers": 1},
}

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(params=sorted(PLANES))
def guarded(request):
    store = TardisStore("G", **PLANES[request.param])
    store._guard_storage()
    yield store
    store.close()


def _unlocked_read_many(self, keys, state, trace):
    """``TardisStore._read_many`` as it was before its lock was added."""
    versions = self.versions
    scanned = versions.scanned
    hits = versions.vis_hits
    found = versions.read_visible_many(keys, state, self.dag)
    trace.versions_scanned += versions.scanned - scanned
    trace.vis_hits += versions.vis_hits - hits
    return found


class TestMissingLockRaises:
    @pytest.mark.parametrize("plane", ["flat", "workers"])
    def test_get_many_without_the_read_lock(self, plane, monkeypatch):
        # The unlocked batched read two threads once desynced a shard
        # link with; one thread is enough to catch it now.
        store = TardisStore("G", **PLANES[plane])
        store._guard_storage()
        try:
            store.put("a", 1)
            monkeypatch.setattr(TardisStore, "_read_many", _unlocked_read_many)
            txn = store.begin(read_only=True)
            with pytest.raises(AssertionError, match="read_visible_many"):
                txn.get_many(["a", "b"])
            txn.abort()
        finally:
            store.close()

    def test_unlocked_write(self, guarded):
        sid = guarded.put("x", 1)
        with pytest.raises(AssertionError, match=r"\.write called without"):
            guarded.versions.write("x", sid, 2)
        assert guarded.get("x") == 1

    def test_lock_held_by_another_thread(self, guarded):
        # Ownership, not "somebody holds it": another thread's hold
        # does not cover this one.
        held, release = threading.Event(), threading.Event()

        def hold():
            with guarded._lock:
                held.set()
                release.wait(5.0)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert held.wait(5.0)
            with pytest.raises(AssertionError, match="num_records"):
                guarded.versions.num_records()
        finally:
            release.set()
            thread.join(5.0)
        assert not thread.is_alive()

    def test_the_error_names_the_class_and_method(self):
        store = TardisStore("G")
        store._guard_storage()
        with pytest.raises(AssertionError) as excinfo:
            store.versions.num_keys()
        assert str(excinfo.value) == (
            "VersionedRecordStore.num_keys called without TardisStore._lock"
        )


class TestLockedCallsPassThrough:
    def test_held_and_reentered(self, guarded):
        sid = guarded.put("x", 1)
        with guarded._lock:
            assert guarded.versions.num_records() == 1
            with guarded._lock:
                guarded.versions.write("x", sid, 2)
                assert guarded.versions.record("x", sid) == 2

    def test_a_whole_history_runs_clean(self, guarded):
        # Every store entry point takes the lock before it reaches the
        # record store: reads, batches, forks, a merge and a GC cycle.
        a, b = guarded.session("a"), guarded.session("b")
        guarded.put("k", 0, session=a)
        t1, t2 = guarded.begin(session=a), guarded.begin(session=b)
        t1.put("k", t1.get("k") + 1)
        t2.put("k", t2.get("k") + 2)
        t1.commit()
        t2.commit()
        merge = guarded.begin_merge(session=a)
        for key in merge.find_conflict_writes():
            merge.put(key, sum(merge.get_all(key)))
        merge.commit()
        txn = guarded.begin(session=a)
        assert txn.get_many(["k", "none"], default=None) == [3, None]
        txn.commit()
        a.place_ceiling()
        b.place_ceiling()
        assert guarded.collect_garbage().states_removed > 0
        assert guarded.get("k", session=a) == 3

    def test_exempt_calls_and_plain_attributes(self):
        store = TardisStore("G", shards=2)
        store._guard_storage()
        # shard_index is a pure function of the key; counts and the
        # shard count are plain attribute reads.
        assert store.versions.shard_index("x") in (0, 1)
        assert store.versions.n_shards == 2
        assert store.versions.scanned == 0
        assert "shards=2" in repr(store)

    def test_close_takes_the_lock(self, guarded, tmp_path):
        # The fixture's plane closes its links under the guard; a flat
        # store closes its log under the same lock.
        guarded.put("x", 1)
        guarded.close()
        path = str(tmp_path / "wal.log")
        logged = TardisStore("G", wal_path=path)
        logged._guard_storage()
        logged.put("x", 1)
        logged.close()
        recovered, report = recover_store("G", path)
        assert report["replayed"] == 1 and recovered.get("x") == 1
        recovered.close()


class TestPipelineStaysSharded:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_guard_keeps_the_commit_path(self, plane):
        store = TardisStore("G", **PLANES[plane])
        store._guard_storage()
        try:
            assert store.pipeline.versions is store.versions
            assert store.pipeline.sharded is (plane != "flat")
            with store.begin() as txn:
                for i in range(8):
                    txn.put("key%d" % i, i)
            if plane != "flat":
                # A sharded install counts its writes per shard; the
                # flat path would have skipped the router entirely.
                assert sum(store.versions.accesses) == 8
            assert store.get("key7") == 7
        finally:
            store.close()


def test_stats_over_the_wire_on_shard_workers():
    # STATS counts records through the shard links; it now takes the
    # store lock, so the guard lets it through.
    store = TardisStore("G", shards=2, shard_workers=1)
    store._guard_storage()
    handle = TardisServer(store=store).start()
    try:
        with TardisClient(port=handle.port, session="stats") as client:
            client.put("x", 1)
            stats = client.stats()
        assert stats["store"]["records"] == 1
        assert stats["store"]["shard_workers_alive"] == 1
    finally:
        handle.shutdown()
        store.close()


_PROBE = """
import json, sys
from repro import TardisStore
out = {"dev_mode": bool(sys.flags.dev_mode)}
for plane, kwargs in (("flat", {}), ("shards", {"shards": 2})):
    store = TardisStore("P", **kwargs)
    store.put("x", 1)
    try:
        store.versions.num_records()
        raised = False
    except AssertionError:
        raised = True
    out[plane] = {
        "type": type(store.versions).__name__,
        "sharded": store.pipeline.sharded,
        "raised": raised,
    }
    store.close()
print(json.dumps(out))
"""


@pytest.mark.parametrize(
    "flags, guard",
    [([], False), (["-X", "dev"], True), (["-O", "-X", "dev"], True)],
    ids=["plain", "dev", "dev-optimized"],
)
def test_dev_mode_alone_switches_the_guard(flags, guard):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDEVMODE"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["dev_mode"] is guard
    bare = {"flat": VersionedRecordStore, "shards": ShardedRecordStore}
    for plane, cls in bare.items():
        expected = _RecordStoreGuard.__name__ if guard else cls.__name__
        assert out[plane] == {
            "type": expected,
            "sharded": plane == "shards",
            "raised": guard,
        }
