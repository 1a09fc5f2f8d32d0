"""Tests for fault tolerance: WAL logging, crash recovery, checkpoints (§6.5)."""

import os
import pickle

import pytest

from repro import TardisStore, checkpoint_store, recover_store
from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.errors import GarbageCollectedError
from repro.obs import metrics as met
from repro.storage.wal import WriteAheadLog


def make_store(tmp_path, name="wal.log", sync=True, **kw):
    return TardisStore("A", wal_path=str(tmp_path / name), wal_sync=sync, **kw)


class TestRecovery:
    def test_recover_linear_history(self, tmp_path):
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(5):
            t = store.begin(session=sess)
            t.put("x", i)
            t.put("k%d" % i, i)
            t.commit()
        store.close()

        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 5
        assert report["discarded"] == 0
        assert recovered.get("x") == 4
        for i in range(5):
            assert recovered.get("k%d" % i) == i
        assert len(recovered.dag) == len(store.dag)

    def test_recover_branched_history(self, tmp_path):
        store = make_store(tmp_path)
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 5)
        t1.commit()
        t2.commit()
        m = store.begin_merge(session=a)
        m.put("x", 6)
        m.commit()
        store.close()

        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 4
        assert recovered.get("x") == 6
        assert recovered.dag.num_forks() == store.dag.num_forks()
        # Branch structure identical: same leaves.
        assert {l.id for l in recovered.dag.leaves()} == {
            l.id for l in store.dag.leaves()
        }

    def test_recovered_store_continues(self, tmp_path):
        store = make_store(tmp_path)
        store.put("x", 1)
        store.close()
        recovered, _ = recover_store("A", str(tmp_path / "wal.log"))
        sid = recovered.put("x", 2)
        assert sid.counter > 1  # id allocation resumed past recovered ids
        assert recovered.get("x") == 2

    def test_async_flush_crash_loses_unflushed_suffix(self, tmp_path):
        store = make_store(tmp_path, sync=False)
        store.put("x", 1)
        store.wal.flush()
        store.put("x", 2)  # never flushed
        store.wal.drop_buffered()  # crash
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 1
        assert recovered.get("x") == 1

    def test_torn_tail_recovers_prefix(self, tmp_path):
        store = make_store(tmp_path)
        store.put("x", 1)
        store.put("x", 2)
        store.close()
        path = str(tmp_path / "wal.log")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        recovered, report = recover_store("A", path)
        assert report["replayed"] == 1
        assert recovered.get("x") == 1

    def test_gap_in_log_discards_suffix(self, tmp_path):
        """A record whose parent is missing cuts the log there (§6.5)."""
        path = str(tmp_path / "wal.log")
        ids = [StateId(i, "A") for i in range(1, 6)]
        records = [
            CommitRecord(ids[0], (ROOT_ID,), {"k1": 1}),
            CommitRecord(ids[1], (ids[0],), {"k2": 2}),
            CommitRecord(ids[2], (ids[1],), {"k3": 3}),  # lost
            CommitRecord(ids[3], (ids[2],), {"k4": 4}),
            # Its parent survives, but it follows the gap.
            CommitRecord(ids[4], (ids[1],), {"k5": 5}),
        ]
        with WriteAheadLog(path) as wal:
            for record in records[:2] + records[3:]:
                wal.append_commit(record)

        recovered, report = recover_store("A", path)
        assert report["replayed"] == 2
        assert report["discarded"] == 2
        assert [recovered.get("k%d" % i) for i in range(1, 6)] == [1, 2, None, None, None]
        assert ids[3] not in recovered.dag and ids[4] not in recovered.dag

    def test_store_close_twice(self, tmp_path):
        store = make_store(tmp_path, sync=False, group_commit=16)
        store.put("x", 1)
        store.close()
        store.close()
        _, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 1

    def test_metrics_count_replays_as_local(self, tmp_path):
        """Replays touch no replication counter, in the store or the registry."""
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(5):
            store.put("x", i, session=sess)
        store.close()
        registry = met.MetricsRegistry(enabled=True)
        with met.use_registry(registry):
            recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 5
        assert recovered.metrics.remote_applied == 0
        repl = {
            name: registry.counter_value(name)
            for name in registry.names()
            if name.startswith("tardis_repl_")
        }
        assert not any(repl.values()), repl

    def test_listeners_get_the_logged_record(self, tmp_path):
        """The record a listener gets is the one the log holds."""
        store = make_store(tmp_path)
        heard = []
        store.add_commit_listener(heard.append)
        store.put("x", 1)
        store.put("y", 2)
        store.close()
        assert list(WriteAheadLog.read(str(tmp_path / "wal.log"))) == heard
        assert [type(r) for r in heard] == [CommitRecord, CommitRecord]


class TestCheckpoint:
    def test_checkpoint_and_recover(self, tmp_path):
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(10):
            t = store.begin(session=sess)
            t.put("x", i)
            t.commit()
        snap = str(tmp_path / "snap.ckpt")
        n = checkpoint_store(store, snap)
        assert n == len(store.dag)
        # More commits after the checkpoint land in the compacted log.
        store.put("x", 99, session=sess)
        store.close()

        recovered, report = recover_store(
            "A", str(tmp_path / "wal.log"), snapshot_path=snap
        )
        assert report["checkpoint_states"] == n
        assert report["replayed"] == 1
        assert recovered.get("x") == 99

    def test_compacted_log_without_snapshot_discards_all(self, tmp_path):
        """The compacted tail's first record names parents only the
        snapshot holds: without it, nothing in the tail can be grafted."""
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(5):
            store.put("x", i, session=sess)
        checkpoint_store(store, str(tmp_path / "snap.ckpt"))
        for i in range(3):
            store.put("y", i, session=sess)
        store.close()
        path = str(tmp_path / "wal.log")
        tail = list(WriteAheadLog.read(path))
        assert len(tail) >= 3

        recovered, report = recover_store("A", path)
        assert report["replayed"] == 0
        assert report["discarded"] == len(tail)
        assert recovered.get("y") is None

    def test_a_torn_checkpoint_loses_no_acknowledged_commit(self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(25):
            store.put("k%d" % i, i, session=sess)
        snap = str(tmp_path / "snap.ckpt")
        checkpoint_store(store, snap)
        for i in range(25, 30):
            store.put("k%d" % i, i, session=sess)

        def torn_dump(obj, handle, protocol=None):
            data = pickle.dumps(obj, protocol=protocol)
            handle.write(data[: len(data) // 2])
            raise OSError("crash mid-checkpoint")

        monkeypatch.setattr("repro.core.recovery.pickle.dump", torn_dump)
        with pytest.raises(OSError):
            checkpoint_store(store, snap)
        monkeypatch.undo()
        store.close()

        recovered, report = recover_store(
            "A", str(tmp_path / "wal.log"), snapshot_path=snap
        )
        assert report["discarded"] == 0
        assert [recovered.get("k%d" % i) for i in range(30)] == list(range(30))

    def test_a_checkpoint_is_durable_before_the_log_is_compacted(
        self, tmp_path, monkeypatch
    ):
        """The snapshot's bytes, then its name, then the compaction."""
        store = make_store(tmp_path)
        for i in range(5):
            store.put("k%d" % i, i)
        snap = str(tmp_path / "snap.ckpt")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        real_compact = WriteAheadLog.compact_inplace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        def compact_inplace(wal, keep_from_state):
            calls.append("compact")
            return real_compact(wal, keep_from_state)

        monkeypatch.setattr("repro.core.recovery.os.fsync", fsync)
        monkeypatch.setattr("repro.core.recovery.os.replace", replace)
        monkeypatch.setattr(
            "repro.core.recovery.fsync_dir", lambda path: calls.append(("dir", path))
        )
        monkeypatch.setattr(WriteAheadLog, "compact_inplace", compact_inplace)
        checkpoint_store(store, snap)
        assert calls[:4] == ["fsync", "replace", ("dir", snap), "compact"]
        monkeypatch.undo()
        store.close()

    def test_checkpoint_compacts_log(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(50):
            store.put("x", i)
        size_before = os.path.getsize(store.wal.path)
        checkpoint_store(store, str(tmp_path / "snap.ckpt"))
        size_after = os.path.getsize(store.wal.path)
        assert size_after < size_before / 5
        store.close()

    def test_checkpoint_after_gc_preserves_promotions(self, tmp_path):
        store = make_store(tmp_path)
        sess, idle = store.session("a"), store.session("idle")
        first = store.put("old", "v", session=sess)
        held = store.put("idle", "w", session=idle)
        for i in range(10):
            t = store.begin(session=sess)
            t.put("x", i)
            t.commit()
        sess.place_ceiling()
        store.collect_garbage()
        # ``held`` was collected under the idle session's anchor, which
        # kept its entry. A ceiling there holds it once the session closes.
        assert store.dag.get(held) is None
        store.session("reader").ceiling = held
        store.close_session("idle")
        assert store.collect_garbage().promotions_flushed == 0
        assert store.gc.ceilings == {"a": sess.last_commit_id, "reader": held}
        snap = str(tmp_path / "snap.ckpt")
        checkpoint_store(store, snap)
        store.close()
        recovered, _ = recover_store(
            "A", str(tmp_path / "wal.log"), snapshot_path=snap
        )
        # The held id still resolves after recovery; a collected id that
        # nothing held was dropped at the cycle and stays unresolvable.
        assert recovered.dag.resolve(held).id == sess.last_commit_id
        with pytest.raises(GarbageCollectedError):
            recovered.dag.resolve(first)
        assert recovered.dag.promotion_table_size == 1
        assert recovered.get("old") == "v"
        assert recovered.get("idle") == "w"

    def test_recover_branched_checkpoint(self, tmp_path):
        store = make_store(tmp_path)
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", 1)
        t1.get("x")
        t2.put("x", 2)
        t2.get("x")
        t1.commit()
        t2.commit()
        snap = str(tmp_path / "snap.ckpt")
        checkpoint_store(store, snap)
        store.close()
        recovered, _ = recover_store(
            "A", str(tmp_path / "wal.log"), snapshot_path=snap
        )
        assert len(recovered.dag.leaves()) == 2
        m = recovered.begin_merge()
        assert sorted(m.get_all("x")) == [1, 2]
        m.abort()
