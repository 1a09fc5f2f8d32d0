"""Tests for fault tolerance: WAL logging, crash recovery, checkpoints (§6.5)."""

import os
import pickle

import pytest

from repro import TardisStore, checkpoint_store, recover_store
from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.errors import CorruptLogError, GarbageCollectedError, TransactionAborted
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
        with store._lock:
            forks = store.dag.num_forks()
            leaves = {l.id for l in store.dag.leaves()}
        with recovered._lock:
            assert recovered.dag.num_forks() == forks
            # Branch structure identical: same leaves.
            assert {l.id for l in recovered.dag.leaves()} == leaves

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
        # recover_store's replay, into a store whose registry is on.
        recovered = TardisStore("A")
        registry = recovered.registry
        registry.enabled = True
        report = recovered._replay(str(tmp_path / "wal.log"))
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


class TestReopen:
    """Opening a log is recovering it: the store appends after what it replayed."""

    @pytest.mark.parametrize("kw", [{}, {"shards": 2}], ids=["flat", "shards=2"])
    def test_an_acknowledged_commit_after_a_reopen_survives(self, tmp_path, kw):
        store = make_store(tmp_path, **kw)
        store.put("x", 1)
        store.put("y", 2)
        store.close()
        store = make_store(tmp_path, **kw)
        assert store.recovery == {"checkpoint_states": 0, "replayed": 2, "discarded": 0}
        assert repr(store.put("z", 3)) == "s3@A"
        assert [store.get(k) for k in "xyz"] == [1, 2, 3]
        store.close()
        path = str(tmp_path / "wal.log")
        assert [repr(r.state_id) for r in WriteAheadLog.read(path)] == ["s1@A", "s2@A", "s3@A"]
        recovered, report = recover_store("A", path, **kw)
        try:
            assert (report["replayed"], report["discarded"]) == (3, 0)
            assert [recovered.get(k) for k in "xyz"] == [1, 2, 3]
        finally:
            recovered.close()

    def test_a_reopen_without_commits_logs_and_counts_nothing(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(4):
            store.put("k%d" % i, i)
        store.close()
        path = str(tmp_path / "wal.log")
        size = os.path.getsize(path)
        store = make_store(tmp_path)
        assert store.recovery["replayed"] == 4
        assert (store.metrics.commits, store.metrics.remote_applied) == (0, 0)
        assert [store.get("k%d" % i) for i in range(4)] == list(range(4))
        store.close()
        assert len(list(WriteAheadLog.read(path))) == 4
        assert os.path.getsize(path) == size

    def test_a_reopen_after_a_checkpoint_loads_it_and_continues(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(5):
            store.put("x", i)
        n = checkpoint_store(store)
        store.put("y", 1)
        store.close()
        store = make_store(tmp_path)
        assert store.recovery == {"checkpoint_states": n, "replayed": 1, "discarded": 0}
        assert (store.get("x"), store.get("y")) == (4, 1)
        assert repr(store.put("z", 2)) == "s7@A"  # after five puts and y
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert (report["checkpoint_states"], report["discarded"]) == (n, 0)
        assert [recovered.get(k) for k in "xyz"] == [4, 1, 2]

    def test_a_compacted_log_without_its_checkpoint_is_refused(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path)
        for i in range(5):
            store.put("x", i)
        checkpoint_store(store)
        store.put("y", 1)
        store.close()
        path = str(tmp_path / "wal.log")
        os.remove(path + ".ckpt")
        with open(path, "rb") as handle:
            before = handle.read()
        opened = []

        class RecordingLog(WriteAheadLog):
            def _open(self):
                super()._open()
                opened.append(self._file)

        monkeypatch.setattr("repro.core.store.WriteAheadLog", RecordingLog)
        with pytest.raises(CorruptLogError, match="discard 2 records"):
            make_store(tmp_path)
        assert len(opened) == 1 and opened[0].closed
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_a_checkpoint_needs_a_log(self):
        store = TardisStore("A")
        store.put("x", 1)
        with pytest.raises(ValueError, match="no log"):
            checkpoint_store(store)


LOG_LEVELS = pytest.mark.parametrize(
    "config",
    [{"sync": True}, {"sync": False, "group_commit": 16}],
    ids=["wal_sync", "group_commit=16"],
)


class TestUnloggableWriteSet:
    """A write set ``pickle`` cannot encode aborts the commit whole."""

    @LOG_LEVELS
    def test_nothing_is_installed_live_or_after_recovery(self, tmp_path, config):
        store = make_store(tmp_path, **config)
        store.recorder.enabled = True
        store.put("b", 1)
        states = len(store.dag)
        t = store.begin()
        t.put("a", lambda: 1)
        t.put("b", 2)
        with pytest.raises(TransactionAborted, match="cannot be logged"):
            t.commit()
        assert t.status == "aborted"
        assert len(store.dag) == states
        assert store.get("b") == 1 and store.get("a") is None
        [abort] = [row for row in store.recorder.rows() if row["name"] == "abort"]
        assert abort["ref"] == "unloggable-writes"
        store.put("c", 3)  # the log still takes commits
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert (report["replayed"], report["discarded"]) == (2, 0)
        assert [recovered.get(k) for k in "abc"] == [None, 1, 3]
        recovered.close()

    def test_a_merge_aborts_the_same_way(self, tmp_path):
        store = make_store(tmp_path)
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", 1)
        t2.put("x", 2)
        t1.commit()
        t2.commit()
        states = len(store.dag)
        m = store.begin_merge()
        m.put("x", lambda: 3)
        with pytest.raises(TransactionAborted):
            m.commit()
        assert m.status == "aborted" and len(store.dag) == states
        store.close()

    def test_an_unloggable_sharded_commit_writes_nothing(self, tmp_path):
        store = make_store(tmp_path, shards=2)
        writes = {"key%03d" % i: i for i in range(8)}
        writes["key000"] = lambda: 0
        t = store.begin()
        for key, value in writes.items():
            t.put(key, value)
        with pytest.raises(TransactionAborted):
            t.commit()
        with store._lock:
            assert store.versions.num_records() == 0
        store.close()


class TestCheckpoint:
    def test_checkpoint_and_recover(self, tmp_path):
        store = make_store(tmp_path)
        sess = store.session("a")
        for i in range(10):
            t = store.begin(session=sess)
            t.put("x", i)
            t.commit()
        n = checkpoint_store(store)
        assert n == len(store.dag)
        assert os.path.exists(store.wal.path + ".ckpt")
        # More commits after the checkpoint land in the compacted log.
        store.put("x", 99, session=sess)
        store.close()

        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
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
        checkpoint_store(store)
        for i in range(3):
            store.put("y", i, session=sess)
        store.close()
        path = str(tmp_path / "wal.log")
        os.remove(path + ".ckpt")
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
        checkpoint_store(store)
        for i in range(25, 30):
            store.put("k%d" % i, i, session=sess)

        def torn_dump(obj, handle, protocol=None):
            data = pickle.dumps(obj, protocol=protocol)
            handle.write(data[: len(data) // 2])
            raise OSError("crash mid-checkpoint")

        monkeypatch.setattr("repro.core.recovery.pickle.dump", torn_dump)
        with pytest.raises(OSError):
            checkpoint_store(store)
        monkeypatch.undo()
        store.close()

        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["discarded"] == 0
        assert [recovered.get("k%d" % i) for i in range(30)] == list(range(30))

    def test_a_checkpoint_is_durable_before_the_log_is_compacted(
        self, tmp_path, monkeypatch
    ):
        """The snapshot's bytes, then its name, then the compaction."""
        store = make_store(tmp_path)
        for i in range(5):
            store.put("k%d" % i, i)
        snap = store.wal.path + ".ckpt"
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
        checkpoint_store(store)
        assert calls[:4] == ["fsync", "replace", ("dir", snap), "compact"]
        monkeypatch.undo()
        store.close()

    def test_checkpoint_compacts_log(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(50):
            store.put("x", i)
        size_before = os.path.getsize(store.wal.path)
        checkpoint_store(store)
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
        checkpoint_store(store)
        store.close()
        recovered, _ = recover_store("A", str(tmp_path / "wal.log"))
        # The held id still resolves after recovery; a collected id that
        # nothing held was dropped at the cycle and stays unresolvable.
        with recovered._lock:
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
        checkpoint_store(store)
        store.close()
        recovered, _ = recover_store("A", str(tmp_path / "wal.log"))
        with recovered._lock:
            assert len(recovered.dag.leaves()) == 2
        m = recovered.begin_merge()
        assert sorted(m.get_all("x")) == [1, 2]
        m.abort()
