"""Tests for the shard plane (routed store, links, cross-shard commits).

Covers ``TardisStore(site, shards=N[, shard_workers=M])`` end to end:
scatter/gather batched reads, cross-shard commits (one write per
shard, rolled back whole with a typed abort when a worker dies or a
value cannot be pickled, and the drain rule after a partial scatter
failure), mask-table pruning and worker lifecycle (clean close, no
leaks). Histories of both planes under a branching/merging/GC workload
are checked against their logs in tests/test_history.py.

Worker processes use the ``spawn`` start method, so each store pays
real startup cost: tests share stores where possible and keep worker
counts small.
"""

import os
import pickle
import pickletools
import random
import re
import select
import selectors
import signal
import sys
import threading
import time

import pytest

from repro import TardisStore, recover_store
from repro.core.ids import StateId
from repro.errors import (
    CrossShardAbort,
    GarbageCollectedError,
    ShardUnavailableError,
    TransactionAborted,
)
from repro.core.state_dag import StateDAG
from repro.partitioning import ShardedRecordStore
from repro.partitioning import workers as _workers
from repro.partitioning.workers import _FrameReader, _WorkerHandle, _frame


@pytest.fixture
def proc_store():
    store = TardisStore("A", shards=4, shard_workers=2)
    yield store
    store.close()


class TestShardWorkerBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedRecordStore(StateDAG("A"), n_shards=2, n_workers=4)
        with pytest.raises(ValueError):
            ShardedRecordStore(StateDAG("A"), n_shards=0)

    def test_round_trip_and_delete(self, proc_store):
        proc_store.put("x", {"nested": [1, 2]})
        assert proc_store.get("x") == {"nested": [1, 2]}
        txn = proc_store.begin()
        txn.delete("x")
        txn.commit()
        assert proc_store.get("x", default="gone") == "gone"

    def test_get_many_parity_with_get(self, proc_store):
        keys = ["key%03d" % i for i in range(40)]
        txn = proc_store.begin()
        for i, key in enumerate(keys):
            txn.put(key, i)
        txn.commit()
        txn = proc_store.begin(read_only=True)
        batched = txn.get_many(keys + ["missing"], default=None)
        singles = [txn.get(k, default=None) for k in keys + ["missing"]]
        txn.commit()
        assert batched == singles
        assert batched[:-1] == list(range(40))
        assert batched[-1] is None

    def test_records_spread_across_workers(self, proc_store):
        txn = proc_store.begin()
        for i in range(64):
            txn.put("key%03d" % i, i)
        txn.commit()
        with proc_store._lock:
            balance = proc_store.versions.balance()
        assert sum(balance) == 64
        assert sum(1 for b in balance if b > 0) > 1

    def test_cross_shard_commit_metric(self):
        store = TardisStore("A", shards=4, shard_workers=2)
        store.registry.enabled = True
        try:
            txn = store.begin()
            for i in range(16):  # certainly spans shards
                txn.put("key%03d" % i, i)
            txn.commit()
            assert store.registry.counter_value("tardis_commit_cross_shard_total") >= 1
        finally:
            store.close()

    def test_close_is_idempotent_and_leak_free(self):
        store = TardisStore("A", shards=4, shard_workers=2)
        store.put("x", 1)
        store.close()
        assert store.leaked_workers == 0
        store.close()  # second close is a no-op
        assert store.leaked_workers == 0


class TestConcurrentReads:
    def test_reads_from_two_threads_keep_the_links_in_step(self, proc_store):
        # Each read is a request/reply on a shared worker pipe: without
        # the store lock two threads interleave on one link and read
        # each other's replies (or half a frame).
        values = {"key%03d" % i: "value-%d" % i for i in range(64)}
        txn = proc_store.begin()
        for key, value in values.items():
            txn.put(key, value)
        txn.commit()
        keys = sorted(values)
        errors = []

        def reader(seed):
            rng = random.Random(seed)
            session = proc_store.session("reader-%d" % seed)
            try:
                for _ in range(400):
                    batch = rng.sample(keys, 4)
                    txn = proc_store.begin(session=session, read_only=True)
                    got = txn.get_many(batch)
                    txn.commit()
                    assert got == [values[key] for key in batch]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in (1, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-request
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestWorkerFailure:
    def test_commit_to_dead_worker_aborts_typed(self):
        store = TardisStore("A", shards=4, shard_workers=2)
        try:
            store.put("seed", 0)
            states = len(store.dag)
            aborts = store.metrics.aborts
            with store._lock:
                store.versions.kill_worker(0)
            txn = store.begin()
            for i in range(16):  # hits shards on both workers
                txn.put("key%03d" % i, i)
            with pytest.raises(CrossShardAbort) as excinfo:
                txn.commit()
            # Typed: retry loops written for TransactionAborted still work.
            assert isinstance(excinfo.value, TransactionAborted)
            # Clean abort: no committed-looking state with lost writes.
            assert len(store.dag) == states
            assert store.metrics.aborts == aborts + 1
        finally:
            store.close()

    def test_read_from_dead_worker_raises_shard_unavailable(self):
        store = TardisStore("A", shards=2, shard_workers=2)
        try:
            txn = store.begin()
            for i in range(16):
                txn.put("key%03d" % i, i)
            txn.commit()
            with store._lock:
                store.versions.kill_worker(1)
            txn = store.begin(read_only=True)
            with pytest.raises(ShardUnavailableError):
                txn.get_many(["key%03d" % i for i in range(16)])
        finally:
            store.close()

    def test_shard_abort_metric(self):
        store = TardisStore("A", shards=2, shard_workers=2)
        registry = store.registry
        registry.enabled = True
        try:
            with store._lock:
                store.versions.kill_worker(0)
            txn = store.begin()
            for i in range(8):
                txn.put("key%03d" % i, i)
            with pytest.raises(CrossShardAbort):
                txn.commit()
            assert registry.counter_value("tardis_commit_shard_abort_total") == 1
        finally:
            store.close()


    def test_a_worker_killed_with_a_batch_in_flight_fails_fast(self):
        store = TardisStore("A", shards=2, shard_workers=1)
        try:
            versions = store.versions
            handle = versions._links[0]
            pid = handle.process.pid
            with store._lock:
                os.kill(pid, signal.SIGSTOP)  # the batch stays unread
                handle.request(next(versions._batch_ids), None, [("ping",)])
                os.kill(pid, signal.SIGKILL)
                started = time.perf_counter()
                with pytest.raises(ShardUnavailableError, match="worker died"):
                    handle.collect(_workers.WORKER_TIMEOUT)
                took = time.perf_counter() - started
            assert took < 1.0  # seen on the socket, not after WORKER_TIMEOUT
            assert not handle.alive
        finally:
            store.close()

    def test_a_worker_that_died_unseen_fails_the_next_request(self):
        # No kill_worker(): nothing marked the link dead before the read.
        store = TardisStore("A", shards=2, shard_workers=1)
        try:
            store.put("x", 1)
            handle = store.versions._links[0]
            handle.process.kill()
            handle.process.join(5.0)
            assert handle.alive
            with pytest.raises(ShardUnavailableError):
                store.get("x")
            assert not handle.alive
            with pytest.raises(ShardUnavailableError, match="dead"):
                store.get("x")
        finally:
            store.close()
        assert store.leaked_workers == 0

    def test_a_stopped_worker_times_out_and_is_reaped(self, monkeypatch):
        store = TardisStore("A", shards=2, shard_workers=1)
        try:
            store.put("x", 1)
            handle = store.versions._links[0]
            monkeypatch.setattr(_workers, "WORKER_TIMEOUT", 0.5)
            os.kill(handle.process.pid, signal.SIGSTOP)
            started = time.perf_counter()
            with pytest.raises(ShardUnavailableError, match="no reply"):
                store.get("x")
            assert time.perf_counter() - started < 5.0
            assert not handle.alive
        finally:
            started = time.perf_counter()
            store.close()
        # A dead link is killed at once: no grace, no terminate step.
        assert time.perf_counter() - started < 1.0
        assert not handle.process.is_alive()
        assert store.leaked_workers == 1


class _Trickle:
    """A stream that hands out at most ``chunk`` bytes per ``recv_into``."""

    def __init__(self, data, chunk):
        self._data = memoryview(data)
        self._chunk = chunk
        self.calls = 0

    def recv_into(self, into):
        self.calls += 1
        got = min(self._chunk, len(into), len(self._data))
        into[:got] = self._data[:got]
        self._data = self._data[got:]
        return got


class _CountingSocket:
    """Wraps a link's socket and records every call made on it, and
    every byte sent and received."""

    def __init__(self, sock):
        self.sock = sock
        self.calls = []
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data):
        self.calls.append("sendall")
        self.sent += data
        return self.sock.sendall(data)

    def recv_into(self, into):
        self.calls.append("recv_into")
        got = self.sock.recv_into(into)
        self.received += into[:got]
        return got

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.sock, name)


def _forbidden(*args, **kwargs):
    raise AssertionError("a shard RPC polled its socket")


class TestFraming:
    MESSAGES = [("a", 1, None), list(range(50)), {"k": "v" * 40}]

    @pytest.mark.parametrize("buffer", [8, 64, _workers.RECV_BUFFER])
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
    def test_frames_decode_however_the_stream_splits_them(self, buffer, chunk):
        # chunk=1: every header and payload is split; buffer=8: every
        # payload is larger than the buffer; chunk=1<<20: a read takes
        # all the buffer holds, so frames share reads and split anywhere.
        source = _Trickle(b"".join(_frame(m) for m in self.MESSAGES), chunk)
        reader = _FrameReader(buffer)
        assert [reader.read(source) for _ in self.MESSAGES] == self.MESSAGES
        with pytest.raises(EOFError):
            reader.read(source)

    def test_frames_that_arrive_together_take_one_read(self):
        source = _Trickle(_frame("one") + _frame("two"), 1 << 20)
        reader = _FrameReader()
        assert (reader.read(source), reader.read(source)) == ("one", "two")
        assert source.calls == 1

    def test_a_stream_that_ends_mid_frame_is_eof(self):
        data = _frame(list(range(100)))
        for cut in (2, len(data) - 1):
            with pytest.raises(EOFError):
                _FrameReader(16).read(_Trickle(data[:cut], 5))

    def test_a_reply_larger_than_the_receive_buffer_round_trips(self):
        store = TardisStore("A", shards=2, shard_workers=1)
        try:
            keys = ["key%06d" % i for i in range(20000)]
            # One worker owns both shards: its write batch and its
            # replies carry every key, several buffers' worth.
            assert len(pickle.dumps(keys)) > 2 * _workers.RECV_BUFFER
            txn = store.begin()
            for i, key in enumerate(keys):
                txn.put(key, i)
            txn.commit()
            with store._lock:
                assert sorted(store.versions.keys()) == keys
            txn = store.begin(read_only=True)
            assert txn.get_many(keys) == list(range(20000))
            txn.commit()
            assert store.get(keys[-1]) == 19999  # the link is still in step
        finally:
            store.close()

    def test_one_rpc_is_one_sendall_and_one_recv_into(self, monkeypatch):
        store = TardisStore("A", shards=2, shard_workers=1)
        try:
            store.put("x", 1)
            versions = store.versions
            handle = versions._links[0]
            counting = _CountingSocket(handle.sock)
            monkeypatch.setattr(select, "select", _forbidden)
            monkeypatch.setattr(select, "poll", _forbidden)
            monkeypatch.setattr(selectors, "DefaultSelector", _forbidden)
            handle.sock = counting
            try:
                with store._lock:
                    assert versions.num_versions("x") == 1
            finally:
                handle.sock = counting.sock
            # No process poll, no selector, no settimeout per call.
            assert counting.calls == ["sendall", "recv_into"]
        finally:
            store.close()


class TestDrainAfterPartialFailure:
    """A scatter that fails part-way must not leave a reply unread.

    ``collect`` returns a link's *oldest* outstanding reply, so a reply
    abandoned on the healthy worker would answer the next request.
    """

    @staticmethod
    def _store_with_dead_worker():
        store = TardisStore("A", shards=4, shard_workers=2)
        keys = ["k%d" % i for i in range(16)]
        for i, key in enumerate(keys):
            store.put(key, i)
        by_worker = {0: [], 1: []}
        for key in keys:
            by_worker[store.versions.shard_index(key) % 2].append(key)
        with store._lock:
            store.versions.kill_worker(1)
        return store, by_worker

    @staticmethod
    def _assert_live_worker_in_step(store, live_keys):
        for key in live_keys:
            assert store.get(key) == int(key[1:])
        live = store.shard_health(ping=False)["workers"][0]
        assert live["alive"] and live["queue_depth"] == 0

    def test_reads_after_a_failed_read_scatter(self):
        store, by_worker = self._store_with_dead_worker()
        try:
            txn = store.begin(read_only=True)
            with pytest.raises(ShardUnavailableError):
                txn.get_many([by_worker[0][0], by_worker[1][0]])
            txn.abort()
            self._assert_live_worker_in_step(store, by_worker[0])
        finally:
            store.close()

    def test_reads_after_a_failed_multi_shard_install(self):
        store, by_worker = self._store_with_dead_worker()
        try:
            versions = store.versions
            shards = {versions.shard_index(k): k for k in by_worker[0]}
            assert len(shards) == 2  # two shards, both on the live worker
            live_a, live_b = shards.values()
            writes = {live_a: "a", live_b: "b", by_worker[1][0]: "c"}
            with store._lock:
                plan = versions.prepare_commit(writes)
            # Three shards: the live worker gets its two writes in one
            # batch and they are read back; the dead worker's fails.
            assert len(plan) == 3
            txn = store.begin()
            for key, value in writes.items():
                txn.put(key, value)
            with pytest.raises(CrossShardAbort):
                txn.commit()
            self._assert_live_worker_in_step(store, by_worker[0])
        finally:
            store.close()

    def test_repr_with_a_dead_worker_is_a_string(self):
        store, _by_worker = self._store_with_dead_worker()
        try:
            assert "shards=4 workers=2" in repr(store)
            with pytest.raises(ShardUnavailableError), store._lock:
                store.versions.num_records()
        finally:
            store.close()


def _one_key_per_worker(store):
    """A key on worker 0 and a key on worker 1."""
    by_worker = {}
    for i in range(64):
        key = "k%d" % i
        by_worker.setdefault(store.versions.shard_index(key) % 2, key)
    return by_worker[0], by_worker[1]


def _die_on_install(monkeypatch, handle):
    """``handle``'s worker dies after a commit's writes are sent to it
    and before it reads them. Returns the states whose install ran."""
    install, request = ShardedRecordStore.install_commit, _WorkerHandle.request
    installing = []

    def install_commit(self, plan, state):
        installing.append(state)
        return install(self, plan, state)

    def request_then_die(self, batch_id, sync, cmds):
        if self is not handle or not installing:
            return request(self, batch_id, sync, cmds)
        os.kill(self.process.pid, signal.SIGSTOP)  # the batch stays unread
        request(self, batch_id, sync, cmds)
        self.kill()

    monkeypatch.setattr(ShardedRecordStore, "install_commit", install_commit)
    monkeypatch.setattr(_WorkerHandle, "request", request_then_die)
    return installing


class TestInstallRollback:
    """A commit whose install fails on any shard is removed whole (§4):
    no state, no version a reader can see, no log record."""

    def test_a_worker_dying_mid_install_aborts_the_whole_commit(self, monkeypatch):
        store = TardisStore("A", shards=4, shard_workers=2)
        try:
            live, dying = _one_key_per_worker(store)
            store.put(live, "old")
            store.put(dying, "old")
            states, aborts = len(store.dag), store.metrics.aborts
            _die_on_install(monkeypatch, store.versions._links[1])
            txn = store.begin()
            txn.put(live, "new")
            txn.put(dying, "new")
            with pytest.raises(CrossShardAbort):
                txn.commit()
            assert txn.status == "aborted"
            assert len(store.dag) == states
            assert store.get(live) == "old"
            assert store.metrics.aborts == aborts + 1
            with store._lock:
                store.dag.check_invariants()
        finally:
            store.close()

    def test_a_rolled_back_fork_leaves_its_parent_free_to_fork(self, proc_store):
        store = proc_store
        a, b = _one_key_per_worker(store)
        txn = store.begin()
        txn.put(a, "old")
        txn.put(b, "old")
        txn.commit()
        sessions = [store.session("s%d" % i) for i in range(3)]
        t1, t2, t3 = [store.begin(session=s) for s in sessions]
        for txn in (t1, t2, t3):
            assert txn.get(a) == "old"  # so each later commit forks
        t1.put(a, "t1")
        t1.put(b, "t1")
        t1.commit()
        states = len(store.dag)
        t2.put(a, "t2")
        t2.put(b, lambda: 1)  # the pipe cannot carry it
        with pytest.raises(CrossShardAbort):
            t2.commit()
        assert len(store.dag) == states and store.metrics.forks == 0
        t3.put(a, "t3")
        t3.commit()
        assert store.metrics.forks == 1
        with store._lock:
            store.dag.check_invariants()
        reads = {}
        for session in (sessions[0], sessions[2]):
            txn = store.begin(session=session, read_only=True)
            reads[session.name] = txn.get_many([a, b])
            txn.commit()
        assert reads == {"s0": ["t1", "t1"], "s2": ["t3", "old"]}

    def test_an_unpicklable_value_aborts_and_keeps_both_links_in_step(self, proc_store):
        store = proc_store
        keys = ["k%d" % i for i in range(16)]
        txn = store.begin()
        for i, key in enumerate(keys):
            txn.put(key, i)
        txn.commit()
        a, b = _one_key_per_worker(store)
        states = len(store.dag)
        for writes in ({a: "new", b: lambda: 1}, {b: lambda: 1}):
            txn = store.begin()
            for key, value in writes.items():
                txn.put(key, value)
            with pytest.raises(CrossShardAbort):
                txn.commit()
            assert txn.status == "aborted" and len(store.dag) == states
        for key in keys:  # each link answers each request with its own reply
            assert store.get(key) == int(key[1:])
        txn = store.begin(read_only=True)
        assert txn.get_many(keys) == list(range(16))
        txn.commit()
        for worker in store.shard_health(ping=True)["workers"]:
            assert worker["alive"] and worker["queue_depth"] == 0

    def test_a_batch_that_cannot_be_sent_leaves_the_mask_table_in_step(self, proc_store):
        """The sync a failed send carried is shipped again later."""
        store = proc_store
        a, b = _one_key_per_worker(store)
        txn = store.begin()
        txn.put(a, "old")
        txn.put(b, "old")
        txn.commit()
        first, second = store.session("first"), store.session("second")
        t1, t2 = store.begin(session=first), store.begin(session=second)
        t1.put(b, "first")
        t1.commit()  # worker 1 learns t1's row
        assert t2.get(b) == "old"
        t2.put(a, "second")
        t2.commit()  # a fork; only worker 0 hears that t1's row changed
        txn = store.begin(session=second)
        txn.put(b, lambda: 1)
        with pytest.raises(CrossShardAbort):
            txn.commit()  # its batch would have told worker 1
        txn = store.begin(session=second, read_only=True)
        assert txn.get(b) == "old"  # t1's write is on the other branch
        txn.commit()

    def test_an_orphan_version_is_invisible_and_collected(self, proc_store):
        store = proc_store
        a, b = _one_key_per_worker(store)
        txn = store.begin()
        txn.put(a, "old")
        txn.put(b, "old")
        txn.commit()
        versions = store.versions
        with store._lock:
            records = versions.num_records()
        txn = store.begin()
        txn.put(a, "new")
        txn.put(b, lambda: 1)
        with pytest.raises(CrossShardAbort):
            txn.commit()
        # Worker 0 wrote ``a`` under the removed state's id.
        with store._lock:
            assert len(versions.versions_of(a)) == 2
            assert versions.num_records() == records + 1
        assert store.get(a) == "old"
        store.collect_garbage()
        with store._lock:
            assert len(versions.versions_of(a)) == 1
            assert versions.num_records() == records
        assert store.get(a) == "old"

    def test_the_log_never_sees_a_rolled_back_commit(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        store = TardisStore("A", shards=4, shard_workers=2, wal_path=path)
        try:
            live, dying = _one_key_per_worker(store)
            store.put(live, "old")
            installing = _die_on_install(monkeypatch, store.versions._links[1])
            txn = store.begin()
            txn.put(live, "new")
            txn.put(dying, "new")
            with pytest.raises(CrossShardAbort):
                txn.commit()
        finally:
            store.close()
        recovered, report = recover_store("A", path)
        assert report["replayed"] == 1
        assert installing[-1].id not in recovered.dag
        assert recovered.get(live) == "old"
        recovered.close()


class TestMaskTable:
    def test_stats_are_one_request_per_worker(self, proc_store):
        proc_store.put("x", 1)
        versions = proc_store.versions
        before = next(versions._batch_ids)
        with proc_store._lock:
            assert versions.num_records() == 1
            assert versions.num_keys() == 1
            assert sum(versions.balance()) == 1
            assert versions.cache_info()["size"] == 0  # nothing was read
        # 4 calls x 2 workers (+ the probe above), not 4 x 4 shards.
        assert next(versions._batch_ids) - before == 1 + 4 * 2

    def test_table_stays_bounded_across_gc_cycles(self, proc_store):
        flat = TardisStore("A")
        keys = ["key%d" % i for i in range(5)]
        for store in (proc_store, flat):
            session = store.session("w")
            for i in range(300):
                store.put(keys[i % 5], i, session=session)
                if i % 50 == 49:
                    session.place_ceiling()
                    store.collect_garbage()
        assert len(proc_store.dag) == len(flat.dag)
        with proc_store._lock:
            live = len(proc_store.dag) + proc_store.versions.num_records()
        for handle in proc_store.versions._links:
            assert len(handle._shipped) <= 4 * live
        for store in (proc_store, flat):
            store.session("w").place_ceiling()
            store.collect_garbage()
        txn, oracle = proc_store.begin(read_only=True), flat.begin(read_only=True)
        assert txn.get_many(keys) == oracle.get_many(keys)
        with proc_store._lock, flat._lock:
            assert proc_store.versions.num_records() == flat.versions.num_records()

    def test_heir_state_is_resolvable_on_every_worker(self):
        """A record promoted to an heir whose own commit never touched
        this worker must stay visible (the heir's mask is shipped)."""
        stores = [
            TardisStore("A"),
            TardisStore("A", shards=2, shard_workers=2, shard_of=_a_alone),
        ]
        try:
            seen = []
            for store in stores:
                session = store.session("w")
                store.put("a", 1, session=session)
                for i in range(5):
                    store.put("b", i, session=session)
                session.place_ceiling()
                store.collect_garbage()
                store.put("b", 9, session=session)
                store.collect_garbage()
                with store._lock:
                    seen.append(
                        (
                            store.get("a", session=session),
                            store.get("b", session=session),
                            store.versions.num_records(),
                        )
                    )
            assert seen[0] == seen[1] == (1, 9, 3)
        finally:
            for store in stores:
                store.close()


def _a_alone(key, n_shards):
    return 0 if key == "a" else 1


def _bodies(stream):
    """The pickles of the frames a link's byte stream holds."""
    header, view, bodies = _workers._HEADER, memoryview(stream), []
    while view:
        (size,) = header.unpack_from(view)
        bodies.append(bytes(view[header.size : header.size + size]))
        view = view[header.size + size :]
    return bodies


#: pickle opcodes that name or build an object of a class.
_CLASS_OPCODES = {"GLOBAL", "STACK_GLOBAL", "INST", "OBJ", "NEWOBJ", "NEWOBJ_EX", "REDUCE"}


class TestPlainFrames:
    """A shard link carries plain values only: ids cross as (counter,
    site) tuples, so no frame pickles a class (docs/internals.md §13.2)."""

    def test_no_frame_names_a_class(self):
        store = TardisStore("A", shards=4, shard_workers=2)
        sockets = []
        try:
            for handle in store.versions._links:
                handle.sock = _CountingSocket(handle.sock)
                sockets.append(handle.sock)
            keys = ["key%02d" % i for i in range(16)]
            a, b = store.session("a"), store.session("b")
            txn = store.begin(session=a)  # preload: every shard, both links
            for i, key in enumerate(keys):
                txn.put(key, i)
            txn.commit()
            assert store.get(keys[0], session=a) == 0
            txn = store.begin(read_only=True, session=a)
            assert txn.get_many(keys) == list(range(16))
            txn.commit()
            for key in keys[:4]:  # read-modify-write commits
                txn = store.begin(session=a)
                txn.put(key, txn.get(key) + 1)
                txn.commit()
            t1, t2 = store.begin(session=a), store.begin(session=b)
            t1.put(keys[0], t1.get(keys[0]) + 1)
            t2.put(keys[0], t2.get(keys[0]) + 2)
            t1.commit()
            t2.commit()  # a fork
            merge = store.begin_merge(session=a)
            merge.put(keys[0], max(merge.get_all(keys[0])))  # read_candidates
            merge.commit()
            with store._lock:
                assert len(store.versions.versions_of(keys[0])) == 5
            for session in (a, b):
                session.place_ceiling()
            stats = store.collect_garbage()  # re-syncs masks, promotes
            assert stats.states_removed and stats.records_promoted
            assert store.get(keys[0], session=a) == 3
        finally:
            store.close()
        ops, synced = set(), 0
        for sock in sockets:
            for body in _bodies(sock.sent):
                _, sync, cmds = pickle.loads(body)
                ops.update(cmd[0] for cmd in cmds)
                synced += sync is not None and bool(sync[0])
        assert ops >= {"write", "read_many", "read_candidates", "versions_of", "promote"}
        assert synced
        for sock in sockets:
            for body in _bodies(sock.sent) + _bodies(sock.received):
                named = {op.name for op, _, _ in pickletools.genops(body)}
                assert not named & _CLASS_OPCODES, pickle.loads(body)


PLANES = {
    "flat": {},
    "inline": {"shards": 4},
    "workers": {"shards": 4, "shard_workers": 2},
}


def _forked(store):
    """Load eight keys, then fork key k0 into two branches; the read
    states of both branch heads."""
    a, b = store.session("a"), store.session("b")
    txn = store.begin(session=a)
    for i in range(8):
        txn.put("k%d" % i, i)
    txn.commit()
    t1, t2 = store.begin(session=a), store.begin(session=b)
    t1.put("k0", t1.get("k0") + 1)
    t2.put("k0", t2.get("k0") + 2)
    t1.commit()
    t2.commit()
    with store._lock:
        return store.dag.resolve(a.last_commit_id), store.dag.resolve(b.last_commit_id)


def _id_answers(store):
    """What the record store answers, ids included, on a forked key."""
    keys = ["k%d" % i for i in range(8)]
    sa, sb = _forked(store)
    versions, dag = store.versions, store.dag
    with store._lock:
        return {
            "read_visible": [versions.read_visible("k0", sa, dag)],
            "read_visible_many": versions.read_visible_many(keys, sb, dag),
            "read_candidates": versions.read_candidates("k0", [sa, sb], dag),
            "versions_of": [(sid, None) for sid in versions.versions_of("k0")],
        }


class TestIdsComeBackTyped:
    """Every plane hands its callers StateIds, as the flat store does."""

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_read_answers_carry_state_ids(self, plane):
        flat, store = TardisStore("A"), TardisStore("A", **PLANES[plane])
        try:
            answers = _id_answers(store)
            assert answers == _id_answers(flat)
        finally:
            store.close()
        ids = [sid for hits in answers.values() for sid, _ in hits]
        assert len(ids) == 1 + 8 + 2 + 3
        assert all(type(sid) is StateId for sid in ids)
        assert all(re.fullmatch(r"s\d+@A", repr(sid)) for sid in ids)

    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_a_garbage_collected_error_names_a_state_id(self, plane, monkeypatch):
        store = TardisStore("A", **PLANES[plane])
        try:
            sa, sb = _forked(store)
            versions, dag = store.versions, store.dag
            gone = sb.id
            with store._lock:
                # Leaves k0's cache entry at sb, whose version is gone
                # below: sb's read hits the cache, sa's walks past it,
                # and comparing the two candidates resolves it.
                versions.read_candidates("k0", [sa, sb], dag)
            if plane == "workers":
                send = _WorkerHandle.request

                def forget(self, batch_id, sync, cmds):
                    send(self, batch_id, ({tuple(gone): None}, False), cmds)

                monkeypatch.setattr(_WorkerHandle, "request", forget)
            else:
                resolve = StateDAG.resolve

                def forgotten(self, state_id):
                    if state_id == gone:
                        raise GarbageCollectedError(state_id)
                    return resolve(self, state_id)

                monkeypatch.setattr(StateDAG, "resolve", forgotten)
            with store._lock, pytest.raises(GarbageCollectedError) as excinfo:
                versions.read_candidates("k0", [sb, sa], dag)
            assert type(excinfo.value.state_id) is StateId
            assert excinfo.value.state_id == gone
        finally:
            store.close()


class TestShardedCacheCounts:
    @pytest.mark.parametrize("plane", ["inline", "workers"])
    def test_the_registry_mirrors_the_shards_cache_counts(self, plane):
        store = TardisStore("A", **PLANES[plane])
        try:
            keys = ["key%02d" % i for i in range(16)]
            session = store.session("w")
            for i in range(64):
                store.put(keys[i % 16], i, session=session)
            for _ in range(2):  # misses, then hits
                txn = store.begin(read_only=True, session=session)
                txn.get_many(keys)
                txn.commit()
            session.place_ceiling()
            store.collect_garbage()
            store.get(keys[0], session=session)  # drops the cache: invalidations
            versions, registry = store.versions, store.registry
            with store._lock:
                info = versions.cache_info()
            registry.enabled = True
            before = next(versions._batch_ids)
            counted = [
                registry.counter_value("tardis_vis_cache_%s_total" % name)
                for name in ("hit", "miss", "invalidations")
            ]
            assert counted == [info["hits"], info["misses"], info["invalidations"]]
            assert min(counted) > 0
            assert next(versions._batch_ids) == before + 1  # no link message
            if plane == "workers":
                with store._lock:
                    versions.kill_worker(0)
                assert registry.to_dict()["tardis_vis_cache_hit_total"]["value"] == info["hits"]
        finally:
            store.close()
