"""The store's lock contract, checked at run time.

Under ``python -X dev`` a ``TardisStore`` routes every call into its
record store and its State DAG through a guard that raises unless the
calling thread holds the store lock (docs/internals.md §11.2). These
tests put the guard on with the same helper the store's constructor
uses, so they run in a plain test session too; subprocess tests check
that dev mode alone switches it on and that nothing is wrapped without
it.
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
from repro.core.ids import ROOT_ID
from repro.core.recovery import recover_store
from repro.core.state_dag import StateDAG
from repro.core.store import _LockGuard
from repro.core.versions import VersionedRecordStore
from repro.errors import GarbageCollectedError
from repro.obs.sampler import ObsSampler
from repro.partitioning.workers import ShardedRecordStore
from repro.server import TardisServer
from repro.tools import dag_to_dot, describe_store, store_summary

PLANES = {
    "flat": {},
    "shards": {"shards": 2},
    "workers": {"shards": 2, "shard_workers": 1},
}

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(params=sorted(PLANES))
def guarded(request):
    store = TardisStore("G", **PLANES[request.param])
    store._guard_lock()
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
        store._guard_lock()
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
        store._guard_lock()
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
        store._guard_lock()
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
        logged._guard_lock()
        logged.put("x", 1)
        logged.close()
        recovered, report = recover_store("G", path)
        assert report["replayed"] == 1 and recovered.get("x") == 1
        recovered.close()


class TestPipelineStaysSharded:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_guard_keeps_the_commit_path(self, plane):
        store = TardisStore("G", **PLANES[plane])
        store._guard_lock()
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


def _fork(store, sessions, key="k"):
    """Concurrent read-writes of ``key`` from one read state: one branch each."""
    txns = [store.begin(session=sess) for sess in sessions]
    for i, txn in enumerate(txns):
        txn.get(key, default=None)
        txn.put(key, i)
    for txn in txns:
        txn.commit()


#: checked StateDAG calls, given the root and a leaf; each raises
#: before it runs, so the writes change nothing.
DAG_CALLS = {
    "resolve": lambda dag, root, leaf: dag.resolve(leaf.id),
    "leaves": lambda dag, root, leaf: dag.leaves(),
    "states": lambda dag, root, leaf: dag.states(),
    "num_forks": lambda dag, root, leaf: dag.num_forks(),
    "find_read_state": lambda dag, root, leaf: dag.find_read_state(bool),
    "fork_points_of": lambda dag, root, leaf: dag.fork_points_of([root, leaf]),
    "states_between": lambda dag, root, leaf: dag.states_between(leaf, root),
    "descendant_check": lambda dag, root, leaf: dag.descendant_check(root, leaf),
    "check_invariants": lambda dag, root, leaf: dag.check_invariants(),
    "promotions": lambda dag, root, leaf: dag.promotions(),
    "add_promotions": lambda dag, root, leaf: dag.add_promotions({}),
    "create_state": lambda dag, root, leaf: dag.create_state([leaf]),
    "prune_promotions": lambda dag, root, leaf: dag.prune_promotions([]),
}


class TestDagGuard:
    def test_every_unlocked_dag_call_raises(self, guarded):
        sid = guarded.put("x", 1)
        with guarded._lock:
            leaf = guarded.dag.resolve(sid)
        for name, call in DAG_CALLS.items():
            message = "StateDAG.%s called without TardisStore._lock" % name
            with pytest.raises(AssertionError) as excinfo:
                call(guarded.dag, guarded.dag.root, leaf)
            assert str(excinfo.value) == message
        with guarded._lock:
            assert [s.id for s in guarded.dag.leaves()] == [sid]
            guarded.dag.check_invariants()

    def test_exemptions_pass_unlocked(self, guarded):
        assert _LockGuard._EXEMPT == {
            "ShardedRecordStore.shard_index",
            "StateDAG.__len__",
            "StateDAG.__contains__",
            "StateDAG.get",
            "StateDAG.promotion_of",
        }
        sid = guarded.put("x", 1)
        dag = guarded.dag
        assert len(dag) == 2
        assert sid in dag and ROOT_ID in dag
        assert ("never", "G") not in dag
        assert dag.get(sid).id == sid and dag.get(("never", "G")) is None
        assert dag.promotion_of(sid) is None
        # Plain attributes pass through.
        assert dag.root.id == ROOT_ID
        assert dag.promotion_table_size == 0
        assert dag.destructive_gen == 0

    def test_the_pipeline_and_every_transaction_share_the_guarded_dag(self, guarded):
        assert isinstance(guarded.dag, _LockGuard)
        assert guarded.pipeline.dag is guarded.dag
        guarded.put("x", 1)
        txn = guarded.begin()
        assert txn.dag is guarded.dag
        txn.abort()
        merge = guarded.begin_merge()
        assert merge.dag is guarded.dag
        merge.abort()

    def test_readers_take_the_lock(self, guarded):
        # Each of these read the DAG unlocked once; one thread is
        # enough to catch that now.
        a, b = guarded.session("a"), guarded.session("b")
        guarded.put("k", 0, session=a)
        _fork(guarded, [a, b])
        merge = guarded.begin_merge(session=a)
        fork = merge.find_fork_points()[0]
        assert merge.find_fork_points(merge.parents) == [fork]
        assert merge.get_for_id("k", fork) == 0
        assert merge.find_conflict_writes(merge.parents) == ["k"]
        merge.put("k", 3)
        guarded.adopt_merge(merge.commit())
        assert "lightblue" in dag_to_dot(guarded)
        assert store_summary(guarded)["fork_points"] == 1
        assert "'k'" in describe_store(guarded, keys=["k"])
        gauges = ObsSampler(guarded, site="G").sample()["gauges"]
        assert gauges["branch_count"] == 1 and gauges["states"] == len(guarded.dag)


class TestReaderBesideWriter:
    def test_readers_beside_a_committing_collecting_writer(self):
        # The race probe that found the unlocked ``num_forks``: a reader
        # thread renders, summarizes and samples while a writer forks,
        # merges and collects. Unlocked, a reader can iterate a dict the
        # writer resizes; with the guard on it raises on first call.
        store = TardisStore("G")
        store._guard_lock()
        sampler = ObsSampler(store, site="G")
        errors = []
        reads = []
        done = threading.Event()

        def write():
            try:
                a, b = store.session("a"), store.session("b")
                for i in range(120):
                    _fork(store, [a, b], key="k%d" % (i % 8))
                    merge = store.begin_merge(session=a)
                    for key in merge.find_conflict_writes():
                        merge.put(key, i)
                    store.adopt_merge(merge.commit())
                    a.place_ceiling()
                    b.place_ceiling()
                    store.collect_garbage()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set() or not reads:
                    dag_to_dot(store)
                    store_summary(store)
                    sampler.sample()
                    reads.append(1)
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=write), threading.Thread(target=read)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert reads and store.gc.states_removed > 0
        store.close()


class TestAdoptMerge:
    def test_moves_exactly_the_sessions_the_merge_subsumes(self):
        store = TardisStore("G")
        store._guard_lock()
        w = store.session("w")
        gone = store.put("g", 1, session=w)
        store.put("g", 2, session=w)
        store.put("g", 3, session=w)
        w.place_ceiling()
        assert store.collect_garbage().states_removed > 0
        stale = store.session("stale")
        stale.last_commit_id = gone
        with store._lock, pytest.raises(GarbageCollectedError):
            stale.last_commit_state()
        fresh = store.session("fresh")  # anchored at the root
        a, b, c = store.session("a"), store.session("b"), store.session("c")
        _fork(store, [a, b, c])
        assert store.metrics.forks == 2
        m = store.session("m")
        merge = store.begin_merge(
            session=m, states=[a.last_commit_id, b.last_commit_id]
        )
        merge.put("k", 9)
        merge_id = merge.commit()
        c_anchor = c.last_commit_id
        # c's branch is not in the merge; stale's anchor was collected.
        assert sorted(store.adopt_merge(merge_id)) == ["a", "b", "fresh", "m", "w"]
        for sess in (a, b, fresh, m, w):
            assert sess.last_commit_id == merge_id
        assert c.last_commit_id == c_anchor
        assert stale.last_commit_id == gone
        store.close()


def test_stats_over_the_wire_on_shard_workers():
    # STATS counts records through the shard links; it now takes the
    # store lock, so the guard lets it through.
    store = TardisStore("G", shards=2, shard_workers=1)
    store._guard_lock()
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
    raised = []
    for call in (store.versions.num_records, store.dag.leaves):
        try:
            call()
            raised.append(False)
        except AssertionError:
            raised.append(True)
    out[plane] = {
        "type": type(store.versions).__name__,
        "dag": type(store.dag).__name__,
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
    wrapped = _LockGuard.__name__
    for plane, cls in bare.items():
        assert out[plane] == {
            "type": wrapped if guard else cls.__name__,
            "dag": wrapped if guard else StateDAG.__name__,
            "sharded": plane == "shards",
            "raised": [guard, guard],
        }
