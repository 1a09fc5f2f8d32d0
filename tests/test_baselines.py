"""Tests for the baseline systems: lock manager, 2PL store, OCC store."""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    LockManager,
    LockMode,
    OCCStore,
    TwoPhaseLockingStore,
)
from repro.errors import DeadlockError, KeyNotFound, TransactionClosed, ValidationError
from repro.replication.cluster import run_replicated_workload
from repro.sim.adapters import OCCAdapter, TardisAdapter, TwoPLAdapter
from repro.workload import READ_HEAVY, WRITE_HEAVY, RunConfig, YCSBWorkload, run_simulation

#: seeded DES results of both baselines and of TARDiS (``run_des_cases()``
#: dumped with ``json.dump(..., indent=1, sort_keys=True)``). Rewrite it
#: only with a change meant to alter what one of the systems does: the
#: TARDiS entries also pin the ``OpTrace`` counts the cost model charges.
DES_FIXTURE = os.path.join(os.path.dirname(__file__), "baselines_des.json")

#: a seeded 2-site ``run_replicated_workload`` (see
#: ``test_replicated_run_matches_the_pin``), recorded under the same rule.
REPLICATED_PIN = {
    "messages": 1946,
    "per_site": [
        {
            "system": "tardis@us",
            "commits": 793,
            "aborts": 0,
            "p99_latency_ms": 0.4901599999999247,
            "adapter_stats": {"states": 22, "records": 1623, "forks": 21,
                              "merges": 6, "aborts": 0, "leaves": 1,
                              "dag_depth": 9},
        },
        {
            "system": "tardis@eu",
            "commits": 793,
            "aborts": 0,
            "p99_latency_ms": 0.485819999999916,
            "adapter_stats": {"states": 22, "records": 1553, "forks": 22,
                              "merges": 6, "aborts": 0, "leaves": 1,
                              "dag_depth": 9},
        },
    ],
}


class TestLockManager:
    def test_shared_locks_compatible(self):
        lm = LockManager()
        assert lm.acquire(1, "k", LockMode.SHARED).granted
        assert lm.acquire(2, "k", LockMode.SHARED).granted
        assert len(lm.holders("k")) == 2

    def test_exclusive_blocks_shared(self):
        lm = LockManager()
        assert lm.acquire(1, "k", LockMode.EXCLUSIVE).granted
        req = lm.acquire(2, "k", LockMode.SHARED)
        assert not req.granted
        assert lm.waiting("k") == [req]

    def test_shared_blocks_exclusive(self):
        lm = LockManager()
        assert lm.acquire(1, "k", LockMode.SHARED).granted
        assert not lm.acquire(2, "k", LockMode.EXCLUSIVE).granted

    def test_reacquire_held_lock(self):
        lm = LockManager()
        assert lm.acquire(1, "k", LockMode.SHARED).granted
        assert lm.acquire(1, "k", LockMode.SHARED).granted
        assert lm.acquire(1, "k", LockMode.EXCLUSIVE).granted  # upgrade, sole holder
        assert lm.holders("k")[1] == LockMode.EXCLUSIVE
        # X holder re-requesting S keeps X.
        assert lm.acquire(1, "k", LockMode.SHARED).granted
        assert lm.holders("k")[1] == LockMode.EXCLUSIVE

    def test_release_wakes_fifo(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.EXCLUSIVE)
        r2 = lm.acquire(2, "k", LockMode.EXCLUSIVE)
        r3 = lm.acquire(3, "k", LockMode.EXCLUSIVE)
        woken = lm.release_all(1)
        assert woken == [r2]
        assert r2.granted
        assert not r3.granted
        assert lm.release_all(2) == [r3]

    def test_release_wakes_reader_batch(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.EXCLUSIVE)
        r2 = lm.acquire(2, "k", LockMode.SHARED)
        r3 = lm.acquire(3, "k", LockMode.SHARED)
        woken = lm.release_all(1)
        assert set(id(w) for w in woken) == {id(r2), id(r3)}

    def test_writer_not_starved_behind_queued_writer(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.SHARED)
        rw = lm.acquire(2, "k", LockMode.EXCLUSIVE)
        # A new reader must queue behind the queued writer.
        rr = lm.acquire(3, "k", LockMode.SHARED)
        assert not rr.granted
        woken = lm.release_all(1)
        assert woken[0] is rw

    def test_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "b", LockMode.EXCLUSIVE)
        lm.acquire(1, "b", LockMode.EXCLUSIVE)  # 1 waits on 2
        with pytest.raises(DeadlockError):
            lm.acquire(2, "a", LockMode.EXCLUSIVE)  # 2 waits on 1: cycle
        assert lm.deadlocks == 1
        # The victim's request was not left in the queue.
        assert all(r.txn_id != 2 for r in lm.waiting("a"))

    def test_no_false_deadlock(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.EXCLUSIVE)
        lm.acquire(2, "a", LockMode.EXCLUSIVE)
        lm.acquire(3, "a", LockMode.EXCLUSIVE)  # chain, no cycle
        assert lm.deadlocks == 0

    def test_release_all_cleans_up(self):
        lm = LockManager()
        lm.acquire(1, "a", LockMode.SHARED)
        lm.acquire(1, "b", LockMode.EXCLUSIVE)
        assert sorted(lm.held_keys(1)) == ["a", "b"]
        lm.release_all(1)
        assert lm.held_keys(1) == []
        assert lm.holders("a") == {}

    def test_three_way_deadlock_detected(self):
        lm = LockManager()
        for txn, key in ((1, "a"), (2, "b"), (3, "c")):
            lm.acquire(txn, key, LockMode.EXCLUSIVE)
        assert not lm.acquire(1, "b", LockMode.EXCLUSIVE).granted  # 1 -> 2
        assert not lm.acquire(2, "c", LockMode.EXCLUSIVE).granted  # 2 -> 3
        with pytest.raises(DeadlockError):
            lm.acquire(3, "a", LockMode.EXCLUSIVE)  # 3 -> 1 closes the cycle
        assert lm.deadlocks == 1
        assert lm.waiting("a") == []

    def test_competing_upgrades_deadlock(self):
        """Two readers that both upgrade wait on each other."""
        lm = LockManager()
        lm.acquire(1, "k", LockMode.SHARED)
        lm.acquire(2, "k", LockMode.SHARED)
        assert not lm.acquire(1, "k", LockMode.EXCLUSIVE).granted
        with pytest.raises(DeadlockError):
            lm.acquire(2, "k", LockMode.EXCLUSIVE)
        # The victim gives up its S lock; the survivor's upgrade goes through.
        woken = lm.release_all(2)
        assert [(r.txn_id, r.mode) for r in woken] == [(1, LockMode.EXCLUSIVE)]
        assert lm.holders("k") == {1: LockMode.EXCLUSIVE}

    def test_counters(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.EXCLUSIVE)
        lm.acquire(1, "k", LockMode.SHARED)  # already covered by X
        lm.acquire(2, "k", LockMode.SHARED)  # queued
        assert (lm.acquires, lm.waits, lm.deadlocks) == (3, 1, 0)

    def test_release_cancels_queued_request(self):
        lm = LockManager()
        lm.acquire(1, "k", LockMode.EXCLUSIVE)
        lm.acquire(2, "k", LockMode.EXCLUSIVE)
        assert lm.release_all(2) == []
        assert lm.waiting("k") == []
        assert lm.release_all(1) == []
        assert lm.holders("k") == {}


class TestTwoPhaseLockingStore:
    def test_single_threaded_transactions(self):
        store = TwoPhaseLockingStore()
        t = store.begin()
        t.put("x", 1)
        assert t.get("x") == 1
        t.commit()
        t2 = store.begin()
        assert t2.get("x") == 1
        with pytest.raises(KeyNotFound):
            t2.get("missing")
        assert t2.get("missing", default=0) == 0
        t2.commit()
        assert store.commits == 2

    def test_abort_discards(self):
        store = TwoPhaseLockingStore()
        t = store.begin()
        t.put("x", 1)
        t.commit()
        t2 = store.begin()
        t2.put("x", 99)
        t2.abort()
        t3 = store.begin()
        assert t3.get("x") == 1
        assert store.aborts == 1

    def test_writer_blocks_reader(self):
        store = TwoPhaseLockingStore()
        w = store.begin()
        r = store.begin()
        assert store.write(w, "x", 1)[0] == "ok"
        status, request = store.read(r, "x")
        assert status == "wait"
        assert r.blocked_on is request
        woken = store.commit(w)
        assert woken and woken[0].txn_id == r.txn_id
        # Retry after wakeup: lock now held.
        assert store.read(r, "x") == ("ok", 1)

    def test_reader_blocks_writer(self):
        store = TwoPhaseLockingStore()
        t = store.begin()
        t.put("x", 0)
        t.commit()
        r = store.begin()
        w = store.begin()
        assert store.read(r, "x")[0] == "ok"
        assert store.write(w, "x", 1)[0] == "wait"
        store.commit(r)
        assert store.write(w, "x", 1)[0] == "ok"
        store.commit(w)
        check = store.begin()
        assert check.get("x") == 1

    def test_deadlock_propagates(self):
        store = TwoPhaseLockingStore()
        t1, t2 = store.begin(), store.begin()
        store.write(t1, "a", 1)
        store.write(t2, "b", 2)
        assert store.write(t1, "b", 1)[0] == "wait"
        with pytest.raises(DeadlockError):
            store.write(t2, "a", 2)

    def test_deadlock_victim_abort_unblocks_survivor(self):
        store = TwoPhaseLockingStore()
        t1, t2 = store.begin(), store.begin()
        store.write(t1, "a", 1)
        store.write(t2, "b", 2)
        assert store.write(t1, "b", 1)[0] == "wait"
        with pytest.raises(DeadlockError):
            store.write(t2, "a", 2)
        woken = store.abort(t2)
        assert [r.txn_id for r in woken] == [t1.txn_id]
        assert store.write(t1, "b", 1) == ("ok", None)
        store.commit(t1)
        reader = store.begin()
        assert (reader.get("a"), reader.get("b")) == (1, 1)
        assert (store.commits, store.aborts) == (1, 1)

    def test_read_then_write_upgrades_lock(self):
        store = TwoPhaseLockingStore()
        t = store.begin()
        assert store.read(t, "x")[0] == "ok"
        assert store.locks.holders("x") == {t.txn_id: LockMode.SHARED}
        assert store.write(t, "x", 5) == ("ok", None)
        assert store.locks.holders("x") == {t.txn_id: LockMode.EXCLUSIVE}
        store.commit(t)
        assert store.locks.holders("x") == {}
        assert store.begin().get("x") == 5

    def test_closed_transaction_rejected(self):
        store = TwoPhaseLockingStore()
        t = store.begin()
        t.commit()
        with pytest.raises(TransactionClosed):
            store.read(t, "x")


class TestOCCStore:
    def test_basic_commit(self):
        store = OCCStore()
        t = store.begin()
        t.put("x", 1)
        t.commit()
        t2 = store.begin()
        assert t2.get("x") == 1
        t2.commit()

    def test_missing_key(self):
        store = OCCStore()
        t = store.begin()
        with pytest.raises(KeyNotFound):
            t.get("nope")
        assert t.get("nope", default=5) == 5
        t.commit()

    def test_validation_failure_aborts(self):
        store = OCCStore()
        t1 = store.begin()
        t2 = store.begin()
        t1.get("x", default=0)
        t2.put("x", 1)
        t2.commit()
        t1.put("y", 1)
        with pytest.raises(ValidationError):
            t1.commit()
        assert t1.status == "aborted"
        assert store.validation_failures == 1

    def test_blind_writes_do_not_conflict(self):
        store = OCCStore()
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", 1)
        t2.put("x", 2)
        t1.commit()
        t2.commit()  # no reads -> validation passes
        t3 = store.begin()
        assert t3.get("x") == 2
        t3.commit()

    def test_read_only_not_in_history(self):
        """Read-write txns are not validated against read-only ones."""
        store = OCCStore()
        ro = store.begin()
        rw = store.begin()
        ro.get("x", default=0)
        ro.commit()
        rw.get("y", default=0)
        rw.put("y", 1)
        rw.commit()  # must not be invalidated by the read-only commit
        assert store.commits == 2
        assert store._history[-1][1] == frozenset({"y"})

    def test_read_only_still_validated(self):
        """Read-only txns validate their own reads (§7.1.2)."""
        store = OCCStore()
        ro = store.begin()
        ro.get("x", default=0)
        w = store.begin()
        w.put("x", 1)
        w.commit()
        with pytest.raises(ValidationError):
            ro.commit()

    def test_validation_scope_is_lifetime(self):
        store = OCCStore()
        w = store.begin()
        w.put("x", 1)
        w.commit()
        # t begins after w committed: w is not in t's validation scope.
        t = store.begin()
        t.get("x")
        t.put("z", 1)
        t.commit()
        assert store.validation_failures == 0

    def test_history_pruned(self):
        store = OCCStore()
        for i in range(200):
            t = store.begin()
            t.put("k%d" % i, i)
            t.commit()
        assert len(store._history) <= 64

    def test_at_least_one_committer_wins(self):
        """OCC guarantees the first committer succeeds (§7.1.3)."""
        store = OCCStore()
        txns = [store.begin() for _ in range(5)]
        for t in txns:
            t.get("hot", default=0)
            t.put("hot", t.txn_id)
        outcomes = []
        for t in txns:
            try:
                t.commit()
                outcomes.append(True)
            except ValidationError:
                outcomes.append(False)
        assert outcomes[0] is True
        assert outcomes[1:] == [False] * 4


class TestMatchesDictModel:
    @pytest.mark.parametrize("cls", [OCCStore, TwoPhaseLockingStore])
    def test_random_serial_schedule(self, cls):
        """Serially, either store reads and ends up exactly like a dict."""
        rng = random.Random(5)
        keys = ["k%d" % i for i in range(6)]
        schedule = [
            [
                ("r" if rng.random() < 0.5 else "w",
                 rng.choice(keys), rng.randrange(100))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(80)
        ]
        store, model = cls(), {}
        for ops in schedule:
            txn, writes = store.begin(), {}
            for kind, key, value in ops:
                if kind == "r":
                    expected = writes.get(key, model.get(key))
                    assert txn.get(key, default=None) == expected
                else:
                    txn.put(key, value)
                    writes[key] = value
            txn.commit()
            model.update(writes)
        final = store.begin()
        assert {k: final.get(k, default=None) for k in model} == model
        assert len(store) == len(model)

    @pytest.mark.parametrize("cls", [OCCStore, TwoPhaseLockingStore])
    @given(
        st.lists(
            st.tuples(
                st.lists(
                    st.tuples(st.sampled_from("rw"), st.integers(0, 8), st.integers()),
                    min_size=1,
                    max_size=5,
                ),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_serial_commits_and_aborts_match_dict(self, cls, history):
        """Committed writes land as in a dict; aborted ones leave no trace."""
        store, model = cls(), {}
        for ops, commit in history:
            txn, writes = store.begin(), {}
            for kind, key, value in ops:
                if kind == "r":
                    assert txn.get(key, default=None) == writes.get(key, model.get(key))
                else:
                    txn.put(key, value)
                    writes[key] = value
            if commit:
                txn.commit()
                model.update(writes)
            else:
                txn.abort()
        assert len(store) == len(model)
        final = store.begin()
        assert {k: final.get(k) for k in model} == model


@pytest.mark.parametrize("cls", [OCCStore, TwoPhaseLockingStore])
class TestRecordStoreContract:
    """What both single-version stores promise about their records."""

    def test_empty_store(self, cls):
        store = cls()
        assert len(store) == 0
        txn = store.begin()
        with pytest.raises(KeyNotFound):
            txn.get("k")
        assert txn.get("k", default="d") == "d"
        txn.commit()
        assert len(store) == 0  # a miss creates no record

    def test_many_keys_round_trip(self, cls):
        store = cls()
        txn = store.begin()
        for i in range(100):
            txn.put(i, i * 2)
        txn.commit()
        assert len(store) == 100
        reader = store.begin()
        assert [reader.get(i) for i in range(100)] == [i * 2 for i in range(100)]

    def test_overwrite_keeps_one_record(self, cls):
        store = cls()
        for value in range(20):
            txn = store.begin()
            txn.put("k", value)
            txn.commit()
        assert len(store) == 1
        assert store.begin().get("k") == 19

    def test_last_write_in_transaction_wins(self, cls):
        store = cls()
        txn = store.begin()
        txn.put("k", "first")
        assert txn.get("k") == "first"
        txn.put("k", "second")
        assert txn.get("k") == "second"
        txn.commit()
        assert store.begin().get("k") == "second"

    def test_abort_installs_nothing(self, cls):
        store = cls()
        seed = store.begin()
        seed.put("a", 1)
        seed.commit()
        txn = store.begin()
        txn.put("a", 2)
        txn.put("b", 3)
        txn.abort()
        assert len(store) == 1
        reader = store.begin()
        assert reader.get("a") == 1
        assert reader.get("b", default=None) is None

    def test_tuple_keys_are_distinct_records(self, cls):
        store = cls()
        txn = store.begin()
        txn.put(("k", (1, "A")), "v1")
        txn.put(("k", (2, "A")), "v2")
        txn.put(("j", (1, "A")), "v3")
        txn.commit()
        assert len(store) == 3
        reader = store.begin()
        assert reader.get(("k", (1, "A"))) == "v1"
        assert reader.get(("k", (2, "A"))) == "v2"
        assert reader.get(("j", (1, "A"))) == "v3"
        assert reader.get(("k", (3, "A")), default=None) is None

    def test_none_is_a_value_not_a_miss(self, cls):
        store = cls()
        txn = store.begin()
        txn.put("k", None)
        txn.commit()
        assert len(store) == 1
        assert store.begin().get("k") is None  # no KeyNotFound

    def test_finished_transaction_rejected(self, cls):
        store = cls()
        committed = store.begin()
        committed.commit()
        aborted = store.begin()
        aborted.abort()
        for txn in (committed, aborted):
            with pytest.raises(TransactionClosed):
                txn.get("k", default=None)
            with pytest.raises(TransactionClosed):
                txn.put("k", 1)
            with pytest.raises(TransactionClosed):
                txn.commit()
            with pytest.raises(TransactionClosed):
                txn.abort()
        assert len(store) == 0

    def test_commit_and_abort_counters(self, cls):
        store = cls()
        for i in range(3):
            txn = store.begin()
            txn.put(i, i)
            txn.commit()
        for _ in range(2):
            store.begin().abort()
        assert (store.commits, store.aborts) == (3, 2)


DES_CASES = [
    ("read-heavy-uniform", READ_HEAVY, "uniform"),
    ("write-heavy-zipfian", WRITE_HEAVY, "zipfian"),
]


def run_des_cases():
    """``{"<system>/<case>": outcome}`` for each system on each case."""
    out = {}
    for adapter_cls in (TwoPLAdapter, OCCAdapter, TardisAdapter):
        for case, mix, pattern in DES_CASES:
            result = run_simulation(
                adapter_cls(),
                YCSBWorkload(mix=mix, n_keys=200, pattern=pattern),
                RunConfig(n_clients=16, duration_ms=60.0, warmup_ms=10.0, seed=3),
            )
            out["%s/%s" % (result.system, case)] = {
                "commits": result.commits,
                "aborts": result.aborts,
                "lock_waits": result.lock_waits,
                "p99_latency_ms": result.p99_latency_ms,
                "op_breakdown_ms": result.op_breakdown_ms,
                "adapter_stats": result.adapter_stats,
            }
    return json.loads(json.dumps(out))


class TestDESOutputPinned:
    def test_baseline_runs_match_the_fixture(self):
        with open(DES_FIXTURE) as handle:
            fixture = json.load(handle)
        assert fixture["bdb/write-heavy-zipfian"]["lock_waits"] > 0
        assert fixture["occ/write-heavy-zipfian"]["aborts"] > 0
        assert run_des_cases() == fixture

    def test_replicated_run_matches_the_pin(self):
        result = run_replicated_workload(
            2,
            lambda: YCSBWorkload(mix=WRITE_HEAVY, n_keys=200, pattern="zipfian"),
            RunConfig(n_clients=4, duration_ms=60.0, warmup_ms=10.0, cores=2,
                      seed=3, maintenance_interval_ms=10.0),
        )
        assert result.messages == REPLICATED_PIN["messages"]
        assert [
            {
                "system": r.system,
                "commits": r.commits,
                "aborts": r.aborts,
                "p99_latency_ms": r.p99_latency_ms,
                "adapter_stats": r.adapter_stats,
            }
            for r in result.per_site
        ] == REPLICATED_PIN["per_site"]


@pytest.mark.parametrize("adapter_cls", [TwoPLAdapter, OCCAdapter])
def test_baselines_run_without_divergence_series(adapter_cls):
    """Series sampling is a no-op on a store without a branching DAG."""
    result = run_simulation(
        adapter_cls(),
        YCSBWorkload(n_keys=200),
        RunConfig(n_clients=4, duration_ms=30.0, warmup_ms=5.0,
                  series_interval_ms=5.0),
    )
    assert result.commits > 0
    assert not [v for v in result.obs_metrics.values() if v.get("type") == "series"]
