"""Tests for the §6.4 partitioning extension."""

import random

import pytest

from repro import TardisStore
from repro.core.state_dag import StateDAG
from repro.partitioning import (
    ShardedRecordStore,
    ShardRouter,
    stable_key_bytes,
)
from repro.replication.network import SimNetwork
from repro.replication.replicator import Replicator
from repro.sim.des import Simulator
from repro.errors import TransactionAborted


class TestShardRouter:
    def test_plan_groups_in_ascending_shard_order(self):
        router = ShardRouter(4)
        keys = ["key%03d" % i for i in range(40)]
        plan = router.plan(keys)
        assert list(plan) == sorted(plan)
        assert sorted(k for batch in plan.values() for k in batch) == sorted(keys)
        for shard, batch in plan.items():
            for key in batch:
                assert router.shard_of(key) == shard

    def test_plan_preserves_input_order_within_shard(self):
        router = ShardRouter(2)
        keys = ["k%02d" % i for i in range(20)]
        for batch in router.plan(keys).values():
            assert batch == [k for k in keys if k in set(batch)]

    def test_consistent_hashing_moves_few_keys(self):
        """Growing the ring 4->5 moves ~1/5 of keys, not ~4/5 (modulo)."""
        old, new = ShardRouter(4), ShardRouter(5)
        keys = ["key%05d" % i for i in range(2000)]
        moved = [k for k in keys if old.shard_of(k) != new.shard_of(k)]
        assert 0 < len(moved) < len(keys) * 0.40
        # A key that moves goes to the new shard, never between old ones.
        assert all(new.shard_of(k) == 4 for k in moved)

    def test_shrinking_the_ring_moves_only_the_dropped_shard(self):
        old, new = ShardRouter(5), ShardRouter(4)
        keys = ["key%05d" % i for i in range(2000)]
        moved = {k for k in keys if old.shard_of(k) != new.shard_of(k)}
        assert moved == {k for k in keys if old.shard_of(k) == 4}

    def test_custom_shard_fn_bypasses_ring(self):
        router = ShardRouter(3, shard_of=lambda k, n: 1)
        assert router.shard_of("anything") == 1
        assert list(router.plan(["a", "b"])) == [1]


#: the placement every sharded store routes with (the ring, 8 shards).
ring_of = ShardRouter(8).shard_of


class TestStableShardOf:
    """Satellite (a): the shard function hashes a stable serialization."""

    # Pinned assignments: changing the hash or the ring silently re-homes
    # every key, so any change to stable_key_bytes/ShardRouter must show
    # up here as an explicit, reviewed diff.
    PINNED = {
        "alice": 2,
        "key00042": 5,
        ("user", 7): 1,
        42: 0,
        None: 6,
        b"blob": 7,
    }

    def test_pinned_assignments(self):
        for key, shard in self.PINNED.items():
            assert ring_of(key) == shard, key

    def test_equal_numbers_route_identically(self):
        # repr-based hashing sent 42 and 42.0 to different shards even
        # though dict lookup treats them as the same key.
        assert stable_key_bytes(5) == stable_key_bytes(5.0)
        assert stable_key_bytes(1) == stable_key_bytes(True)
        for n in range(64):
            assert ring_of(n) == ring_of(float(n))

    def test_serialization_is_type_tagged(self):
        # "1" the string must not collide with 1 the int, etc.
        assert stable_key_bytes("1") != stable_key_bytes(1)
        assert stable_key_bytes(b"x") != stable_key_bytes("x")
        assert stable_key_bytes(("a",)) != stable_key_bytes("a")

    def test_distribution_of_stable_hash(self):
        counts = [0] * 8
        for i in range(4000):
            counts[ring_of(("user", i))] += 1
        assert min(counts) > 4000 / 8 * 0.6
        assert max(counts) < 4000 / 8 * 1.5


class TestShardAccessMetrics:
    """Satellite (b): per-shard access counters in the obs registry."""

    def test_accesses_exported_per_shard(self):
        store = TardisStore("A", shards=4)
        registry = store.registry
        registry.enabled = True
        with store.begin() as txn:
            for i in range(64):
                txn.put("key%04d" % i, i)
        store.get("key0000")
        total = 0
        for shard in range(4):
            total += registry.counter_value(
                "tardis_shard_access_total@s%d" % shard
            )
        assert total == sum(store.versions.accesses)
        assert total >= 64


class TestShardedRecordStore:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedRecordStore(StateDAG("A"), n_shards=0)

    def test_routing_is_stable(self):
        store = ShardedRecordStore(StateDAG("A"), n_shards=4)
        for key in ("a", "b", ("tuple", 1), 42):
            assert store.shard_index(key) == store.shard_index(key)

    def test_distribution_roughly_even(self):
        counts = [0] * 8
        for i in range(4000):
            counts[ring_of("key%05d" % i)] += 1
        assert min(counts) > 4000 / 8 * 0.6
        assert max(counts) < 4000 / 8 * 1.5

    def test_custom_shard_function(self):
        dag = StateDAG("A")
        store = ShardedRecordStore(dag, n_shards=2, shard_of=lambda k, n: 0)
        state = dag.create_state([dag.root])
        store.write("x", state.id, 1)
        store.write("y", state.id, 2)
        assert store.balance() == [2, 0]

    def test_commit_plan_contract(self):
        dag = StateDAG("A")
        store = ShardedRecordStore(dag, n_shards=4)
        state = dag.create_state([dag.root])
        writes = {"key%03d" % i: i for i in range(32)}
        plan = store.prepare_commit(writes)
        # Planning alone writes nothing.
        assert store.num_records() == 0
        assert len(plan) > 1
        assert [shard for shard, _batch in plan] == sorted(shard for shard, _batch in plan)
        assert sorted(key for _shard, batch in plan for key, _value in batch) == sorted(writes)
        store.install_commit(plan, state)
        assert store.num_records() == len(writes)
        for key, value in writes.items():
            assert store.read_visible(key, state, dag) == (state.id, value)


class TestShardedTardisStore:
    def test_behaves_like_tardis_store(self):
        """Property: identical schedule => identical outcomes vs unsharded."""
        rng = random.Random(7)
        schedule = []
        for i in range(60):
            ops = [
                ("r" if rng.random() < 0.5 else "w", "k%d" % rng.randrange(8),
                 rng.randrange(100))
                for _ in range(rng.randint(1, 4))
            ]
            schedule.append(("s%d" % rng.randrange(3), ops))

        def run(store):
            outcomes = []
            for session_name, ops in schedule:
                txn = store.begin(session=store.session(session_name))
                seen = []
                for kind, key, value in ops:
                    if kind == "r":
                        seen.append(txn.get(key, default=None))
                    else:
                        txn.put(key, value)
                try:
                    txn.commit()
                    outcomes.append(("ok", tuple(seen)))
                except TransactionAborted:
                    outcomes.append(("abort", tuple(seen)))
            return outcomes

        plain = run(TardisStore("A"))
        sharded = run(TardisStore("A", shards=4))
        assert plain == sharded

    def test_records_spread_across_shards(self):
        store = TardisStore("A", shards=4)
        with store.begin() as txn:
            for i in range(100):
                txn.put("key%04d" % i, i)
        with store._lock:
            balance = store.versions.balance()
        assert sum(balance) == 100
        assert all(b > 0 for b in balance)
        assert sum(store.versions.accesses) >= 100

    def test_cross_shard_transaction_atomic(self):
        store = TardisStore("A", shards=4, shard_of=lambda k, n: hash(k) % n)
        with store.begin() as txn:
            txn.put("a", 1)
            txn.put("b", 2)
            txn.put("c", 3)
        txn = store.begin()
        assert (txn.get("a"), txn.get("b"), txn.get("c")) == (1, 2, 3)
        # One commit state covers all shards: atomicity via the DAG.
        assert len(store.dag) == 2

    def test_branching_and_merge_work_sharded(self):
        store = TardisStore("A", shards=3)
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 5)
        t1.commit()
        t2.commit()
        assert store.metrics.forks == 1
        merge = store.begin_merge(session=a)
        fork = merge.find_fork_points()[0]
        base = merge.get_for_id("x", fork)
        merge.put("x", base + sum(v - base for v in merge.get_all("x")))
        merge.commit()
        assert store.get("x") == 6

    def test_gc_prunes_every_shard(self):
        store = TardisStore("A", shards=4)
        sess = store.session("w")
        for i in range(30):
            txn = store.begin(session=sess)
            for j in range(4):
                txn.put("key%04d" % j, i)
            txn.commit()
        with store._lock:
            before = store.versions.num_records()
        sess.place_ceiling()
        stats = store.collect_garbage()
        assert stats.records_dropped > 0
        with store._lock:
            assert store.versions.num_records() < before
        txn = store.begin(session=sess)
        assert txn.get("key0000") == 29
        txn.commit()

    def test_replication_between_partitioned_datacenters(self):
        """Two sharded datacenters replicate asynchronously (§6.4)."""
        sim = Simulator()
        network = SimNetwork(sim, default_latency_ms=10)
        dc1 = TardisStore("dc1", shards=2)
        dc2 = TardisStore("dc2", shards=4)  # shard counts differ
        Replicator(dc1, network)
        Replicator(dc2, network)
        dc1.put("x", 1)
        dc1.put("y", 2)
        sim.run(until=100)
        assert dc2.get("x") == 1
        assert dc2.get("y") == 2
        t = dc2.begin()
        t.put("z", 3)
        t.commit()
        sim.run(until=200)
        assert dc1.get("z") == 3

    def test_checkpoint_recovery_with_shards(self, tmp_path):
        from repro import recover_store

        wal = str(tmp_path / "wal.log")
        store = TardisStore("A", shards=3, wal_path=wal)
        for i in range(10):
            store.put("k%d" % i, i)
        store.close()
        recovered, report = recover_store("A", wal, shards=3)
        assert report["replayed"] == 10
        assert recovered.versions.n_shards == 3
        for i in range(10):
            assert recovered.get("k%d" % i) == i
