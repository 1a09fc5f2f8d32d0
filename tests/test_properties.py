"""System-level property tests: GC transparency, crash equivalence,
multi-site convergence under random schedules.

These treat whole-store behaviours as properties over randomized
histories — the strongest correctness evidence in the suite:

* running the identical transaction schedule with and without garbage
  collection interleaved at random points yields identical results;
* crashing at an arbitrary point (dropping unflushed log records) and
  recovering yields exactly the durable prefix;
* any interleaving of writes and partitions across sites converges once
  the network heals and one site merges.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TardisStore, recover_store
from repro.errors import TransactionAborted
from repro.replication import Cluster


def apply_schedule(store, schedule, gc_points=()):
    """Replay a deterministic schedule of interleaved transactions.

    ``schedule`` is a list of (session, [ops]) where ops are
    ('r', key) / ('w', key, value); transactions interleave pairwise:
    each opens, performs its ops, commits in list order. ``gc_points``
    are indexes after which a full ceiling+collect cycle runs.
    """
    results = []
    for index, (session_name, ops) in enumerate(schedule):
        session = store.session(session_name)
        txn = store.begin(session=session)
        observed = []
        for op in ops:
            if op[0] == "r":
                observed.append(txn.get(op[1], default=None))
            else:
                txn.put(op[1], op[2])
        try:
            txn.commit()
            committed = True
        except TransactionAborted:
            committed = False
        results.append((committed, tuple(observed)))
        if index in gc_points:
            for sess in store.sessions():
                sess.place_ceiling()
            store.collect_garbage()
    return results


def final_views(store, keys):
    views = []
    with store._lock:
        leaves = sorted(store.dag.leaves(), key=lambda s: s.id)
    for leaf in leaves:
        with store._lock:
            view = tuple(
                (key, (store.versions.read_visible(key, leaf, store.dag) or (None, None))[1])
                for key in keys
            )
        views.append(view)
    return views


def random_schedule(rng, n_txns=40, n_sessions=3, n_keys=5):
    schedule = []
    for i in range(n_txns):
        ops = []
        for _ in range(rng.randint(1, 4)):
            key = "k%d" % rng.randrange(n_keys)
            if rng.random() < 0.5:
                ops.append(("r", key))
            else:
                ops.append(("w", key, rng.randrange(100)))
        schedule.append(("s%d" % rng.randrange(n_sessions), ops))
    return schedule


class TestGcEquivalence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_gc_never_changes_results(self, seed):
        rng = random.Random(seed)
        schedule = random_schedule(rng)
        gc_points = {i for i in range(len(schedule)) if rng.random() < 0.15}
        keys = ["k%d" % i for i in range(5)]

        plain = TardisStore("A")
        r1 = apply_schedule(plain, schedule)
        collected = TardisStore("A")
        r2 = apply_schedule(collected, schedule, gc_points=gc_points)

        assert r1 == r2, "GC changed transaction outcomes"
        assert final_views(plain, keys) == final_views(collected, keys)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_gc_bounds_state(self, seed):
        rng = random.Random(seed)
        schedule = random_schedule(rng, n_txns=60)
        store = TardisStore("A")
        apply_schedule(store, schedule, gc_points=set(range(0, 60, 10)))
        # Interleaved GC keeps the DAG to a handful of live states:
        # everything below the oldest session ceiling compresses away.
        # The bound is intentionally loose — states committed after the
        # last GC point (up to 10 transactions' worth, each possibly
        # forking) are still uncollected when the schedule ends, so the
        # count can legitimately exceed the steady-state handful.
        with store._lock:
            converged = len(store.dag.leaves()) == 1
        if converged:
            assert len(store.dag) <= 32


class TestCrashRecoveryEquivalence:
    @given(seed=st.integers(0, 10_000), crash_at=st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_recovery_restores_durable_prefix(self, seed, crash_at):
        import tempfile

        tmp = tempfile.mkdtemp(prefix="tardis-wal-")
        rng = random.Random(seed)
        schedule = random_schedule(rng, n_txns=30)
        keys = ["k%d" % i for i in range(5)]
        path = "%s/wal-%d-%d.log" % (tmp, seed, crash_at)

        store = TardisStore("A", wal_path=path, wal_sync=False)
        flush_every = 5
        for index, entry in enumerate(schedule):
            apply_schedule(store, [entry])
            if index % flush_every == flush_every - 1:
                store.wal.flush()
            if index == crash_at:
                break
        # Crash: unflushed records vanish.
        dropped = store.wal.drop_buffered()
        store.wal.close()

        recovered, report = recover_store("A", path)
        # Rebuild a reference store from only the durable prefix.
        durable_txns = report["replayed"]
        reference = TardisStore("A")
        applied = 0
        for entry in schedule:
            if applied >= durable_txns:
                break
            before = reference.metrics.commits
            apply_schedule(reference, [entry])
            applied += reference.metrics.commits - before
        assert final_views(recovered, keys) == final_views(reference, keys)
        assert len(recovered.dag) == len(reference.dag)


class TestMultiSiteConvergence:
    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_converges_after_heal_and_merge(self, seed):
        rng = random.Random(seed)
        cluster = Cluster(n_sites=2, default_latency_ms=5)
        us, eu = cluster.stores["us"], cluster.stores["eu"]
        us.put("x", 0)
        cluster.run(until=50)

        partitioned = False
        now = 50.0
        for step in range(20):
            site = us if rng.random() < 0.5 else eu
            action = rng.random()
            if action < 0.6:
                sess = site.session("w%d" % rng.randrange(2))
                txn = site.begin(session=sess)
                txn.put("x", txn.get("x", default=0) + 1)
                try:
                    txn.commit()
                except TransactionAborted:
                    pass
            elif action < 0.8 and not partitioned:
                cluster.network.partition("us", "eu")
                partitioned = True
            elif partitioned:
                cluster.network.heal("us", "eu")
                partitioned = False
            now += rng.uniform(1, 20)
            cluster.run(until=now)

        if partitioned:
            cluster.network.heal("us", "eu")
        cluster.run(until=now + 500)

        # One site merges everything; the merge replicates.
        merge = us.begin_merge(session=us.session("merger"))
        values = merge.get_all("x")
        if values:
            merge.put("x", max(values))
        merge.commit()
        cluster.run(until=now + 1500)
        assert cluster.converged("x")

    def test_three_site_gossip_delivers_everything(self):
        cluster = Cluster(n_sites=3, default_latency_ms=10)
        stores = list(cluster.stores.values())
        expected = {}
        for i, store in enumerate(stores * 3):
            key = "key-%d" % i
            store.put(key, i)
            expected[key] = i
        cluster.run(until=2000)
        for store in stores:
            for key, value in expected.items():
                with store._lock:
                    versions = store.versions.versions_of(key)
                    assert versions, (store.site, key)
                    values = {store.versions.record(key, sid) for sid in versions}
                    assert value in values, (store.site, key)
