"""The promotion table stays as small as the set of clients (§6.3).

After every collection cycle the table keeps only the ids something can
still hand back to ``dag.resolve``: each registered session's anchor and
each ceiling. A store whose commits a replicator ships keeps the whole
table, because peers fetch promotions by id (§6.4). The bound is checked
here on the flat and worker-process planes, against an uncollected
oracle; ``tests/test_server_gc.py`` checks it on a served store.
"""

import random

import pytest

from repro import TardisStore
from repro.core.constraints import StateIdConstraint
from repro.core.ids import ROOT_ID
from repro.errors import BeginError, GarbageCollectedError
from repro.replication import Cluster

KEYS = ["k%d" % i for i in range(16)]
CYCLE_EVERY = 512


def held_ids(store):
    """Every session's anchor and every ceiling: the table's bound."""
    held = {s.last_commit_id for s in store.sessions()}
    return held | set(store.gc.ceilings.values())


def check_after_cycle(store):
    """The table holds only held ids, and no record names a dead id."""
    dag = store.dag
    held = held_ids(store)
    assert dag.promotion_table_size <= len(held)
    with store._lock:
        for sid in held:
            dag.resolve(sid)
        # Record promotion re-keyed every version to a live state, on
        # every plane: this is why the table needs no entry for a record
        # id. The worker links' mask tables hold live states only, too.
        for key in store.versions.keys():
            for sid in store.versions.versions_of(key):
                assert dag.get(sid) is not None, (key, sid)
    for link in getattr(store.versions, "_links", ()):
        assert all(dag.get(sid) is not None for sid in link._shipped)


def drive(store, collect, commits=10240):
    """Three sessions, ``commits`` commits, a cycle every 512 of them.

    ``idle`` never commits, so it holds ``ROOT_ID``; ``plain`` commits
    but places no ceiling, so its anchor is collected under it; ``ceil``
    places a ceiling at every cycle. Every 64th step ``plain`` and
    ``ceil`` fork on one key and ``ceil`` merges the branches at once.
    After every cycle each session's next ``begin`` reads every key;
    those reads are returned, for comparison with an oracle store that
    runs the same script without collecting. The first commit's id is
    dropped at the first cycle and must stay unresolvable.
    """
    rng = random.Random(34)
    idle, plain, ceil = (store.session(n) for n in ("idle", "plain", "ceil"))
    reads, first, made, next_cycle = [], None, 0, CYCLE_EVERY
    while made < commits:
        if made % 64 == 63:
            t1, t2 = store.begin(session=plain), store.begin(session=ceil)
            key = rng.choice(KEYS)
            t1.put(key, t1.get(key, default=0) + 1)
            t2.put(key, t2.get(key, default=0) + 10)
            t1.commit()
            t2.commit()
            merge = store.begin_merge(session=ceil)
            for conflict in merge.find_conflict_writes():
                merge.put(conflict, max(merge.get_all(conflict)))
            merge.commit()
            made += 3
        else:
            sess = (plain, ceil)[made & 1]
            txn = store.begin(session=sess)
            key = rng.choice(KEYS)
            txn.put(key, txn.get(key, default=0) + 1)
            txn.commit()
            made += 1
        if first is None:
            first = plain.last_commit_id
        if made >= next_cycle:
            next_cycle += CYCLE_EVERY
            ceil.place_ceiling()
            if collect:
                stats = store.collect_garbage()
                assert stats.states_removed > 0
                check_after_cycle(store)
                assert first not in held_ids(store)
                with store._lock, pytest.raises(GarbageCollectedError):
                    store.dag.resolve(first)
                with pytest.raises(BeginError):
                    store.begin(StateIdConstraint([first]))
            for sess in (idle, plain, ceil):
                txn = store.begin(session=sess)
                reads.append((sess.name, txn.get_many(KEYS)))
                txn.abort()
    assert idle.last_commit_id == ROOT_ID
    return reads


@pytest.fixture(scope="module")
def oracle_reads():
    store = TardisStore("A")
    reads = drive(store, collect=False)
    assert store.dag.promotion_table_size == 0 and len(store.dag) > 10000
    return reads


class TestTheTableIsBounded:
    def test_flat_store_keeps_only_held_ids_and_reads_like_the_oracle(
        self, oracle_reads
    ):
        store = TardisStore("A")
        assert drive(store, collect=True) == oracle_reads
        assert store.gc.cycles == 10240 // CYCLE_EVERY
        # The root, collected long ago, still resolves for ``idle``.
        assert store.dag.root.id != ROOT_ID
        with store._lock:
            assert store.dag.resolve(ROOT_ID) is store.dag.root
        assert 1 <= store.dag.promotion_table_size <= 3

    def test_worker_process_store_reads_like_the_flat_store(self, oracle_reads):
        store = TardisStore("A", shards=4, shard_workers=2)
        try:
            assert drive(store, collect=True) == oracle_reads
        finally:
            store.close()
        assert store.leaked_workers == 0

    def test_an_id_resolves_while_held_and_raises_after(self):
        store = TardisStore("A")
        idle, sess = store.session("idle"), store.session("a")
        first = store.put("x", 0, session=sess)
        for i in range(5):
            store.put("x", i + 1, session=sess)
        sess.place_ceiling()
        stats = store.collect_garbage()
        # root and five commits collected; only idle's anchor is kept.
        assert (stats.states_removed, stats.promotions_flushed) == (6, 5)
        assert store.dag.promotion_table_size == 1
        with store._lock:
            assert store.dag.resolve(ROOT_ID).id == sess.last_commit_id
            with pytest.raises(GarbageCollectedError):
                store.dag.resolve(first)
        store.close_session("idle")
        stats = store.collect_garbage()
        assert (stats.states_removed, stats.promotions_flushed) == (0, 1)
        assert store.dag.promotion_table_size == 0
        with store._lock, pytest.raises(GarbageCollectedError):
            store.dag.resolve(ROOT_ID)
        assert idle.last_commit_id == ROOT_ID


class TestSplicedCeiling:
    def test_a_ceiling_at_a_spliced_state_still_constrains_marking(self):
        store = TardisStore("A")
        p, w = store.session("p"), store.session("w")
        spliced = store.put("p", 1, session=p)
        for i in range(5):
            store.put("w", i, session=w)
        w.place_ceiling()
        store.collect_garbage()
        # ``spliced`` was collected while p's anchor held its entry.
        assert store.dag.get(spliced) is None
        with store._lock:
            heir = store.dag.resolve(spliced)
        assert heir.id == w.last_commit_id
        # A reader places its ceiling there; once p closes, the ceiling
        # is the id's only holder.
        store.session("reader").ceiling = spliced
        store.close_session("p")
        raised = []
        resolve = store.dag.resolve

        def spy(sid):
            try:
                return resolve(sid)
            except GarbageCollectedError:
                raised.append(sid)
                raise

        store.dag.resolve = spy
        for cycle in range(3):
            for i in range(5):
                store.put("w", i, session=w)
            w.place_ceiling()
            stats = store.collect_garbage()
            # The reader promised only to stay at or below the heir:
            # nothing above it may be marked.
            assert stats.marked == 0 and stats.states_removed == 0
            assert store.dag.promotion_table_size == 1
        assert spliced not in raised
        assert store.dag.get(heir.id) is heir
        assert len(store.dag) == 1 + 15


class TestSessionlessCalls:
    def test_sessionless_calls_register_no_session(self):
        store = TardisStore("A")
        named = store.session("named")
        for i in range(1000):
            store.put("k", i)
            assert store.get("k") == i
            txn = store.begin()
            txn.put("j", i)
            txn.commit()
        assert store.sessions() == [named]
        merge = store.begin_merge()
        merge.commit()
        assert store.sessions() == [named]

    def test_a_sessionless_transaction_places_no_ceiling(self):
        store = TardisStore("A")
        txn = store.begin()
        txn.put("x", 1)
        txn.commit()
        txn.session.place_ceiling()
        assert store.gc.ceilings == {}


class TestReplicatedStore:
    def test_a_store_whose_commits_are_shipped_keeps_its_table(self):
        cluster = Cluster(n_sites=2, default_latency_ms=10.0)
        us, eu = cluster.stores["us"], cluster.stores["eu"]
        sess = us.session("writer")
        first = us.put("x", 0, session=sess)
        for i in range(9):
            us.put("x", i + 1, session=sess)
        cluster.run(until=200)
        sess.place_ceiling()
        stats = us.collect_garbage()
        assert stats.states_removed == 10 and stats.promotions_flushed == 0
        assert us.dag.promotion_table_size == 10
        # A peer asking for ``first`` is answered with its heir (§6.4).
        assert us.dag.promotion_of(first) is not None
        with us._lock:
            assert us.dag.resolve(first).id == sess.last_commit_id
        # flush_promotions goes through the same prune: held ids stay.
        local = eu.session("local")
        local.ceiling = sess.last_commit_id
        stats = eu.collect_garbage(flush_promotions=True)
        assert stats.states_removed == 10
        assert eu.dag.promotion_table_size == 1
        with eu._lock:
            assert eu.dag.resolve(local.last_commit_id) is eu.dag.root
            with pytest.raises(GarbageCollectedError):
                eu.dag.resolve(first)
