"""Tests for the ancestry index and the commit pipeline.

Bitmask ``descendant_check`` must stay equivalent to the reference graph
walk under randomized fork/merge/GC interleavings, bit positions must be
retired and reused after dead-fork scrubbing, and WAL recovery must hold
through the unified CommitPipeline (including group-commit batching of
async appends).
"""

import random

import pytest

from repro import AncestryIndex, TardisStore, recover_store
from repro.core.ancestry import ForkPoint, popcount
from repro.core.ids import CommitRecord, StateId
from repro.errors import TransactionAborted


def _sid(n):
    return StateId(n, "A")


class TestAncestryIndex:
    def test_intern_is_idempotent(self):
        index = AncestryIndex()
        p = ForkPoint(_sid(1), 0)
        bit = index.intern(p)
        assert index.intern(p) == bit
        assert len(index) == 1

    def test_mask_roundtrip(self):
        index = AncestryIndex()
        points = [ForkPoint(_sid(i), b) for i in range(1, 5) for b in (0, 1)]
        mask = index.mask_of(points)
        assert popcount(mask) == len(points)
        assert set(index.points_of(mask)) == set(points)
        assert list(index.points_of(0)) == []

    def test_subset_matches_frozenset_semantics(self):
        index = AncestryIndex()
        rng = random.Random(7)
        universe = [ForkPoint(_sid(i), b) for i in range(1, 9) for b in (0, 1, 2)]
        for _ in range(200):
            a = rng.sample(universe, rng.randrange(len(universe)))
            b = rng.sample(universe, rng.randrange(len(universe)))
            am, bm = index.mask_of(a), index.mask_of(b)
            assert (am & bm == am) == set(a).issubset(b)

    def test_release_forks_frees_and_reuses_bits(self):
        index = AncestryIndex()
        f1, f2 = _sid(1), _sid(2)
        index.intern(ForkPoint(f1, 1))
        index.intern(ForkPoint(f1, 2))
        index.intern(ForkPoint(f2, 1))
        capacity = index.capacity
        assert index.release_forks([f1]) == 2
        assert len(index) == 1
        index.check_invariants()
        # New fork points slot into the retired positions, not new ones.
        index.intern(ForkPoint(_sid(3), 1))
        index.intern(ForkPoint(_sid(4), 1))
        assert index.capacity == capacity
        index.check_invariants()

    def test_choices_by_fork_groups_branches(self):
        index = AncestryIndex()
        mask = index.mask_of(
            [ForkPoint(_sid(1), 0), ForkPoint(_sid(1), 1), ForkPoint(_sid(2), 3)]
        )
        choices = index.choices_by_fork(mask)
        assert choices == {_sid(1): {0, 1}, _sid(2): {3}}


class TestAncestryFuzz:
    """Randomized DAGs: bitmask visibility ≡ reference graph walk."""

    @pytest.mark.parametrize("seed", range(6))
    def test_descendant_check_equivalence(self, seed):
        rng = random.Random(seed)
        store = TardisStore("A")
        sessions = [store.session("c%d" % i) for i in range(4)]
        keys = ["k%d" % i for i in range(6)]
        for step in range(60):
            action = rng.random()
            session = rng.choice(sessions)
            with store._lock:
                branched = len(store.dag.leaves()) > 1
            if action < 0.70:
                txn = store.begin(session=session)
                txn.put(rng.choice(keys), step)
                try:
                    txn.commit()
                except TransactionAborted:
                    pass
            elif action < 0.85 and branched:
                merge = store.begin_merge(session=session)
                for key in merge.find_conflict_writes():
                    values = merge.get_all(key)
                    merge.put(key, max(values))
                try:
                    merge.commit()
                except TransactionAborted:
                    merge.abort()
            else:
                for sess in sessions:
                    if rng.random() < 0.5:
                        sess.place_ceiling()
                store.collect_garbage()
            if step % 15 == 14:
                self._assert_equivalence(store)
        self._assert_equivalence(store)
        with store._lock:
            store.dag.check_invariants()

    @staticmethod
    def _assert_equivalence(store):
        dag = store.dag
        with store._lock:
            states = list(dag.states())
            for x in states:
                for y in states:
                    assert dag.descendant_check(x, y) == dag.ancestor_walk_check(
                        x, y
                    ), (x.id, y.id)

    def test_gc_scrub_retires_bits(self):
        store = TardisStore("A")
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 2)
        t1.commit()
        t2.commit()
        assert len(store.dag.ancestry) > 0
        merge = store.begin_merge(session=a)
        merge.put("x", max(merge.get_all("x")))
        merge.commit()
        b.last_commit_id = a.last_commit_id  # b adopts the merged branch
        a.place_ceiling()
        b.place_ceiling()
        # Collapsing the branches into the merge makes the fork a
        # single-child state, collectable within the same cycle's
        # fixpoint sweep; a second cycle mops up any remainder.
        stats1 = store.collect_garbage()
        stats2 = store.collect_garbage()
        assert stats1.fork_entries_scrubbed + stats2.fork_entries_scrubbed > 0
        assert len(store.dag.ancestry) == 0
        with store._lock:
            for state in store.dag.states():
                assert state.path_mask == 0
            store.dag.check_invariants()


class TestCommitPipelineRecovery:
    def _store(self, tmp_path, **kw):
        return TardisStore("A", wal_path=str(tmp_path / "wal.log"), **kw)

    def test_sync_wal_recovers_through_pipeline(self, tmp_path):
        store = self._store(tmp_path, wal_sync=True)
        sess = store.session("a")
        for i in range(5):
            store.put("k", i, session=sess)
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 5
        assert recovered.get("k") == 4

    def test_group_commit_flushes_batches(self, tmp_path):
        store = self._store(tmp_path, wal_sync=False, group_commit=3)
        sess = store.session("a")
        for i in range(7):
            store.put("k", i, session=sess)
        # 7 appends with a batch of 3: two flushes landed 6 records; the
        # 7th is buffered and lost on crash.
        store.wal.drop_buffered()
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 6
        assert recovered.get("k") == 5

    def test_async_without_group_commit_loses_everything(self, tmp_path):
        store = self._store(tmp_path, wal_sync=False)
        sess = store.session("a")
        for i in range(5):
            store.put("k", i, session=sess)
        store.wal.drop_buffered()
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 0
        assert recovered.get("k") is None

    def test_merge_and_remote_commits_logged(self, tmp_path):
        store = self._store(tmp_path, wal_sync=True)
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", 1)
        t2.put("x", 2)
        t1.commit()
        t2.commit()
        merge = store.begin_merge(session=a)
        merge.put("x", max(merge.get_all("x")))
        merge.commit()
        # A remote graft goes through the same pipeline and is logged.
        remote_id = StateId(merge.commit_id.counter + 1, "B")
        store.apply_remote(CommitRecord(remote_id, (merge.commit_id,), {"y": 9}))
        store.close()
        recovered, report = recover_store("A", str(tmp_path / "wal.log"))
        assert report["replayed"] == 5
        assert recovered.get("x") == 2
        assert recovered.get("y") == 9
