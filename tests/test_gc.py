"""Tests for garbage collection: ceilings, DAG compression, record promotion."""

import gc
import random
import tracemalloc

import pytest

from repro import TardisStore
from repro.core.gc import GCStats
from repro.core.state_dag import State
from repro.errors import GarbageCollectedError, TransactionAborted


@pytest.fixture
def store():
    return TardisStore("A")


def commit_chain(store, session, n, key="x"):
    for i in range(n):
        t = store.begin(session=session)
        t.put(key, i)
        t.commit()


class TestCeilings:
    def test_no_ceiling_no_collection(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 10)
        stats = store.collect_garbage()
        assert stats.states_removed == 0
        assert len(store.dag) == 11

    def test_ceiling_compresses_chain(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 10)
        sess.place_ceiling()
        stats = store.collect_garbage()
        # Everything above the last commit is neither a fork point nor a
        # leaf: the chain collapses to the single leaf state.
        assert stats.states_removed == 10
        assert len(store.dag) == 1
        assert store.dag.root.id == sess.last_commit_id

    def test_marked_states_not_selectable_as_read_state(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 5)
        sess.place_ceiling()
        store.collect_garbage()
        t = store.begin(session=sess)
        assert t.read_state.id == sess.last_commit_id
        t.commit()

    def test_pinned_read_state_survives(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 3)
        pinned = store.begin(session=store.session("reader"))
        read_id = pinned.read_state.id
        commit_chain(store, sess, 3)
        sess.place_ceiling()
        store.session("reader").ceiling = sess.last_commit_id
        stats = store.collect_garbage()
        assert store.dag.get(read_id) is not None
        # The pinned state blocks collection of its descendants' chain?
        # No: only of itself; ancestors-all-safe still gates descendants.
        pinned.commit()
        stats2 = store.collect_garbage()
        assert store.dag.get(read_id) is None
        assert stats.states_removed + stats2.states_removed >= 5

    def test_intersection_of_client_ceilings(self, store):
        a, b = store.session("a"), store.session("b")
        commit_chain(store, a, 4)
        mid = a.last_commit_id
        commit_chain(store, a, 4)
        a.place_ceiling()
        # b's ceiling lags at `mid`: states above mid are collectable,
        # states between mid and a's ceiling are not.
        b.ceiling = mid
        store.collect_garbage()
        assert store.dag.get(mid) is not None
        assert len(store.dag) == 5  # mid + 4 newer states

    def test_clear_ceiling(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 3)
        sess.place_ceiling()
        store.close_session(sess.name)  # releases the ceiling with the session
        stats = store.collect_garbage()
        assert stats.states_removed == 0


class TestDagCompression:
    def test_fork_points_survive(self, store):
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.commit()
        t2.commit()
        with store._lock:
            fork_id = store.dag.fork_points_of(store.dag.leaves())[0].id
        commit_chain(store, a, 5, key="y")
        a.place_ceiling()
        b.place_ceiling()
        store.collect_garbage()
        assert store.dag.get(fork_id) is not None

    def test_merge_then_collect_collapses_fork(self, store):
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.commit()
        t2.commit()
        m = store.begin_merge(session=a)
        m.put("x", 2)
        m.commit()
        commit_chain(store, a, 3, key="y")
        a.place_ceiling()
        b.ceiling = a.last_commit_id
        store.collect_garbage()
        # The whole pre-merge history, including the fork point whose
        # branches both collapsed into the merge, is gone.
        assert len(store.dag) == 1

    def test_promotion_redirects_reads(self, store):
        """A record written long ago stays readable after compression."""
        sess = store.session("a")
        store.put("old", "value", session=sess)
        commit_chain(store, sess, 10)
        sess.place_ceiling()
        store.collect_garbage()
        t = store.begin(session=sess)
        assert t.get("old") == "value"
        t.commit()

    def test_safety_semantics_preserved_across_gc(self, store):
        """Branch isolation survives compression."""
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", 100)
        t1.get("x")
        t2.put("x", 200)
        t2.get("x")
        t1.commit()
        t2.commit()
        commit_chain(store, a, 5, key="ya")
        commit_chain(store, b, 5, key="yb")
        a.place_ceiling()
        b.place_ceiling()
        store.collect_garbage()
        ta = store.begin(session=a)
        tb = store.begin(session=b)
        assert ta.get("x") == 100
        assert tb.get("x") == 200


class TestRecordPromotion:
    def test_stale_versions_dropped(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 20, key="x")
        with store._lock:
            assert store.versions.num_versions("x") == 20
        sess.place_ceiling()
        stats = store.collect_garbage()
        with store._lock:
            assert store.versions.num_versions("x") == 1
            assert stats.records_dropped == 19
            assert store.versions.num_records() == 1
        t = store.begin(session=sess)
        assert t.get("x") == 19
        t.commit()

    def test_fork_point_version_kept(self, store):
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 5)
        t1.commit()
        t2.commit()
        commit_chain(store, a, 3, key="other")
        a.place_ceiling()
        b.place_ceiling()
        store.collect_garbage()
        # The fork-point version of x (value 0) is still needed for
        # three-way merges and must survive.
        m = store.begin_merge()
        fork = m.find_fork_points()[0]
        assert m.get_for_id("x", fork) == 0
        m.abort()

    def test_live_counts_reported(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 5)
        sess.place_ceiling()
        stats = store.collect_garbage()
        assert stats.live_states == len(store.dag)
        with store._lock:
            assert stats.live_records == store.versions.num_records()

    def test_flush_promotions(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 5)
        sess.place_ceiling()
        stats = store.collect_garbage(flush_promotions=True)
        assert stats.promotions_flushed > 0
        assert store.dag.promotion_table_size == 0

    def test_flushed_promotion_lookup_fails(self, store):
        sess = store.session("a")
        first = store.put("x", 1, session=sess)
        commit_chain(store, sess, 5)
        sess.place_ceiling()
        store.collect_garbage(flush_promotions=True)
        with store._lock, pytest.raises(GarbageCollectedError):
            store.dag.resolve(first)

    def test_repeated_collection_is_idempotent(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 10)
        sess.place_ceiling()
        store.collect_garbage()
        stats = store.collect_garbage()
        assert stats.states_removed == 0
        assert stats.records_dropped == 0

    def test_fork_path_scrubbing(self, store):
        """Entries of fully collapsed forks disappear from live paths."""
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
        tail = store.begin(session=a)
        tail.put("y", 1)
        tail.commit()
        with store._lock:
            assert store.dag.resolve(a.last_commit_id).path_mask != 0
        a.place_ceiling()
        b.ceiling = a.last_commit_id
        stats = store.collect_garbage()
        assert stats.fork_entries_scrubbed > 0
        # The surviving chain carries no fork-path entries at all.
        with store._lock:
            for state in store.dag.states():
                assert list(store.dag.ancestry.points_of(state.path_mask)) == []
        # Visibility still correct after the scrub.
        t = store.begin(session=a)
        assert t.get("x") == 6
        assert t.get("y") == 1
        t.commit()
        with store._lock:
            store.dag.check_invariants()

    def test_gc_under_load_interleaved(self, store):
        """Collect between batches; correctness of latest value holds."""
        sess = store.session("a")
        for batch in range(5):
            commit_chain(store, sess, 10, key="k")
            sess.place_ceiling()
            store.collect_garbage()
            t = store.begin(session=sess)
            assert t.get("k") == 9
            t.commit()
        assert len(store.dag) <= 2


# ---------------------------------------------------------------------------
# The chain splice: one write-key union per survivor (docs/internals.md §3).


def reference_collect(store):
    """The collector before the chain splice, kept as the oracle.

    Splices one state at a time and merges write keys with the rule the
    production collector replaced — ``child.write_keys | state.write_keys``
    per victim — re-sorting the DAG and re-testing every state on every
    sweep. Quadratic on long chains, which is why it lives here.
    """
    with store._lock:
        dag, gc = store.dag, store.gc
        stats = GCStats()
        common = None
        for state_id in gc.ceilings.values():
            try:
                ceiling = dag.resolve(state_id)
            except GarbageCollectedError:
                continue
            ancestors, stack = set(), list(ceiling.parents)
            while stack:
                current = stack.pop()
                if current.id not in ancestors:
                    ancestors.add(current.id)
                    stack.extend(current.parents)
            common = ancestors if common is None else common & ancestors
        if common:
            for state in list(dag.states()):
                if state.id in common:
                    state.marked = True
            stats.marked = sum(1 for s in dag.states() if s.marked)
            for state in sorted(dag.states(), key=lambda s: s.id):
                state.safe_to_gc = (
                    state.marked
                    and state.pins == 0
                    and all(p.safe_to_gc for p in state.parents)
                )
            stats.safe = sum(1 for s in dag.states() if s.safe_to_gc)
            dead_forks = set()
            while True:
                candidates = [
                    s
                    for s in sorted(dag.states(), key=lambda s: s.id)
                    if s.safe_to_gc and s.children and len(set(map(id, s.children))) == 1
                ]
                if gc.consent_filter is not None:
                    allowed = gc.consent_filter({s.id for s in candidates})
                    candidates = [s for s in candidates if s.id in allowed]
                for state in candidates:
                    if state.next_branch >= 2:
                        dead_forks.add(state.id)
                    child = dag.splice_out(state)
                    child.write_keys = child.write_keys | state.write_keys
                stats.states_removed += len(candidates)
                if not candidates:
                    break
            if dead_forks:
                stats.fork_entries_scrubbed = dag.retire_forks(dead_forks)
        promoted, dropped = store.versions.promote_and_prune(dag)
        stats.records_promoted, stats.records_dropped = promoted, dropped
        held = {s.last_commit_id for s in store.sessions()} | set(gc.ceilings.values())
        stats.promotions_flushed = dag.prune_promotions(held)
        stats.live_states = len(dag)
        stats.live_records = store.versions.num_records()
    return stats


class TestChainSpliceEquivalence:
    """INV-4 with its write-set clause: the production collector and the
    one-state-at-a-time reference leave bit-identical stores behind."""

    KEYS = ["base"] + ["k%d" % i for i in range(7)]

    def snapshot(self, store, ever_seen, heir):
        with store._lock:
            return self._snapshot(store, ever_seen, heir)

    def _snapshot(self, store, ever_seen, heir):
        dag = store.dag
        live = sorted(dag.states(), key=lambda s: s.id)
        return (
            [
                (
                    s.id,
                    s.write_keys,
                    tuple(p.id for p in s.parents),
                    tuple(c.id for c in s.children),
                    s.path_mask,
                )
                for s in live
            ],
            [heir(sid) for sid in sorted(ever_seen)],
            sorted(dag.promotions().items()),
            [
                store.versions.read_visible(key, s, dag)
                for s in live
                for key in self.KEYS
            ],
        )

    def drive(self, store, rng, collect):
        """Replay a randomized fork/merge/pin/consent history."""
        sessions = [store.session("s%d" % i) for i in range(3)]
        observed, ever_seen, pinned = [], set(), []
        seen = {"scrubbed": 0, "refused": 0, "pinned": 0, "pruned": 0}
        refusing = [False]

        def consent(ids):
            # Pessimistic-GC stand-in: while ``refusing``, a fixed third
            # of the candidates is withheld, as a lagging replica would.
            allowed = {
                sid for sid in ids if not (refusing[0] and sid.counter % 3 == 0)
            }
            seen["refused"] += len(ids) - len(allowed)
            return allowed

        store.gc.consent_filter = consent

        # Both collectors end with the same prune. INV-4's promotion
        # clause still covers every id ever seen, so each entry is
        # recorded before the prune can drop it, and ``heir`` follows
        # those records to the live state the id was promoted into.
        shadow = {}
        prune = store.dag.prune_promotions

        def recording_prune(held):
            table = store.dag.promotions()
            shadow.update(table)
            dropped = prune(held)
            kept = store.dag.promotions()
            assert kept == {sid: heir(sid) for sid in held if sid in table}
            assert dropped == len(table) - len(kept)
            return dropped

        def heir(sid):
            while store.dag.get(sid) is None and sid in shadow:
                sid = shadow[sid]
            return store.dag.resolve(sid).id

        store.dag.prune_promotions = recording_prune
        for step in range(160):
            op = rng.random()
            sess = sessions[rng.randrange(3)]
            if op < 0.15:
                # Read-write conflicting pair on ``base``: forks.
                other = sessions[(sessions.index(sess) + 1) % 3]
                t1, t2 = store.begin(session=sess), store.begin(session=other)
                t1.put("base", t1.get("base", default=0) + 1)
                t2.put("base", t2.get("base", default=0) + 10)
                t2.put(rng.choice(self.KEYS[1:]), step)
                observed.append(("pair", t1.commit(), t2.commit()))
            elif op < 0.60:
                txn = store.begin(session=sess)
                for _ in range(rng.randrange(1, 4)):
                    txn.put(rng.choice(self.KEYS[1:]), (step, sess.name))
                try:
                    observed.append(("commit", txn.commit()))
                except TransactionAborted:
                    observed.append(("abort",))
            elif op < 0.68:
                # A reader that stays open across collections pins its
                # read state (and everything below it) in the DAG.
                pinned.append(store.begin(session=store.session("reader"), read_only=True))
            elif op < 0.74 and pinned:
                pinned.pop(0).commit()
            elif op < 0.86:
                with store._lock:
                    branched = len(store.dag.leaves()) > 1
                if branched:
                    merge = store.begin_merge(session=sess)
                    conflicts = merge.find_conflict_writes()
                    observed.append(("conflicts", tuple(conflicts)))
                    for key in conflicts:
                        merge.put(key, max(merge.get_all(key), key=repr))
                    observed.append(("merge", merge.commit()))
            else:
                with store._lock:
                    ever_seen.update(s.id for s in store.dag.states())
                refusing[0] = rng.random() < 0.4
                head = max(s.last_commit_id for s in sessions)
                for s in sessions:
                    # Ceilings at the newest commit let a merged fork
                    # collapse completely; per-session ones leave it up.
                    s.ceiling = head if rng.random() < 0.5 else s.last_commit_id
                stats = collect(store)
                seen["scrubbed"] += stats.fork_entries_scrubbed
                seen["pruned"] += stats.promotions_flushed
                seen["pinned"] += stats.safe < stats.marked
                observed.append(("gc", stats, self.snapshot(store, ever_seen, heir)))
                with store._lock:
                    store.dag.check_invariants()
        for txn in pinned:
            txn.abort()
        return observed, seen

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2016])
    def test_fuzz_matches_reference_collector(self, seed):
        production, reference = TardisStore("site"), TardisStore("site")
        got, seen = self.drive(
            production, random.Random(seed), lambda s: s.collect_garbage()
        )
        want, _ = self.drive(reference, random.Random(seed), reference_collect)
        assert got == want
        assert production.metrics.forks > 0 and production.metrics.merges > 0
        # Each seed must reach every shape the equivalence is claimed for.
        assert all(seen.values()), seen

    def test_runs_meeting_at_a_merge_are_joined(self, store):
        """Both branches of a collapsed fork end up in the merge state."""
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 5)
        t1.commit()
        t2.commit()
        commit_chain(store, a, 3, key="left")
        for i in range(2):
            store.put("right%d" % i, i, session=b)
        m = store.begin_merge(session=a)
        m.put("x", 6)
        m.commit()
        store.put("tail", 1, session=a)
        for sess in (a, b):
            sess.ceiling = a.last_commit_id
        store.collect_garbage()
        with store._lock:
            (survivor,) = store.dag.states()
        assert survivor.write_keys == {"x", "left", "right0", "right1", "tail"}

    def test_write_keys_survive_a_failing_consent_filter(self, store):
        sess = store.session("a")
        commit_chain(store, sess, 5, key="x")
        store.put("y", 0, session=sess)
        sess.place_ceiling()
        calls = []

        def consent(ids):
            calls.append(ids)
            if len(calls) == 2:
                raise RuntimeError("peer unreachable")
            return ids

        store.gc.consent_filter = consent
        with pytest.raises(RuntimeError):
            store.collect_garbage()
        with store._lock:
            (survivor,) = store.dag.states()
        assert survivor.write_keys == {"x", "y"}


class TestCycleMemory:
    """A cycle allocates O(keys), not O(states collected x keys)."""

    @staticmethod
    def peak_mb_of_cycle(n_commits, n_keys=2000):
        store = TardisStore("A")
        sess = store.session("a")
        for i in range(n_commits):
            t = store.begin(session=sess)
            t.put("k%04d" % (i % n_keys), i)
            t.commit()
        sess.place_ceiling()
        # Holding the victims makes the peak count every write-key set a
        # splice hangs on one of them, not only those alive at one time.
        with store._lock:
            victims = list(store.dag.states())
        tracemalloc.start()
        try:
            stats = store.collect_garbage()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.states_removed == n_commits == len(victims) - 1
        with store._lock:
            (survivor,) = store.dag.states()
        assert len(survivor.write_keys) == n_keys
        return peak / 1e6

    def test_chain_compression_peak_is_bounded_and_flat(self):
        # The per-victim union this replaced peaks at ~125 MB here.
        small = self.peak_mb_of_cycle(2000)
        assert small < 16.0
        assert self.peak_mb_of_cycle(4000) < 2 * small + 2.0


class TestHeldHandle:
    def test_a_held_handle_does_not_pin_the_states_collected_after_it(self, store):
        """A collected state forgets its children: a finished transaction
        kept by its caller holds its own read state, not the chain of
        states collected after it."""
        sess = store.session("a")
        held = store.begin(session=sess)
        held.put("x", -1)
        held.commit()
        later = []
        for _ in range(3):
            for i in range(20):
                t = store.begin(session=sess)
                t.put("k%d" % i, i)
                later.append(t.commit())
            sess.place_ceiling()
            store.collect_garbage()
        assert held.read_state.id not in store.dag  # collected, still held
        with store._lock:
            collected = set(later) - {s.id for s in store.dag.states()}
        assert len(collected) == len(later) - 1
        del t  # a handle of its own: it holds its read state
        gc.collect()
        alive = {o.id for o in gc.get_objects() if type(o) is State}
        assert not alive & collected
