"""The visibility cache: equal to the uncached walk, bounded, invalidated.

The per-key visibility cache (docs/internals.md §10) is pure
memoization of the newest-first version walk. The fuzz below drives one
store through forks, merges, ceilings + GC, record promotion and fork
retirement, and checks every ``read_visible`` / ``read_visible_many`` /
``read_candidates`` answer against a walk rebuilt from the public
``versions_of`` / ``record`` lookups as it is returned — on a flat
store, on in-process shards and on shards in worker processes; after
every GC cycle it also checks the version lists' own invariants. The
remaining tests pin the cache's size bound, each invalidation edge
individually, the per-key version list's ordering rules, and the begin
states and merge conflict sets that earlier, since deleted, caches used
to memoize.
"""

import random

import pytest

from repro import TardisStore
from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.errors import GarbageCollectedError, MultipleValuesError, TransactionAborted


def fork_pair(store, a, b, n_rounds=1):
    """Commit read-write conflicting pairs so branch-on-conflict forks.

    Both transactions read *and* write ``base`` so the serializability
    ripple cannot order them — each round deepens both branches.
    """
    for i in range(n_rounds):
        t1 = store.begin(session=a)
        t2 = store.begin(session=b)
        t1.put("base", t1.get("base", default=0) + 1)
        t1.put("a%d" % i, i)
        t2.put("base", t2.get("base", default=0) + 10)
        t2.put("b%d" % i, i)
        t1.commit()
        t2.commit()


def walk(store, key, state):
    """The uncached newest-first walk on the coordinator's DAG, over
    whichever plane holds the versions: the first version whose state
    ``state`` can see, skipping orphans."""
    versions = store.versions
    dag = store.dag
    with store._lock:
        for sid in versions.versions_of(key):
            try:
                version_state = dag.resolve(sid)
            except GarbageCollectedError:
                continue
            if dag.descendant_check(version_state, state):
                return sid, versions.record(key, sid)
    return None


def check_version_lists(versions):
    """Every key's ids strictly descending and non-empty; the record
    count is the sum of the list lengths."""
    total = 0
    for key in list(versions.keys()):
        ids = versions.versions_of(key)
        assert ids and all(a > b for a, b in zip(ids, ids[1:])), (key, ids)
        total += len(ids)
    assert versions.num_records() == total


def walk_candidates(store, key, states):
    """``read_candidates`` rebuilt from one uncached walk per read state."""
    dag = store.dag
    per_branch = {}
    for state in states:
        hit = walk(store, key, state)
        if hit is not None:
            per_branch.setdefault(hit[0], hit[1])
    resolved = {sid: dag.resolve(sid) for sid in per_branch}
    kept = [
        (sid, value)
        for sid, value in per_branch.items()
        if not any(
            sid != other and dag.descendant_check(resolved[sid], resolved[other])
            for other in per_branch
        )
    ]
    return sorted(kept, reverse=True)


def check_every_read(store):
    """Wrap the store's read entry points so each answer is compared
    with the uncached walk before it is returned; returns the count."""
    versions = store.versions
    checked = [0]
    read_visible = versions.read_visible
    read_visible_many = versions.read_visible_many
    read_candidates = versions.read_candidates

    def visible(key, state, dag):
        got = read_visible(key, state, dag)
        assert got == walk(store, key, state), (key, state.id)
        checked[0] += 1
        return got

    def visible_many(keys, state, dag):
        got = read_visible_many(keys, state, dag)
        assert got == [walk(store, key, state) for key in keys], (keys, state.id)
        checked[0] += len(got)
        return got

    def candidates(key, states, dag):
        got = read_candidates(key, states, dag)
        assert got == walk_candidates(store, key, states), key
        checked[0] += 1
        return got

    versions.read_visible = visible
    versions.read_visible_many = visible_many
    versions.read_candidates = candidates
    return checked


KEYS = ["base", "k0", "k1", "k2", "k3", "k4", "never-written"]


def drive(store, rng, steps=150):
    """A randomized history over one store; returns what it covered."""
    sessions = [store.session("s%d" % i) for i in range(3)]
    covered = {"removed": 0, "promoted": 0, "scrubbed": 0, "probes": 0}
    for step in range(steps):
        op = rng.random()
        sess = sessions[rng.randrange(len(sessions))]
        with store._lock:
            branched = len(store.dag.leaves()) > 1
        if op < 0.20:
            # Overlapping read-write pairs on ``base``: branch on conflict.
            other = sessions[(sessions.index(sess) + 1) % len(sessions)]
            t1 = store.begin(session=sess)
            t2 = store.begin(session=other)
            t1.put("base", t1.get("base", default=0) + 1)
            t2.put("base", t2.get("base", default=0) + 10)
            t1.commit()
            t2.commit()
        elif op < 0.60:
            txn = store.begin(session=sess)
            txn.get_many(rng.sample(KEYS, 3), default=None)
            for _ in range(rng.randrange(1, 4)):
                key = KEYS[rng.randrange(1, len(KEYS) - 1)]
                if rng.random() < 0.5:
                    txn.get(key, default=None)
                else:
                    txn.put(key, (step, key))
            txn.put("base", txn.get("base", default=0) + 1)
            try:
                txn.commit()
            except TransactionAborted:
                pass
        elif op < 0.75:
            # Reads from arbitrary live states, interior ones included:
            # masks and ids the transactions above would not pick.
            with store._lock:
                states = list(store.dag.states())
                for _ in range(3):
                    state = states[rng.randrange(len(states))]
                    store.versions.read_visible(
                        KEYS[rng.randrange(len(KEYS))], state, store.dag
                    )
                    covered["probes"] += 1
        elif op < 0.88 and branched:
            merge = store.begin_merge(session=sess)
            for key in merge.find_conflict_writes():
                merge.put(key, max(merge.get_all(key), key=repr))
            try:
                merge.get(KEYS[rng.randrange(1, len(KEYS))], default=None)
            except MultipleValuesError:
                pass
            merge.commit()
        else:
            # Anchor every session at its newest branch head, then promise
            # never to read below it: merged forks become collectable.
            for s in sessions:
                txn = store.begin(session=s)
                txn.get("base", default=None)
                txn.commit()
                s.place_ceiling()
            stats = store.collect_garbage(flush_promotions=rng.random() < 0.3)
            with store._lock:
                check_version_lists(store.versions)
            covered["removed"] += stats.states_removed
            covered["promoted"] += stats.records_promoted + stats.records_dropped
            covered["scrubbed"] += stats.fork_entries_scrubbed
    with store._lock:
        for leaf in store.dag.leaves():
            store.versions.read_visible_many(KEYS, leaf, store.dag)
    covered["forks"] = store.metrics.forks
    covered["merges"] = store.metrics.merges
    return covered


STORES = {
    "flat": {},
    "shards4": {"shards": 4},
    "shards4-workers2": {"shards": 4, "shard_workers": 2},
}


class TestCacheEqualsWalk:
    """Fuzz: every cached answer equals the uncached walk, as it happens."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("plane", sorted(STORES))
    def test_fuzz(self, plane, seed):
        store = TardisStore("site", **STORES[plane])
        try:
            checked = check_every_read(store)
            covered = drive(store, random.Random(seed))
            with store._lock:
                info = store.versions.cache_info()
        finally:
            store.close()
        # The history must reach every path that can stale an entry, and
        # the cache must actually answer, for the equality to mean much.
        assert all(covered.values()), covered
        assert info["hits"] > 0 and info["invalidations"] > 0, info
        assert checked[0] > 300


class TestCacheBound:
    def test_forking_rounds_keep_one_entry_per_key(self):
        # Entries used to be keyed by (key, path_mask); every fork makes
        # a new mask, so a forking history grew the cache without bound.
        # One session: both transactions of a round read its newest head,
        # so every round forks it again.
        store = TardisStore("v")
        sess = store.session("a")
        keys = ["k%d" % i for i in range(8)]
        with store.begin(session=sess) as t:
            for key in keys:
                t.put(key, 0)
        for i in range(200):
            key = keys[i % len(keys)]
            t1 = store.begin(session=sess)
            t2 = store.begin(session=sess)
            t1.get_many(keys)
            t2.get_many(keys)
            t1.put(key, i)
            t2.put(key, -i)
            t1.commit()
            t2.commit()
        assert store.metrics.forks >= 100
        with store._lock:
            assert store.versions.cache_info()["size"] <= len(keys)

    def test_never_written_keys_leave_no_entry(self):
        store = TardisStore("v")
        with store.begin() as t:
            t.put("x", 1)
        t = store.begin()
        for i in range(10_000):
            assert t.get("ghost%d" % i, default=None) is None
        t.commit()
        with store._lock:
            assert store.versions.cache_info()["size"] == 0


class TestDestructiveEpoch:
    """Every destructive event must move ``dag.destructive_gen``."""

    def test_commit_is_not_destructive(self):
        # Plain commits only append: the cache keeps its entries.
        store = TardisStore("g")
        with store.begin() as t:
            t.put("x", 1)
        t = store.begin()
        t.get("x")
        t.commit()
        before = store.dag.destructive_gen
        with store.begin() as t:
            t.put("y", 1)
        assert store.dag.destructive_gen == before
        with store._lock:
            assert store.versions.cache_info()["size"] == 1

    def test_splice_out_marks_destructive(self):
        store = TardisStore("g")
        sess = store.session("a")
        for i in range(5):
            t = store.begin(session=sess)
            t.put("x", i)
            t.commit()
        sess.place_ceiling()
        destructive_before = store.dag.destructive_gen
        stats = store.collect_garbage()
        assert stats.states_removed > 0
        assert store.dag.destructive_gen > destructive_before

    def test_record_promotion_marks_destructive(self):
        # promote_and_prune rewrites version lists even when invoked
        # directly, so it must flag the move itself.
        store = TardisStore("g")
        store.put("y", 0)
        for i in range(3):
            store.put("x", i)
        dag = store.dag
        with store._lock:
            dag.splice_out(dag.resolve(store.versions.versions_of("y")[0]))
            before = dag.destructive_gen
            promoted, dropped = store.versions.promote_and_prune(dag)
        assert promoted + dropped > 0
        assert dag.destructive_gen > before

    def test_mark_pass_alone_is_not_destructive(self):
        # Marking changes which states a begin may pick but rewrites no
        # version list and no path mask: cached reads stay valid across
        # it. The fork is at the root, so the one marked state is a fork
        # point and nothing is spliced.
        store = TardisStore("g")
        a, b = store.session("a"), store.session("b")
        fork_pair(store, a, b)
        with store.begin(session=a) as t:
            t.put("base", t.get("base") + 1)
        reader = store.begin(session=b)
        assert reader.get("base") == 10
        a.place_ceiling()
        b.place_ceiling()
        before = store.dag.destructive_gen
        stats = store.collect_garbage()
        assert stats.marked > 0 and stats.states_removed == 0
        assert store.dag.destructive_gen == before
        with store._lock:
            hits = store.versions.cache_info()["hits"]
        assert reader.get("base") == 10
        with store._lock:
            info = store.versions.cache_info()
        assert info["hits"] == hits + 1 and info["invalidations"] == 0
        reader.abort()


class TestVersionLists:
    """A key's version list: ascending ids, values alongside."""

    def test_promoted_heir_overtakes_newer_version(self):
        # Two branches from the root write x: d (id 1), then v (id 2).
        # d's only child h (id 3) writes nothing. Splicing d out promotes
        # its version to h, which now sorts *after* v.
        store = TardisStore("p")
        with store._lock:
            dag, versions = store.dag, store.versions
            d = dag.create_state([dag.root], write_keys=frozenset({"x"}))
            versions.write("x", d.id, "d")
            v = dag.create_state([dag.root], write_keys=frozenset({"x"}))
            versions.write("x", v.id, "v")
            h = dag.create_state([d])
            assert d.id < v.id < h.id
            dag.splice_out(d)
            assert versions.promote_and_prune(dag) == (1, 0)
            assert versions.versions_of("x") == [h.id, v.id]
            check_version_lists(versions)
            assert versions.record("x", h.id) == "d"
            assert versions.record("x", d.id) is None
            assert versions.read_visible("x", h, dag) == (h.id, "d")
            # A later write on v's branch appends; h's cached read holds.
            w = dag.create_state([v], write_keys=frozenset({"x"}))
            versions.write("x", w.id, "w")
            hits = versions.cache_info()["hits"]
            assert versions.read_visible("x", h, dag) == (h.id, "d")
            assert versions.cache_info()["hits"] == hits + 1
            assert versions.read_visible("x", w, dag) == (w.id, "w")
            # A state that sees both old branches reads the newest id.
            both = dag.create_state([h, v])
            assert versions.read_visible("x", both, dag) == (h.id, "d")
            check_version_lists(versions)

    def test_out_of_order_writes_and_same_id_rewrite(self):
        store = TardisStore("m")
        sess = store.session("a")
        first = store.put("x", 1, session=sess)
        second = store.put("x", 2, session=sess)
        # Replicated states from other sites carry ids that sort below
        # (site "a") and between (site "z") the local ones.
        low, mid = StateId(1, "a"), StateId(1, "z")
        store.apply_remote(CommitRecord(mid, (ROOT_ID,), {"x": "mid"}))
        store.apply_remote(CommitRecord(low, (ROOT_ID,), {"x": "low"}))
        with store._lock:
            versions = store.versions
            assert versions.versions_of("x") == [second, mid, first, low]
            check_version_lists(versions)
            mid_state = store.dag.resolve(mid)
            assert versions.read_visible("x", mid_state, store.dag) == (mid, "mid")
            # Rewriting an existing id replaces its value in place, and the
            # cached answer for that key goes with it.
            versions.write("x", mid, "mid2")
            assert versions.num_records() == 4
            assert versions.record("x", mid) == "mid2"
            assert versions.read_visible("x", mid_state, store.dag) == (mid, "mid2")
            assert versions.read_visible("x", store.dag.resolve(second), store.dag) == (
                second,
                2,
            )

    def test_key_with_every_version_pruned_leaves(self):
        store = TardisStore("o")
        store.put("x", 1)
        with store._lock:
            versions, dag = store.versions, store.dag
            # Orphans: versions whose states are gone without an heir, as a
            # crash can leave behind (§6.5).
            for n in (50, 51):
                versions.write("ghost", StateId(n, "gone"), n)
            leaf = dag.leaves()[0]
            assert versions.read_visible("ghost", leaf, dag) is None
            assert versions.num_keys() == 2
            assert versions.promote_and_prune(dag) == (0, 2)
            assert versions.num_keys() == 1
            assert versions.num_records() == 1
            assert versions.versions_of("ghost") == []
            assert versions.read_visible("ghost", leaf, dag) is None
            assert versions.record("ghost", StateId(50, "gone"), "none") == "none"
            assert store.get("x") == 1
            check_version_lists(versions)


class TestBegin:
    def test_same_state_after_abort(self):
        store = TardisStore("b")
        sess = store.session("a")
        with store.begin(session=sess) as t:
            t.put("x", 1)
        t1 = store.begin(session=sess)
        state_id = t1.read_state.id
        t1.abort()
        t2 = store.begin(session=sess)
        assert t2.read_state.id == state_id
        t2.abort()

    def test_new_leaf_after_commit(self):
        store = TardisStore("b")
        sess = store.session("a")
        with store.begin(session=sess) as t:
            t.put("x", 1)
        store.begin(session=sess).abort()
        with store.begin(session=sess) as t:
            t.put("x", 2)  # a new leaf supersedes the one read above
        t = store.begin(session=sess)
        assert t.read_state.id == sess.last_commit_id
        assert t.get("x") == 2
        t.abort()

    def test_marked_leaf_never_chosen(self):
        store = TardisStore("b")
        a, b = store.session("a"), store.session("b")
        with store.begin(session=a) as t:
            t.put("base", 0)
        fork_pair(store, a, b)
        store.begin(session=a).abort()
        # a commits again, then promises never to read below it: a's
        # old branch leaf becomes marked.
        with store.begin(session=a) as t:
            t.put("base", t.get("base") + 1)
        a.place_ceiling()
        b.place_ceiling()
        store.collect_garbage()
        t = store.begin(session=a)
        assert not t.read_state.marked
        t.abort()


class TestConflictWrites:
    def test_conflict_write_sets_match(self):
        """``find_conflict_writes`` is the keys written on two branches
        since the fork, however often it is asked and as branches grow."""
        store = TardisStore("site")
        a, b = store.session("a"), store.session("b")
        with store.begin(session=a) as t:
            t.put("base", 0)
            t.put("extra", 0)
        fork_pair(store, a, b, n_rounds=3)
        merge = store.begin_merge(session=a)
        first = merge.find_conflict_writes()
        # a%d and b%d are each written on one branch only.
        assert first == ["base"]
        assert merge.find_conflict_writes() == first
        merge.abort()
        # A key written on one branch alone does not conflict ...
        with store.begin(session=a) as t:
            t.put("extra", 1)
        merge = store.begin_merge(session=a)
        assert merge.find_conflict_writes() == ["base"]
        merge.abort()
        # ... until the other branch writes it too.
        with store.begin(session=b) as t:
            t.put("extra", 2)
        merge = store.begin_merge(session=a)
        assert merge.find_conflict_writes() == ["base", "extra"]
        assert sorted(merge.get_all("extra")) == [1, 2]
        merge.abort()


class TestVisibilityCache:
    def test_hits_on_stable_branch(self):
        store = TardisStore("v")
        with store.begin() as t:
            t.put("x", "value")
        for _ in range(3):
            t = store.begin()
            assert t.get("x") == "value"
            t.abort()
        with store._lock:
            info = store.versions.cache_info()
        assert info["hits"] >= 2
        assert info["misses"] >= 1

    def test_write_to_key_forces_rewalk(self):
        store = TardisStore("v")
        with store.begin() as t:
            t.put("x", 1)
        t = store.begin()
        t.get("x")
        t.abort()
        with store.begin() as t:
            t.put("x", 2)
        t = store.begin()
        # The cached entry is for an older read state and the key has a
        # newer version: the walk must run again and see the new value.
        assert t.get("x") == 2
        t.abort()

    def test_destructive_gc_invalidates(self):
        store = TardisStore("v")
        sess = store.session("a")
        for i in range(5):
            t = store.begin(session=sess)
            t.put("x", i)
            t.commit()
        t = store.begin(session=sess)
        assert t.get("x") == 4
        t.abort()
        with store._lock:
            assert store.versions.cache_info()["size"] > 0
        sess.place_ceiling()
        store.collect_garbage()
        t = store.begin(session=sess)
        assert t.get("x") == 4  # correct after promotion rewrote versions
        t.abort()
        with store._lock:
            assert store.versions.cache_info()["invalidations"] > 0


class TestSessionAutoNaming:
    def test_unique_names_and_registration(self):
        store = TardisStore("s")
        s1 = store.session()
        s2 = store.session()
        assert s1.name != s2.name
        assert store.session(s1.name) is s1

    def test_concurrent_auto_naming(self):
        import threading

        store = TardisStore("s")
        out = []

        def grab():
            for _ in range(50):
                out.append(store.session())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        names = [s.name for s in out]
        assert len(set(names)) == len(names) == 200
