"""Tests for merge transactions and the merge-mode API (§5.1, §6.2)."""

import pytest

from repro import AnyConstraint, NoBranchingConstraint, TardisStore
from repro.errors import (
    BeginError,
    KeyNotFound,
    MultipleValuesError,
    TransactionAborted,
)


@pytest.fixture
def store():
    return TardisStore("A")


def fork_counter(store, key="c", base=10, deltas=(3, 7)):
    """Create two conflicting branches incrementing a counter."""
    store.put(key, base)
    sessions = [store.session("s%d" % i) for i in range(len(deltas))]
    txns = [store.begin(session=s) for s in sessions]
    for t, d in zip(txns, deltas):
        t.put(key, t.get(key) + d)
    for t in txns:
        t.commit()
    return sessions


class TestMergeBasics:
    def test_parents_are_branch_heads(self, store):
        fork_counter(store)
        m = store.begin_merge()
        assert len(m.parents) == 2
        with store._lock:
            assert {p for p in m.parents} == {l.id for l in store.dag.leaves()}
        m.abort()

    def test_find_fork_points(self, store):
        fork_counter(store)
        m = store.begin_merge()
        forks = m.find_fork_points()
        assert len(forks) == 1
        # The fork point is the state where the counter was 10.
        assert m.get_for_id("c", forks[0]) == 10
        m.abort()

    def test_find_conflict_writes(self, store):
        fork_counter(store)
        m = store.begin_merge()
        assert m.find_conflict_writes() == ["c"]
        m.abort()

    def test_conflict_writes_ignores_disjoint_keys(self, store):
        store.put("x", 0)
        t1, t2 = store.begin(session=store.session("a")), store.begin(
            session=store.session("b")
        )
        t1.put("x", t1.get("x") + 1)  # conflicting
        t2.put("x", t2.get("x") + 1)
        t1.put("only-a", 1)  # branch-private keys
        t2.put("only-b", 2)
        t1.commit()
        t2.commit()
        m = store.begin_merge()
        assert m.find_conflict_writes() == ["x"]
        m.abort()

    def test_get_conflicting_key_raises(self, store):
        fork_counter(store)
        m = store.begin_merge()
        with pytest.raises(MultipleValuesError) as exc:
            m.get("c")
        assert exc.value.key == "c"
        assert len(exc.value.candidates) == 2
        assert sorted(v for _s, v in exc.value.candidates) == [13, 17]
        m.abort()

    def test_get_non_conflicting_key(self, store):
        store.put("shared", "s")
        fork_counter(store)
        m = store.begin_merge()
        assert m.get("shared") == "s"
        m.abort()

    def test_get_all(self, store):
        fork_counter(store)
        m = store.begin_merge()
        assert sorted(m.get_all("c")) == [13, 17]
        assert m.get_all("absent") == []
        m.abort()

    def test_get_for_id_missing_key(self, store):
        fork_counter(store)
        m = store.begin_merge()
        fork = m.find_fork_points()[0]
        with pytest.raises(KeyNotFound):
            m.get_for_id("absent", fork)
        assert m.get_for_id("absent", fork, default=0) == 0
        m.abort()


class TestMergeCommit:
    def merge_counter(self, store, key="c"):
        m = store.begin_merge()
        fork = m.find_fork_points()[0]
        base = m.get_for_id(key, fork)
        merged = base + sum(v - base for v in m.get_all(key))
        m.put(key, merged)
        return m, merged

    def test_three_way_counter_merge(self, store):
        fork_counter(store, deltas=(3, 7))
        m, merged = self.merge_counter(store)
        m.commit()
        assert merged == 20
        assert store.get("c") == 20
        with store._lock:
            assert len(store.dag.leaves()) == 1
        assert store.metrics.merges == 1

    def test_merge_three_branches(self, store):
        fork_counter(store, deltas=(1, 2, 4))
        m, merged = self.merge_counter(store)
        assert len(m.parents) == 3
        m.commit()
        assert store.get("c") == 17

    def test_merge_state_has_all_parents(self, store):
        fork_counter(store)
        m, _ = self.merge_counter(store)
        sid = m.commit()
        with store._lock:
            state = store.dag.resolve(sid)
        assert {p.id for p in state.parents} == set(m.parents)

    def test_after_merge_single_mode_sees_merged_value(self, store):
        fork_counter(store)
        m, _ = self.merge_counter(store)
        m.commit()
        t = store.begin(session=store.session("s0"))
        assert t.get("c") == 20
        t.commit()

    def test_unmerged_nonconflicting_keys_visible_after_merge(self, store):
        store.put("x", 0)
        a, b = store.session("a"), store.session("b")
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.put("left", "L")
        t2.put("right", "R")
        t1.commit()
        t2.commit()
        m = store.begin_merge()
        m.put("x", 2)
        m.commit()
        t = store.begin()
        assert t.get("left") == "L"
        assert t.get("right") == "R"
        assert t.get("x") == 2

    def test_merge_abort_leaves_branches(self, store):
        fork_counter(store)
        m = store.begin_merge()
        m.put("c", 999)
        m.abort()
        with store._lock:
            assert len(store.dag.leaves()) == 2
        assert store.metrics.merges == 0

    def test_merge_end_constraint_failure_aborts(self, store):
        fork_counter(store)
        m = store.begin_merge()
        # Extend one branch after beginMerge so its head gains a child.
        t = store.begin(session=store.session("s0"))
        t.put("other", 1)
        t.commit()
        m.put("c", 0)
        with pytest.raises(TransactionAborted):
            m.commit(NoBranchingConstraint())

    def test_concurrent_merges_allowed(self, store):
        fork_counter(store)
        m1 = store.begin_merge()
        m2 = store.begin_merge()
        m1.put("c", 20)
        m2.put("c", 20)
        m1.commit()
        m2.commit()
        # Both merge states exist; they can be merged again later.
        assert store.metrics.merges == 2
        m3 = store.begin_merge()
        assert len(m3.parents) == 2
        m3.put("c", 20)
        m3.commit()
        assert store.get("c") == 20

    def test_merge_of_single_branch(self, store):
        store.put("x", 1)
        m = store.begin_merge()
        assert len(m.parents) == 1
        assert m.find_fork_points() == []
        assert m.find_conflict_writes() == []
        assert m.get("x") == 1
        m.put("x", 2)
        m.commit()
        assert store.get("x") == 2

    def test_explicit_states_merge(self, store):
        fork_counter(store)
        with store._lock:
            leaves = [l.id for l in store.dag.leaves()]
        m = store.begin_merge(states=leaves[:1])
        assert m.parents == leaves[:1]
        m.abort()

    def test_begin_merge_empty_states_rejected(self, store):
        with pytest.raises(BeginError):
            store.begin_merge(states=[])

    def test_session_anchored_at_merge(self, store):
        sess = store.session("merger")
        fork_counter(store)
        m = store.begin_merge(session=sess)
        m.put("c", 20)
        sid = m.commit()
        assert sess.last_commit_id == sid


class TestShoppingCartScenario:
    """The paper's §5.2 game-store example, distilled."""

    def test_oversell_detected_and_resolved(self, store):
        with store.begin() as t:
            t.put("stock:game", 1)
            t.put("cart:alice", [])
            t.put("cart:bruno", [])
        alice, bruno = store.session("alice"), store.session("bruno")
        ta = store.begin(session=alice)
        tb = store.begin(session=bruno)
        # Both buy the last copy concurrently.
        for t, cart in ((ta, "cart:alice"), (tb, "cart:bruno")):
            stock = t.get("stock:game")
            t.put("stock:game", stock - 1)
            t.put(cart, t.get(cart) + ["game"])
        ta.commit()
        tb.commit()
        # Bruno additionally buys the expansion on his branch.
        tb2 = store.begin(session=bruno)
        tb2.put("cart:bruno", tb2.get("cart:bruno") + ["expansion"])
        tb2.commit()

        m = store.begin_merge()
        conflicts = m.find_conflict_writes()
        assert "stock:game" in conflicts
        fork = m.find_fork_points()[0]
        base = m.get_for_id("stock:game", fork)
        merged_stock = base + sum(v - base for v in m.get_all("stock:game"))
        assert merged_stock == -1  # oversold
        # Policy: Bruno keeps game+expansion, Alice gets an apology.
        m.put("stock:game", 0)
        m.put("cart:alice", [])
        m.put("apology:alice", True)
        m.commit()

        t = store.begin()
        assert t.get("stock:game") == 0
        assert t.get("cart:bruno") == ["game", "expansion"]
        assert t.get("cart:alice") == []
        assert t.get("apology:alice") is True
