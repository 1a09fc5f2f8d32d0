"""Tests for single-mode transactions: begin, read, write, commit, abort."""

import pytest

from repro import (
    AncestorConstraint,
    AnyConstraint,
    KBranchingConstraint,
    NoBranchingConstraint,
    ParentConstraint,
    ReadCommittedConstraint,
    SerializabilityConstraint,
    SnapshotIsolationConstraint,
    StateIdConstraint,
    TardisStore,
)
from repro.errors import (
    BeginError,
    KeyNotFound,
    ReadOnlyViolation,
    TransactionAborted,
    TransactionClosed,
)


@pytest.fixture
def store():
    return TardisStore("A")


class TestBasicLifecycle:
    def test_put_get_commit(self, store):
        t = store.begin()
        t.put("x", 1)
        assert t.get("x") == 1  # read-your-own-writes inside the txn
        sid = t.commit()
        assert t.status == "committed"
        assert t.commit_id == sid
        t2 = store.begin()
        assert t2.get("x") == 1

    def test_missing_key_raises(self, store):
        t = store.begin()
        with pytest.raises(KeyNotFound):
            t.get("nope")
        assert t.get("nope", default=7) == 7

    def test_delete_is_tombstone(self, store):
        store.put("x", 1)
        t = store.begin()
        t.delete("x")
        t.commit()
        t2 = store.begin()
        with pytest.raises(KeyNotFound):
            t2.get("x")
        assert t2.get("x", default=None) is None

    def test_abort_discards_writes(self, store):
        store.put("x", 1)
        t = store.begin()
        t.put("x", 99)
        t.abort()
        assert t.status == "aborted"
        assert store.get("x") == 1
        assert store.metrics.commits == 1

    def test_closed_transaction_rejects_ops(self, store):
        t = store.begin()
        t.put("x", 1)
        t.commit()
        with pytest.raises(TransactionClosed):
            t.get("x")
        with pytest.raises(TransactionClosed):
            t.put("x", 2)
        with pytest.raises(TransactionClosed):
            t.commit()

    def test_read_only_transaction(self, store):
        store.put("x", 1)
        t = store.begin(read_only=True)
        assert t.get("x") == 1
        with pytest.raises(ReadOnlyViolation):
            t.put("x", 2)
        before = len(store.dag)
        t.commit()
        # Read-only commits do not extend the DAG (§6.1.4).
        assert len(store.dag) == before
        assert store.metrics.read_only_commits == 1

    def test_context_manager_commits(self, store):
        with store.begin() as t:
            t.put("x", 5)
        assert store.get("x") == 5

    def test_context_manager_aborts_on_exception(self, store):
        store.put("x", 1)
        with pytest.raises(RuntimeError):
            with store.begin() as t:
                t.put("x", 2)
                raise RuntimeError("boom")
        assert store.get("x") == 1

    def test_multi_key_transaction_is_atomic(self, store):
        with store.begin() as t:
            t.put("a", 1)
            t.put("b", 2)
            t.put("c", 3)
        t2 = store.begin()
        assert (t2.get("a"), t2.get("b"), t2.get("c")) == (1, 2, 3)
        # All three records share one state.
        assert len(store.dag) == 2

    def test_overwrite_within_transaction(self, store):
        with store.begin() as t:
            t.put("x", 1)
            t.put("x", 2)
        assert store.get("x") == 2


class TestBranchOnConflict:
    def two_conflicting(self, store, key="x"):
        store.put(key, 0)
        a, b = store.session("a"), store.session("b")
        t1 = store.begin(session=a)
        t2 = store.begin(session=b)
        t1.put(key, t1.get(key) + 1)
        t2.put(key, t2.get(key) + 1)
        t1.commit()
        t2.commit()
        return a, b

    def test_conflict_creates_branch(self, store):
        self.two_conflicting(store)
        assert store.metrics.forks == 1
        with store._lock:
            assert len(store.dag.leaves()) == 2
        assert store.metrics.aborts == 0

    def test_branches_are_isolated(self, store):
        a, b = self.two_conflicting(store)
        ta = store.begin(session=a)
        tb = store.begin(session=b)
        # Each session sees its own branch's value (1), not the other's.
        assert ta.get("x") == 1
        assert tb.get("x") == 1
        ta.put("x", 10)
        ta.commit()
        tb2 = store.begin(session=b)
        assert tb2.get("x") == 1

    def test_non_conflicting_concurrent_txns_stay_sequential(self, store):
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", 1)
        t2.put("y", 2)
        t1.commit()
        t2.commit()  # ripples past t1's commit: no fork
        assert store.metrics.forks == 0
        with store._lock:
            assert len(store.dag.leaves()) == 1
        t3 = store.begin()
        assert t3.get("x") == 1
        assert t3.get("y") == 2

    def test_write_write_only_conflict_ripples_with_serializability(self, store):
        """Blind writes don't conflict under Ser (no read-write overlap)."""
        store.put("x", 0)
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", 1)
        t2.put("x", 2)  # blind write: t2 never read x
        t1.commit()
        t2.commit()
        assert store.metrics.forks == 0
        assert store.get("x") == 2

    def test_snapshot_isolation_forks_on_write_write(self, store):
        store.put("x", 0)
        si = SnapshotIsolationConstraint()
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", 1)
        t2.put("x", 2)
        t1.commit(si)
        t2.commit(si)
        assert store.metrics.forks == 1


class TestConstraints:
    def test_no_branching_aborts_on_conflict(self, store):
        store.put("x", 0)
        end = SerializabilityConstraint() & NoBranchingConstraint()
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.commit(end)
        with pytest.raises(TransactionAborted):
            t2.commit(end)
        assert store.metrics.aborts == 1
        assert store.metrics.forks == 0

    def test_k_branching_bounds_children(self, store):
        store.put("x", 0)
        end = SerializabilityConstraint() & KBranchingConstraint(3)
        txns = [store.begin(session=store.session("s%d" % i)) for i in range(4)]
        for t in txns:
            t.put("x", t.get("x") + 1)
        results = []
        for t in txns:
            try:
                t.commit(end)
                results.append("ok")
            except TransactionAborted:
                results.append("abort")
        # k=3 allows at most 2 children per state: 1st commit extends,
        # 2nd forks; the rest abort.
        assert results == ["ok", "ok", "abort", "abort"]

    def test_the_defaults_are_the_papers_and_fixed(self, store):
        # §5.1: a begin naming no constraint is Ancestor, a commit naming
        # none is Serializability; neither is a store option.
        assert isinstance(store.default_begin, AncestorConstraint)
        assert isinstance(store.default_end, SerializabilityConstraint)
        with pytest.raises(TypeError):
            TardisStore("B", default_begin=AnyConstraint())
        store.put("x", 0)
        t1, t2 = store.begin(), store.begin()
        for t in (t1, t2):
            t.put("x", t.get("x") + 1)
        t1.commit()
        t2.commit()  # read what t1 overwrote: it forks instead of rippling down
        assert store.metrics.forks == 1

    def test_k_branching_validates_k(self):
        with pytest.raises(ValueError):
            KBranchingConstraint(1)

    def test_parent_constraint_sees_only_own_writes(self, store):
        a, b = store.session("a"), store.session("b")
        parent = ParentConstraint()
        ta = store.begin(parent, session=a)
        ta.put("x", "from-a")
        ta.commit()
        tb = store.begin(parent, session=b)
        # b last committed at the root: it must not see a's write.
        with pytest.raises(KeyNotFound):
            tb.get("x")
        tb.put("y", "from-b")
        tb.commit()
        ta2 = store.begin(parent, session=a)
        assert ta2.get("x") == "from-a"
        with pytest.raises(KeyNotFound):
            ta2.get("y")

    def test_ancestor_reads_my_writes(self, store):
        a = store.session("a")
        with store.begin(session=a) as t:
            t.put("x", 1)
        t2 = store.begin(session=a)
        assert t2.get("x") == 1

    def test_ancestor_excludes_conflicting_sibling(self, store):
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1 = store.begin(session=a)
        t2 = store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 5)
        t1.commit()
        t2.commit()
        # a continues on its own branch.
        t3 = store.begin(session=a)
        assert t3.get("x") == 1

    def test_state_id_begin_constraint(self, store):
        sid1 = store.put("x", 1)
        store.put("x", 2)
        t = store.begin(StateIdConstraint([sid1]))
        assert t.get("x") == 1

    def test_state_id_commit_pins_parent(self, store):
        sid1 = store.put("x", 1)
        store.put("x", 2)  # a later state exists
        t = store.begin(StateIdConstraint([sid1]))
        t.put("y", 9)
        t.commit(StateIdConstraint([sid1]))
        # committed exactly under sid1, forking the branch.
        assert store.metrics.forks == 1

    def test_begin_error_when_no_state_qualifies(self, store):
        with pytest.raises(BeginError):
            store.begin(StateIdConstraint([]))

    def test_end_only_constraint_rejected_at_begin(self, store):
        with pytest.raises(BeginError):
            store.begin(SerializabilityConstraint())

    def test_begin_only_constraint_rejected_at_end(self, store):
        t = store.begin()
        t.put("x", 1)
        with pytest.raises(TransactionAborted):
            t.commit(ParentConstraint())

    def test_read_committed_end_never_aborts(self, store):
        store.put("x", 0)
        rc = ReadCommittedConstraint()
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.commit(rc)
        t2.commit(rc)  # ripples past the conflicting write: no fork
        assert store.metrics.forks == 0

    def test_or_composition(self, store):
        # (NoBranching | Any) as end: never aborts even under conflict.
        store.put("x", 0)
        end = NoBranchingConstraint() | AnyConstraint()
        t1 = store.begin()
        t2 = store.begin()
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 1)
        t1.commit(end)
        t2.commit(end)
        assert store.metrics.aborts == 0

    def test_constraint_names(self):
        combo = SerializabilityConstraint() & NoBranchingConstraint()
        assert "Serializability" in combo.name
        assert "NoBranching" in combo.name
        assert AncestorConstraint().can_begin
        assert not AncestorConstraint().can_end
        assert SerializabilityConstraint().can_end


class TestRippleDown:
    def test_commit_ripples_to_latest_compatible(self, store):
        """t commits after non-conflicting later states (Figure 6)."""
        t = store.begin()
        t.put("a", 1)
        for i in range(3):
            other = store.begin()
            other.put("k%d" % i, i)
            other.commit()
        t.commit()
        assert store.metrics.forks == 0
        with store._lock:
            assert len(store.dag.leaves()) == 1
        assert t.trace.ripple_steps == 3

    def test_commit_stops_before_conflicting_state(self, store):
        store.put("x", 0)
        t = store.begin()
        t.get("x")
        t.put("y", 1)
        w1 = store.begin()
        w1.put("z", 5)
        w1.commit()
        w2 = store.begin()
        w2.put("x", 9)  # conflicts with t's read
        w2.commit()
        t.commit()
        # t rippled past w1 but stopped before w2 -> fork after w1's state.
        assert store.metrics.forks == 1
        assert t.trace.ripple_steps == 1


class TestSessions:
    def test_named_sessions_are_stable(self, store):
        assert store.session("a") is store.session("a")
        assert store.session("a") is not store.session("b")

    def test_anonymous_sessions_unique(self, store):
        assert store.session() is not store.session()

    def test_autocommit_helpers(self, store):
        sid = store.put("k", "v")
        assert store.get("k") == "v"
        assert store.get("missing", default="d") == "d"
        assert sid in store.dag


class TestGetMany:
    """``get_many(keys)`` reads exactly like ``[get(k) for k in keys]``."""

    #: a buffered overwrite, a buffered delete, a buffered new key, a
    #: committed key, a key never written anywhere, and duplicates.
    KEYS = ["a", "b", "c", "a", "new", "never", "c"]

    @staticmethod
    def _open(store):
        for key, value in (("a", 1), ("b", 2), ("c", 3), ("d", 4)):
            store.put(key, value)
        t = store.begin()
        t.put("a", 10)
        t.delete("b")
        t.put("new", 5)
        return t

    def test_values_and_read_keys_match_get(self):
        many = self._open(TardisStore("A"))
        one = self._open(TardisStore("A"))
        batched = many.get_many(self.KEYS, default="D")
        singles = [one.get(key, default="D") for key in self.KEYS]
        assert batched == singles == [10, "D", 3, 10, 5, "D", 3]
        assert many.read_keys == one.read_keys == set(self.KEYS)
        assert many.get_many([]) == []

    @pytest.mark.parametrize(
        "keys", [["c", "never", "b"], ["c", "b", "never"], ["a", "new", "b", "c"]]
    )
    def test_missing_key_is_named_like_get(self, store, keys):
        t = self._open(store)
        with pytest.raises(KeyNotFound) as batched:
            t.get_many(keys)
        # The whole batch was read before the first missing key raised.
        assert t.read_keys == set(keys)
        with pytest.raises(KeyNotFound) as single:
            for key in keys:
                t.get(key)
        assert batched.value.key == single.value.key

    @pytest.mark.parametrize("no_branching", [False, True])
    def test_read_keys_drive_the_end_constraint_like_get(self, no_branching):
        end = SerializabilityConstraint()
        if no_branching:
            end = end & NoBranchingConstraint()
        outcomes = []
        for batched in (True, False):
            store = TardisStore("A")
            t = self._open(store)
            if batched:
                t.get_many(self.KEYS, default=None)
            else:
                for key in self.KEYS:
                    t.get(key, default=None)
            store.put("d", 0)  # a key t never read: t ripples past it
            store.put("never", 0)  # a key t read as missing: t stops above it
            try:
                t.commit(end)
                outcomes.append((t.trace.ripple_steps, store.metrics.forks))
            except TransactionAborted:
                outcomes.append("aborted")
        expected = "aborted" if no_branching else (1, 1)
        assert outcomes == [expected, expected]
