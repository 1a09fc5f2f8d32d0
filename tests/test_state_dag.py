"""Tests for the State DAG, fork paths, and the Figure 7 visibility check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ancestry import ForkPoint, popcount
from repro.core.ids import ROOT_ID, IdAllocator, StateId
from repro.core.state_dag import StateDAG
from repro.errors import GarbageCollectedError


def points(dag, state):
    """The fork points a state's path mask encodes."""
    return set(dag.ancestry.points_of(state.path_mask))


def chain(dag, parent, n, write_key=None):
    """Append a linear chain of n states under parent; returns them."""
    states = []
    for _ in range(n):
        wk = frozenset() if write_key is None else frozenset([write_key])
        parent = dag.create_state([parent], write_keys=wk)
        states.append(parent)
    return states


class TestIds:
    def test_ordering_is_lexicographic(self):
        assert StateId(1, "A") < StateId(2, "A")
        assert StateId(1, "A") < StateId(1, "B")
        assert ROOT_ID < StateId(1, "A")

    def test_allocator_monotonic(self):
        alloc = IdAllocator("A")
        a = alloc.next_id()
        b = alloc.next_id([a])
        assert a < b

    def test_allocator_advances_past_parents(self):
        alloc = IdAllocator("A")
        remote = StateId(100, "B")
        fresh = alloc.next_id([remote])
        assert fresh > remote
        assert fresh.site == "A"

    def test_allocator_observe(self):
        alloc = IdAllocator("A")
        alloc.observe(StateId(50, "B"))
        assert alloc.next_id().counter == 51

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            IdAllocator("")


class TestForkPath:
    """Fork paths as a DAG encodes them: ``State.path_mask`` over ``dag.ancestry``."""

    def test_empty(self):
        dag = StateDAG("A")
        child = dag.create_state([dag.root])
        assert dag.root.path_mask == 0
        assert points(dag, dag.root) == set()
        # The empty path is a subset of every path, itself included.
        assert dag.root.path_mask & dag.root.path_mask == dag.root.path_mask
        assert dag.root.path_mask & child.path_mask == dag.root.path_mask

    def test_add_and_subset(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        first = dag.create_state([base])
        dag.create_state([base])  # fork at base
        deep = dag.create_state([first])
        dag.create_state([first])  # fork at first
        p1, p2 = first.path_mask, deep.path_mask
        assert p1 & p2 == p1
        assert p2 & p1 != p2
        assert ForkPoint(base.id, 0) in points(dag, deep)
        assert points(dag, deep) == {ForkPoint(base.id, 0), ForkPoint(first.id, 0)}

    def test_add_is_persistent(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        first = dag.create_state([base])
        dag.create_state([base])  # fork at base
        before = first.path_mask
        dag.create_state([first])
        dag.create_state([first])  # fork at first: only its children extend
        assert first.path_mask == before
        assert popcount(first.path_mask) == 1

    def test_add_duplicate_returns_self(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        first = dag.create_state([base])
        dag.create_state([base])  # fork at base
        bit = dag.ancestry.intern(ForkPoint(base.id, 0))
        assert first.path_mask | bit == first.path_mask

    def test_union(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = dag.create_state([base])
        right = dag.create_state([base])
        merged = dag.create_state([left, right])
        assert popcount(merged.path_mask) == 2
        assert dag.ancestry.choices_by_fork(merged.path_mask) == {base.id: {0, 1}}
        for parent in (left, right):
            assert parent.path_mask & merged.path_mask == parent.path_mask

    def test_equality_and_hash(self):
        def build():
            dag = StateDAG("A")
            base = dag.create_state([dag.root])
            first = dag.create_state([base])
            deep = dag.create_state([first])
            dag.create_state([base])  # fork at base
            return dag, first, deep

        dag, first, deep = build()
        # States on one branch share one path.
        assert first.path_mask == deep.path_mask
        # Two DAGs of the same shape decode to equal, equally hashed paths.
        other, other_first, _ = build()
        a, b = frozenset(points(dag, first)), frozenset(points(other, other_first))
        assert a == b
        assert hash(a) == hash(b)


class TestDagConstruction:
    def test_initial(self):
        dag = StateDAG("A")
        assert len(dag) == 1
        assert dag.root.id == ROOT_ID
        assert dag.leaves() == [dag.root]
        assert dag.num_forks() == 0

    def test_linear_chain_no_fork_points(self):
        dag = StateDAG("A")
        states = chain(dag, dag.root, 5)
        assert dag.num_forks() == 0
        for s in states:
            assert s.path_mask == 0
        assert dag.leaves() == [states[-1]]

    def test_fork_creates_fork_point_and_retro_update(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        first = dag.create_state([base])
        deep = dag.create_state([first])
        # Before the fork, the first branch has empty paths.
        assert first.path_mask == 0
        second = dag.create_state([base])  # fork at base
        assert base.is_fork_point
        # Retroactive update: first child subtree carries (base, 0).
        assert ForkPoint(base.id, 0) in points(dag, first)
        assert ForkPoint(base.id, 0) in points(dag, deep)
        assert ForkPoint(base.id, 1) in points(dag, second)
        assert dag.retro_updates == 2

    def test_third_child_gets_branch_2(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        dag.create_state([base])
        dag.create_state([base])
        third = dag.create_state([base])
        assert ForkPoint(base.id, 2) in points(dag, third)

    def test_merge_takes_union_of_paths(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = dag.create_state([base])
        right = dag.create_state([base])
        merged = dag.create_state([left, right])
        assert points(dag, left) | points(dag, right) == points(dag, merged)
        assert points(dag, left) != points(dag, right)

    def test_explicit_state_id(self):
        dag = StateDAG("A")
        remote = StateId(7, "B")
        state = dag.create_state([dag.root], state_id=remote)
        assert state.id == remote
        # Local allocation continues past the observed id.
        local = dag.create_state([dag.root])
        assert local.id.counter == 8

    def test_duplicate_state_id_rejected(self):
        dag = StateDAG("A")
        dag.create_state([dag.root], state_id=StateId(7, "B"))
        with pytest.raises(ValueError):
            dag.create_state([dag.root], state_id=StateId(7, "B"))

    def test_no_parents_rejected(self):
        dag = StateDAG("A")
        with pytest.raises(ValueError):
            dag.create_state([])

    def test_leaves_most_recent_first(self):
        dag = StateDAG("A")
        a = dag.create_state([dag.root])
        b = dag.create_state([dag.root])
        c = dag.create_state([dag.root])
        assert dag.leaves() == [c, b, a]

    def test_discard_leaf_undoes_a_fork(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        first = dag.create_state([base])
        second = dag.create_state([base])  # fork at base
        gen = dag.destructive_gen
        dag.discard_leaf(second)
        assert second.id not in dag and dag.leaves() == [first]
        assert not base.is_fork_point and base.next_branch == 1
        # base's fork entries are retired, as the collector would.
        assert first.path_mask == 0 and dag.ancestry.mask_of_forks([base.id]) == 0
        assert dag.destructive_gen > gen
        with pytest.raises(GarbageCollectedError):
            dag.resolve(second.id)
        again = dag.create_state([base])  # the same parent forks cleanly
        assert ForkPoint(base.id, 1) in points(dag, again)
        assert not dag.descendant_check(first, again)
        dag.discard_leaf(again)
        dag.discard_leaf(first)
        assert dag.leaves() == [base] and base.next_branch == 0
        dag.check_invariants()
        with pytest.raises(ValueError):
            dag.discard_leaf(dag.root)


class TestDescendantCheck:
    def test_reflexive(self):
        dag = StateDAG("A")
        s = dag.create_state([dag.root])
        assert dag.descendant_check(s, s)

    def test_linear(self):
        dag = StateDAG("A")
        states = chain(dag, dag.root, 4)
        assert dag.descendant_check(states[0], states[3])
        assert not dag.descendant_check(states[3], states[0])
        assert dag.descendant_check(dag.root, states[2])

    def test_siblings_invisible_both_ways(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 3)
        right = chain(dag, base, 3)
        for x in left:
            for y in right:
                assert not dag.descendant_check(x, y)
                assert not dag.descendant_check(y, x)
        for x in left + right:
            assert dag.descendant_check(base, x)

    def test_merge_sees_both_branches(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 2)
        right = chain(dag, base, 2)
        merged = dag.create_state([left[-1], right[-1]])
        for s in left + right + [base]:
            assert dag.descendant_check(s, merged)
        below = dag.create_state([merged])
        for s in left + right:
            assert dag.descendant_check(s, below)

    def test_nested_forks(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        l1 = chain(dag, base, 2)
        r1 = chain(dag, base, 1)
        # fork within the left branch
        l2a = chain(dag, l1[-1], 2)
        l2b = chain(dag, l1[-1], 2)
        assert dag.descendant_check(l1[0], l2a[-1])
        assert dag.descendant_check(l1[0], l2b[-1])
        assert not dag.descendant_check(l2a[0], l2b[-1])
        assert not dag.descendant_check(r1[0], l2a[-1])

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_graph_walk(self, parent_choices, seed):
        """Fork-path check agrees with the reference ancestor walk on random DAGs."""
        rng = random.Random(seed)
        dag = StateDAG("A")
        states = [dag.root]
        for choice in parent_choices:
            parent = states[choice % len(states)]
            if rng.random() < 0.15 and len(states) > 2:
                other = states[rng.randrange(len(states))]
                parents = {parent.id: parent, other.id: other}
                new = dag.create_state(list(parents.values()))
            else:
                new = dag.create_state([parent])
            states.append(new)
        sample = states if len(states) <= 12 else rng.sample(states, 12)
        for x in sample:
            for y in sample:
                assert dag.descendant_check(x, y) == dag.ancestor_walk_check(x, y), (
                    x.id,
                    y.id,
                )


class TestBranchQueries:
    def test_fork_points_of_siblings(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 2)
        right = chain(dag, base, 2)
        forks = dag.fork_points_of([left[-1], right[-1]])
        assert [f.id for f in forks] == [base.id]

    def test_fork_points_nested_returns_nearest_first(self):
        dag = StateDAG("A")
        f1 = dag.create_state([dag.root])
        a = chain(dag, f1, 1)[0]
        b = chain(dag, f1, 1)[0]
        # second fork inside branch a
        a1 = chain(dag, a, 1)[0]
        a2 = chain(dag, a, 1)[0]
        forks = dag.fork_points_of([a1, a2, b])
        assert forks[0].id == a.id
        assert {f.id for f in forks} == {a.id, f1.id}

    def test_fork_points_of_nested_states_empty(self):
        dag = StateDAG("A")
        states = chain(dag, dag.root, 3)
        assert dag.fork_points_of([states[0], states[2]]) == []

    def test_no_false_fork_after_merge(self):
        """A merge descendant vs. a branch state must not report the old fork."""
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 1)[0]
        right = chain(dag, base, 1)[0]
        merged = dag.create_state([left, right])
        assert dag.fork_points_of([merged, left]) == []

    def test_states_between(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 3)
        right = chain(dag, base, 2)
        between = dag.states_between(left[-1], base)
        assert {s.id for s in between} == {s.id for s in left}
        assert dag.states_between(right[0], left[0]) == []

    def test_states_between_through_merge(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 1)[0]
        right = chain(dag, base, 1)[0]
        merged = dag.create_state([left, right])
        between = dag.states_between(merged, base)
        assert {s.id for s in between} == {left.id, right.id, merged.id}


class TestSpliceOut:
    def test_splice_linear(self):
        dag = StateDAG("A")
        a, b, c = chain(dag, dag.root, 3)
        b.write_keys = frozenset(["x"])
        dag.splice_out(b)
        assert dag.get(b.id) is None
        # Promoted ids still resolve (and count as "present" for the
        # replicator's constant-time dependency check).
        assert b.id in dag
        assert dag.resolve(b.id) is c
        assert c.parents == (a,)
        assert a.children == [c]
        # Inheriting b's write keys is the collector's job, once per
        # survivor (tests/test_gc.py::TestChainSpliceEquivalence).
        assert c.write_keys == frozenset()

    def test_splice_fork_point_rejected(self):
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        chain(dag, base, 1)
        chain(dag, base, 1)
        with pytest.raises(ValueError):
            dag.splice_out(base)

    def test_splice_leaf_rejected(self):
        dag = StateDAG("A")
        leaf = dag.create_state([dag.root])
        with pytest.raises(ValueError):
            dag.splice_out(leaf)

    def test_splice_root(self):
        dag = StateDAG("A")
        a, b = chain(dag, dag.root, 2)
        old_root = dag.root
        dag.splice_out(dag.root)
        assert dag.root is a
        assert dag.resolve(old_root.id) is a
        assert a.parents == ()

    def test_resolve_chain_compression(self):
        dag = StateDAG("A")
        a, b, c, d = chain(dag, dag.root, 4)
        dag.splice_out(a)
        dag.splice_out(b)
        dag.splice_out(c)
        assert dag.resolve(a.id) is d
        # After path compression the chain points straight at d.
        assert dag.promotion_of(a.id) == d.id

    def test_resolve_unknown_raises(self):
        dag = StateDAG("A")
        with pytest.raises(GarbageCollectedError):
            dag.resolve(StateId(99, "Z"))

    def test_splice_collapsed_branches_preserves_visibility(self):
        """Collapse both branches of a fork into the merge, then splice the fork."""
        dag = StateDAG("A")
        base = dag.create_state([dag.root])
        left = chain(dag, base, 1)[0]
        right = chain(dag, base, 1)[0]
        merged = dag.create_state([left, right])
        tail = dag.create_state([merged])
        dag.splice_out(left)
        dag.splice_out(right)
        # base now has one distinct child (merged, twice) -> collectable.
        assert not base.is_fork_point
        dag.splice_out(base)
        assert dag.resolve(base.id) is merged
        assert dag.descendant_check(dag.resolve(left.id), tail)
        assert merged.parents == (dag.root,)

    def test_find_read_state_skips_marked(self):
        dag = StateDAG("A")
        a, b = chain(dag, dag.root, 2)
        b.marked = True
        found, visits = dag.find_read_state(lambda s: True)
        assert found is a and visits == 2

    def test_find_read_state_counts_visits(self):
        dag = StateDAG("A")
        chain(dag, dag.root, 3)
        assert dag.find_read_state(lambda s: False) == (None, 4)
