"""Isolation-level verification on randomly generated histories.

The paper's central correctness claims are checked here by *replaying*
committed histories rather than trusting the implementation:

* **Inter-branch isolation / per-branch serializability** (§3, §5.1):
  for every root-to-leaf branch of the final State DAG, replaying the
  committing transactions in branch order against a plain dict must
  reproduce exactly the values every transaction actually read.
* **Read-my-writes** under the Ancestor begin constraint (§5.1).
* **Snapshot isolation within a branch** (§5.1): no lost updates among
  the transactions of one branch under the SI end constraint.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AncestorConstraint,
    SerializabilityConstraint,
    SnapshotIsolationConstraint,
    TardisStore,
)
from repro.errors import TransactionAborted


class RecordedTxn:
    """What one committed transaction observed and wrote."""

    def __init__(self, commit_id, reads, writes):
        self.commit_id = commit_id
        self.reads = reads      # {key: value-it-saw}
        self.writes = writes    # {key: value-it-wrote}


def run_random_history(
    seed,
    n_sessions=4,
    n_txns=60,
    n_keys=6,
    end_constraint=None,
    interleave=True,
):
    """Drive interleaved random transactions; record what each observed."""
    rng = random.Random(seed)
    store = TardisStore("A")
    sessions = [store.session("s%d" % i) for i in range(n_sessions)]
    end = end_constraint or SerializabilityConstraint()
    recorded = []
    open_txns = []
    issued = 0
    while issued < n_txns or open_txns:
        start_new = issued < n_txns and (not open_txns or rng.random() < 0.6)
        if start_new:
            session = rng.choice(sessions)
            txn = store.begin(AncestorConstraint(), session=session)
            reads, writes = {}, {}
            for _ in range(rng.randint(1, 4)):
                key = "k%d" % rng.randrange(n_keys)
                if rng.random() < 0.5:
                    seen = txn.get(key, default=0)
                    if key not in writes:
                        # record snapshot reads only: a read after this
                        # txn's own write returns the buffer, which the
                        # branch replay accounts for separately.
                        reads[key] = seen
                else:
                    value = rng.randrange(1000)
                    txn.put(key, value)
                    writes[key] = value
            open_txns.append((txn, reads, writes))
            issued += 1
            if interleave:
                continue
        txn, reads, writes = open_txns.pop(
            rng.randrange(len(open_txns)) if interleave else 0
        )
        try:
            commit_id = txn.commit(end)
        except TransactionAborted:
            continue
        recorded.append(RecordedTxn(commit_id, reads, writes))
    return store, recorded


def branch_states(store, leaf):
    """The states on the path(s) from the root to ``leaf``, id order."""
    with store._lock:
        states = store.dag.states_between(leaf, store.dag.root)
    return sorted(states, key=lambda s: s.id)


def check_branch_serializable(store, recorded, require_all_ro=True):
    """Replay each branch; every recorded read must match the replay.

    Update transactions replay in branch (= id) order. Read-only
    transactions do not create states — their commit id IS their read
    state — so they are checked against the replay snapshot taken right
    after that state, on any branch containing it.
    """
    updates = {t.commit_id: t for t in recorded if t.writes}
    readonly = [t for t in recorded if not t.writes]
    verified_ro = set()
    with store._lock:
        leaves = store.dag.leaves()
    for leaf in leaves:
        replay = {}
        snapshots = {store.dag.root.id: {}}
        for state in branch_states(store, leaf):
            txn = updates.get(state.id)
            if txn is not None:
                for key, seen in txn.reads.items():
                    expected = replay.get(key, 0)
                    assert seen == expected, (
                        "branch %r: txn %r read %r=%r, replay says %r"
                        % (leaf.id, txn.commit_id, key, seen, expected)
                    )
                replay.update(txn.writes)
            snapshots[state.id] = dict(replay)
        for index, txn in enumerate(readonly):
            snap = snapshots.get(txn.commit_id)
            if snap is None:
                continue
            for key, seen in txn.reads.items():
                assert seen == snap.get(key, 0), (
                    "read-only txn at %r read %r=%r, snapshot says %r"
                    % (txn.commit_id, key, seen, snap.get(key, 0))
                )
            verified_ro.add(index)
    if require_all_ro:
        assert len(verified_ro) == len(readonly)


class TestBranchSerializability:
    @pytest.mark.parametrize("seed", range(12))
    def test_interleaved_histories_serializable_per_branch(self, seed):
        store, recorded = run_random_history(seed)
        assert recorded
        check_branch_serializable(store, recorded)

    @pytest.mark.parametrize("seed", range(6))
    def test_sequential_histories_single_branch(self, seed):
        store, recorded = run_random_history(seed, interleave=False)
        # Without interleaving there are no conflicts: one branch only.
        with store._lock:
            assert len(store.dag.leaves()) == 1
        check_branch_serializable(store, recorded)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_random_seeds(self, seed):
        store, recorded = run_random_history(
            seed, n_sessions=3, n_txns=30, n_keys=4
        )
        check_branch_serializable(store, recorded)

    @pytest.mark.parametrize("seed", range(6))
    def test_gc_transparency(self, seed):
        """Compression never changes what any branch can read (§6.3).

        Snapshot every key's visible value at every leaf, collect, and
        compare: promotion must redirect reads perfectly.
        """
        store, recorded = run_random_history(seed)
        keys = ["k%d" % i for i in range(6)]

        def leaf_views():
            views = {}
            with store._lock:
                for leaf in store.dag.leaves():
                    view = {}
                    for key in keys:
                        hit = store.versions.read_visible(key, leaf, store.dag)
                        view[key] = None if hit is None else hit[1]
                    views[leaf.id] = view
            return views

        before = leaf_views()
        for session in store.sessions():
            session.place_ceiling()
        stats = store.collect_garbage()
        after = leaf_views()
        assert before == after
        # And the compressed store keeps serving new transactions.
        txn = store.begin(session=store.session("s0"))
        txn.put("post-gc", 1)
        txn.commit()


class TestSnapshotIsolationBranch:
    @pytest.mark.parametrize("seed", range(8))
    def test_no_lost_updates_within_branch(self, seed):
        """Under SI, two txns on one branch never both 'win' a key blind."""
        store, recorded = run_random_history(
            seed, end_constraint=SnapshotIsolationConstraint()
        )
        by_commit = {t.commit_id: t for t in recorded}
        with store._lock:
            for leaf in store.dag.leaves():
                states = branch_states(store, leaf)
                # First-committer-wins: within one branch, consecutive
                # writers of a key must have observed each other: the
                # later one's snapshot (read state) is a descendant of
                # the earlier writer's commit state.
                last_writer = {}
                for state in states:
                    txn = by_commit.get(state.id)
                    if txn is None:
                        continue
                    for key in txn.writes:
                        if key in last_writer:
                            earlier = store.dag.get(last_writer[key])
                            if earlier is not None:
                                assert store.dag.descendant_check(earlier, state)
                        last_writer[key] = state.id


class TestSessionGuarantees:
    def test_read_my_writes(self):
        store = TardisStore("A")
        rng = random.Random(0)
        session = store.session("me")
        expected = {}
        for i in range(50):
            txn = store.begin(session=session)
            key = "k%d" % rng.randrange(5)
            # Ancestor guarantees this session's prior writes are visible.
            assert txn.get(key, default=None) == expected.get(key), i
            value = "v%d" % i
            txn.put(key, value)
            txn.commit()
            expected[key] = value

    def test_monotonic_reads_within_session(self):
        """Once a session observes a value, it never reads older state."""
        store = TardisStore("A")
        writer = store.session("writer")
        reader = store.session("reader")
        observed = []
        for i in range(20):
            t = store.begin(session=writer)
            t.put("x", i)
            t.commit()
            r = store.begin(session=reader, read_only=True)
            observed.append(r.get("x"))
            r.commit()
        assert observed == sorted(observed)

    def test_branch_isolation_between_sessions(self):
        """Two sessions on divergent branches never see each other."""
        store = TardisStore("A")
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        ta, tb = store.begin(session=a), store.begin(session=b)
        ta.put("x", ta.get("x") + 1)
        tb.put("x", tb.get("x") + 1)
        ta.commit()
        tb.commit()
        for i in range(10):
            ta = store.begin(session=a)
            tb = store.begin(session=b)
            va, vb = ta.get("x"), tb.get("x")
            ta.put("x", va + 1)
            tb.put("x", vb + 1)
            ta.commit()
            tb.commit()
        # Each branch counted its own increments only.
        assert store.begin(session=a, read_only=True).get("x") == 11
        assert store.begin(session=b, read_only=True).get("x") == 11
        with store._lock:
            assert len(store.dag.leaves()) == 2
