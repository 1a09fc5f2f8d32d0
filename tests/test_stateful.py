"""Hypothesis stateful testing of the whole store.

A rule-based machine drives an arbitrary interleaving of the public
API — begins, reads, writes, commits, aborts, merges, ceilings, GC,
checkpoints — and checks the structural invariants of the State DAG
plus a visibility oracle after every step. This is the widest net in
the suite: any sequence of operations hypothesis can find must keep the
store consistent.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import TardisStore
from repro.errors import (
    KeyNotFound,
    MultipleValuesError,
    TransactionAborted,
    TransactionClosed,
)

KEYS = ["alpha", "beta", "gamma", "delta"]
SESSIONS = ["s0", "s1", "s2"]


class StoreMachine(RuleBasedStateMachine):
    open_txns = Bundle("open_txns")

    @initialize()
    def setup(self):
        self.store = TardisStore("A")
        self.value_counter = 0
        self.merges_open = 0

    # -- rules ---------------------------------------------------------------

    @rule(target=open_txns, session=st.sampled_from(SESSIONS))
    def begin(self, session):
        return self.store.begin(session=self.store.session(session))

    @rule(txn=open_txns, key=st.sampled_from(KEYS))
    def read(self, txn, key):
        if txn.status != "active":
            return
        value = txn.get(key, default=None)
        if value is not None:
            # every visible value was produced by some put
            assert isinstance(value, int)

    @rule(txn=open_txns, key=st.sampled_from(KEYS))
    def write(self, txn, key):
        if txn.status != "active":
            return
        self.value_counter += 1
        txn.put(key, self.value_counter)

    @rule(txn=open_txns, key=st.sampled_from(KEYS))
    def delete(self, txn, key):
        if txn.status != "active":
            return
        txn.delete(key)

    @rule(txn=open_txns)
    def commit(self, txn):
        if txn.status != "active":
            return
        try:
            commit_id = txn.commit()
        except TransactionAborted:
            return
        assert txn.status == "committed"
        assert commit_id in self.store.dag

    @rule(txn=open_txns)
    def abort(self, txn):
        if txn.status != "active":
            return
        txn.abort()
        assert txn.status == "aborted"

    @rule(session=st.sampled_from(SESSIONS))
    def merge_all(self, session):
        store = self.store
        with store._lock:
            if len(store.dag.leaves()) < 2:
                return
        merge = store.begin_merge(session=store.session(session))
        for key in merge.find_conflict_writes():
            try:
                candidates = merge.get_all(key)
            except MultipleValuesError:  # pragma: no cover
                candidates = []
            if candidates:
                merge.put(key, max(candidates))
        merge.commit()

    @rule(session=st.sampled_from(SESSIONS))
    def place_ceiling(self, session):
        self.store.session(session).place_ceiling()

    @rule()
    def collect(self):
        self.store.collect_garbage()

    # -- invariants -------------------------------------------------------------

    @invariant()
    def dag_invariants_hold(self):
        if hasattr(self, "store"):
            with self.store._lock:
                self.store.dag.check_invariants()

    @invariant()
    def version_lists_sorted_and_resolvable(self):
        if not hasattr(self, "store"):
            return
        for key in KEYS:
            with self.store._lock:
                versions = self.store.versions.versions_of(key)
                assert versions == sorted(versions, reverse=True), key
                for sid in versions:
                    self.store.dag.resolve(sid)  # must not raise

    @invariant()
    def leaves_always_readable(self):
        """Every leaf can serve a read-only transaction."""
        if not hasattr(self, "store"):
            return
        with self.store._lock:
            for leaf in self.store.dag.leaves():
                for key in KEYS:
                    self.store.versions.read_visible(key, leaf, self.store.dag)


TestStoreMachine = pytest.mark.filterwarnings("ignore")(
    StoreMachine.TestCase
)
TestStoreMachine.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
