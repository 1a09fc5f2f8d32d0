"""TARDiS: a branch-and-merge transactional key-value store.

A from-scratch Python reproduction of *TARDiS: A Branch-and-Merge
Approach To Weak Consistency* (Crooks et al., SIGMOD 2016): a
multi-master, asynchronously replicated, transactional key-value store
whose fundamental abstraction is the branch. Conflicting transactions
fork the datastore state instead of blocking or aborting
(branch-on-conflict); each branch appears sequential to the transactions
extending it (inter-branch isolation); and applications merge branches
atomically, when and how they choose (application-driven cross-object
merge).

Quick start::

    from repro import TardisStore

    store = TardisStore("siteA")
    session = store.session("alice")
    with store.begin(session=session) as t:
        t.put("greeting", "hello")
"""

from repro.core import (
    AncestorConstraint,
    AncestryIndex,
    And,
    AnyConstraint,
    ClientSession,
    CommitPipeline,
    ForkPoint,
    GarbageCollector,
    IdAllocator,
    KBranchingConstraint,
    MergeTransaction,
    NoBranchingConstraint,
    Or,
    ParentConstraint,
    ReadCommittedConstraint,
    ROOT_ID,
    SerializabilityConstraint,
    SnapshotIsolationConstraint,
    State,
    StateDAG,
    StateId,
    StateIdConstraint,
    TardisStore,
    TOMBSTONE,
    Transaction,
    checkpoint_store,
    recover_store,
)
from repro import errors

__version__ = "1.0.0"

__all__ = [
    "AncestorConstraint",
    "AncestryIndex",
    "And",
    "AnyConstraint",
    "ClientSession",
    "CommitPipeline",
    "ForkPoint",
    "GarbageCollector",
    "IdAllocator",
    "KBranchingConstraint",
    "MergeTransaction",
    "NoBranchingConstraint",
    "Or",
    "ParentConstraint",
    "ReadCommittedConstraint",
    "ROOT_ID",
    "SerializabilityConstraint",
    "SnapshotIsolationConstraint",
    "State",
    "StateDAG",
    "StateId",
    "StateIdConstraint",
    "TardisStore",
    "TOMBSTONE",
    "Transaction",
    "checkpoint_store",
    "recover_store",
    "errors",
    "__version__",
]
