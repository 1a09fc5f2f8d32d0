"""TARDiS core: the paper's primary contribution.

The branch-on-conflict transactional key-value store — State DAG, fork
paths, begin/end constraints, single-mode and merge-mode transactions,
garbage collection, and recovery.
"""

from repro.core.ids import CommitRecord, StateId, ROOT_ID, IdAllocator
from repro.core.ancestry import AncestryIndex, ForkPoint
from repro.core.state_dag import State, StateDAG
from repro.core.commit import CommitPipeline
from repro.core.constraints import (
    AnyConstraint,
    SerializabilityConstraint,
    SnapshotIsolationConstraint,
    ReadCommittedConstraint,
    NoBranchingConstraint,
    KBranchingConstraint,
    ParentConstraint,
    AncestorConstraint,
    StateIdConstraint,
    And,
    Or,
)
from repro.core.store import TardisStore, ClientSession
from repro.core.transaction import Transaction, TOMBSTONE
from repro.core.merge import MergeTransaction
from repro.core.gc import GarbageCollector
from repro.core.recovery import recover_store, checkpoint_store

__all__ = [
    "CommitRecord",
    "StateId",
    "ROOT_ID",
    "IdAllocator",
    "AncestryIndex",
    "ForkPoint",
    "State",
    "StateDAG",
    "CommitPipeline",
    "AnyConstraint",
    "SerializabilityConstraint",
    "SnapshotIsolationConstraint",
    "ReadCommittedConstraint",
    "NoBranchingConstraint",
    "KBranchingConstraint",
    "ParentConstraint",
    "AncestorConstraint",
    "StateIdConstraint",
    "And",
    "Or",
    "TardisStore",
    "ClientSession",
    "Transaction",
    "MergeTransaction",
    "TOMBSTONE",
    "GarbageCollector",
    "recover_store",
    "checkpoint_store",
]
