"""TARDiS core: the paper's primary contribution.

The branch-on-conflict transactional key-value store — State DAG, fork
paths, begin/end constraints, single-mode and merge-mode transactions,
garbage collection, and recovery.
"""

from typing import TYPE_CHECKING

from repro._lazy import exports

if TYPE_CHECKING:
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

# Each name resolves on first use (``repro._lazy``): a shard worker
# imports ``ids``, ``ancestry``, ``state_dag`` and ``versions`` and none of
# the store above them.
__getattr__ = exports(
    __name__,
    {
        "repro.core.ids": ("CommitRecord", "StateId", "ROOT_ID", "IdAllocator"),
        "repro.core.ancestry": ("AncestryIndex", "ForkPoint"),
        "repro.core.state_dag": ("State", "StateDAG"),
        "repro.core.commit": ("CommitPipeline",),
        "repro.core.constraints": (
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
        ),
        "repro.core.store": ("TardisStore", "ClientSession"),
        "repro.core.transaction": ("Transaction", "TOMBSTONE"),
        "repro.core.merge": ("MergeTransaction",),
        "repro.core.gc": ("GarbageCollector",),
        "repro.core.recovery": ("recover_store", "checkpoint_store"),
    },
)
