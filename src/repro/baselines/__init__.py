"""Comparison systems from the paper's evaluation (§7.1.1).

* :class:`TwoPhaseLockingStore` — a single-version key-value store with
  strict two-phase locking; the stand-in for BerkeleyDB ("BDB" in the
  paper's figures).
* :class:`OCCStore` — the paper's custom optimistic concurrency control
  comparator, a modified Kung-Robinson algorithm in which read-write
  transactions are not validated against read-only ones.

Both expose a *non-blocking state-machine* interface so that the
discrete-event simulation can drive many logical clients over them:
operations return immediately with either a result or a "must wait"
indication, and lock releases report which waiters become runnable.
Both keep their records in a plain dict: what the simulation charges for
a record access is the cost model's ``btree_access`` constant
(:mod:`repro.sim.costs`), never work done by a real index.
"""

from repro.baselines.locks import LockManager, LockMode, LockRequest
from repro.baselines.seqstore import TwoPhaseLockingStore, LockingTransaction
from repro.baselines.occ import OCCStore, OCCTransaction

__all__ = [
    "LockManager",
    "LockMode",
    "LockRequest",
    "TwoPhaseLockingStore",
    "LockingTransaction",
    "OCCStore",
    "OCCTransaction",
]
