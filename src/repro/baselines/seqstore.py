"""A sequential, strictly serializable, lock-based store (the "BDB" baseline).

The paper compares TARDiS against BerkeleyDB Java Edition configured as a
plain ACID store: single-version records, strict two-phase locking,
readers block writers and vice versa. This module reproduces that
behaviour over a dict of records; the simulation charges both systems the
cost model's same ``btree_access`` constant per record touch, so they
differ only in concurrency control — exactly the comparison the paper
makes.

The interface is a non-blocking state machine for the discrete-event
simulation: ``read``/``write`` return ``("ok", value)`` or
``("wait", request)``; when a conflicting transaction finishes, its
``commit``/``abort`` returns the lock requests that became granted so
the simulator can resume the blocked clients (which then simply retry
the operation — the lock is now held).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.baselines.locks import LockManager, LockMode, LockRequest
from repro.errors import KeyNotFound, TransactionClosed
from repro.obs.metrics import MetricsRegistry

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class LockingTransaction:
    """One strict-2PL transaction."""

    _ids = itertools.count(1)

    def __init__(self, store: "TwoPhaseLockingStore"):
        self._store = store
        self.txn_id = next(LockingTransaction._ids)
        self.status = ACTIVE
        self.reads: Set[Any] = set()
        self.writes: Dict[Any, Any] = {}
        #: set while a lock request is queued (simulation bookkeeping).
        self.blocked_on: Optional[LockRequest] = None

    # Convenience blocking-style API for single-threaded use: in the
    # absence of concurrent holders every lock grants immediately.

    def get(self, key: Any, default: Any = KeyNotFound) -> Any:
        status, value = self._store.read(self, key)
        if status != "ok":
            raise RuntimeError("lock wait in single-threaded use")
        if value is _MISSING:
            if default is KeyNotFound:
                raise KeyNotFound(key)
            return default
        return value

    def put(self, key: Any, value: Any) -> None:
        status, _ = self._store.write(self, key, value)
        if status != "ok":
            raise RuntimeError("lock wait in single-threaded use")

    def commit(self) -> None:
        self._store.commit(self)

    def abort(self) -> None:
        self._store.abort(self)


class TwoPhaseLockingStore:
    """Single-version KV store with strict two-phase locking."""

    # Deliberately lock-free: the baseline is driven from the
    # single-threaded discrete-event loop, so its state needs no
    # threading.Lock. The annotation documents that assumption, and
    # nothing checks it: running it from real threads would race.
    _GUARDED_BY = {
        "_records": "external:des-loop",
        "commits": "external:des-loop",
        "aborts": "external:des-loop",
    }

    def __init__(self) -> None:
        self._records: Dict[Any, Any] = {}
        self.locks = LockManager()
        self.commits = 0
        self.aborts = 0
        #: this store's metrics, off until a reader turns them on.
        self.registry = MetricsRegistry(enabled=False)

    def __len__(self) -> int:
        return len(self._records)

    def begin(self) -> LockingTransaction:
        return LockingTransaction(self)

    def _check(self, txn: LockingTransaction) -> None:
        if txn.status != ACTIVE:
            raise TransactionClosed("transaction is %s" % txn.status)

    def read(self, txn: LockingTransaction, key: Any) -> Tuple[str, Any]:
        """Acquire a shared lock and read.

        Returns ``("ok", value)`` (``value`` is the module-level missing
        sentinel when the key is absent) or ``("wait", request)`` when
        the lock is queued. Raises ``DeadlockError`` when waiting would
        deadlock — the caller must abort.
        """
        self._check(txn)
        request = self.locks.acquire(txn.txn_id, key, LockMode.SHARED)
        if not request.granted:
            txn.blocked_on = request
            return ("wait", request)
        txn.blocked_on = None
        txn.reads.add(key)
        if key in txn.writes:
            return ("ok", txn.writes[key])
        return ("ok", self._records.get(key, _MISSING))

    def write(self, txn: LockingTransaction, key: Any, value: Any) -> Tuple[str, Any]:
        """Acquire an exclusive lock and buffer the write."""
        self._check(txn)
        request = self.locks.acquire(txn.txn_id, key, LockMode.EXCLUSIVE)
        if not request.granted:
            txn.blocked_on = request
            return ("wait", request)
        txn.blocked_on = None
        txn.writes[key] = value
        return ("ok", None)

    def commit(self, txn: LockingTransaction) -> List[LockRequest]:
        """Apply buffered writes, release locks; returns woken requests."""
        self._check(txn)
        self._records.update(txn.writes)
        txn.status = COMMITTED
        self.commits += 1
        m = self.registry
        if m.enabled:
            m.inc("baseline_2pl_commit_total")
        return self.locks.release_all(txn.txn_id)

    def abort(self, txn: LockingTransaction) -> List[LockRequest]:
        self._check(txn)
        txn.status = ABORTED
        self.aborts += 1
        m = self.registry
        if m.enabled:
            m.inc("baseline_2pl_abort_total")
            m.set_gauge("baseline_2pl_deadlocks", self.locks.deadlocks)
            m.set_gauge("baseline_2pl_lock_waits", self.locks.waits)
        return self.locks.release_all(txn.txn_id)


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
