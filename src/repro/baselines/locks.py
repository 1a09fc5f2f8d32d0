"""A per-key shared/exclusive lock manager with deadlock detection.

The lock manager is a pure state machine — no threads, no blocking — so
the discrete-event simulation can drive it deterministically: ``acquire``
either grants immediately or queues the request, and ``release_all``
returns the requests that become granted so the simulator can wake those
clients.

Deadlocks are detected by cycle search in the waits-for graph, as
BerkeleyDB does; the victim is the requester that closed the cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.errors import DeadlockError


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class LockRequest:
    txn_id: Any
    key: Any
    mode: LockMode
    granted: bool = False


@dataclass
class _KeyLock:
    holders: Dict[Any, LockMode] = field(default_factory=dict)
    queue: List[LockRequest] = field(default_factory=list)

    def compatible(self, txn_id: Any, mode: LockMode) -> bool:
        others = {t: m for t, m in self.holders.items() if t != txn_id}
        if not others:
            return True
        if mode == LockMode.EXCLUSIVE:
            return False
        return all(m == LockMode.SHARED for m in others.values())


class LockManager:
    """Strict two-phase locking: locks are held until release_all."""

    def __init__(self) -> None:
        self._locks: Dict[Any, _KeyLock] = {}
        #: lifetime counters for the cost model / goodput accounting.
        self.acquires = 0
        self.waits = 0
        self.deadlocks = 0

    # -- queries -------------------------------------------------------------

    def holders(self, key: Any) -> Dict[Any, LockMode]:
        lock = self._locks.get(key)
        return dict(lock.holders) if lock else {}

    def waiting(self, key: Any) -> List[LockRequest]:
        lock = self._locks.get(key)
        return list(lock.queue) if lock else []

    def held_keys(self, txn_id: Any) -> List[Any]:
        return [k for k, lock in self._locks.items() if txn_id in lock.holders]

    # -- acquisition ------------------------------------------------------------

    def acquire(self, txn_id: Any, key: Any, mode: LockMode) -> LockRequest:
        """Request a lock; returns a request with ``granted`` set.

        An ungranted request is queued; the caller must suspend the
        transaction until a ``release_all`` reports it granted. Raises
        :class:`~repro.errors.DeadlockError` when queuing the request
        would close a waits-for cycle (the requester is the victim and
        must abort).
        """
        self.acquires += 1
        lock = self._locks.setdefault(key, _KeyLock())
        held = lock.holders.get(txn_id)
        if held == LockMode.EXCLUSIVE or held == mode:
            return LockRequest(txn_id, key, mode, granted=True)
        # Lock upgrade (S -> X) or fresh acquisition.
        no_queue_conflict = not any(
            r.mode == LockMode.EXCLUSIVE or mode == LockMode.EXCLUSIVE
            for r in lock.queue
            if r.txn_id != txn_id
        )
        if lock.compatible(txn_id, mode) and (no_queue_conflict or held is not None):
            lock.holders[txn_id] = (
                LockMode.EXCLUSIVE if mode == LockMode.EXCLUSIVE else
                lock.holders.get(txn_id, mode)
            )
            return LockRequest(txn_id, key, mode, granted=True)
        request = LockRequest(txn_id, key, mode)
        lock.queue.append(request)
        self.waits += 1
        cycle = self._find_cycle(txn_id)
        if cycle:
            lock.queue.remove(request)
            self.deadlocks += 1
            raise DeadlockError(txn_id, cycle)
        return request

    def _blockers_of(self, txn_id: Any) -> Set[Any]:
        blockers: Set[Any] = set()
        for lock in self._locks.values():
            for request in lock.queue:
                if request.txn_id != txn_id:
                    continue
                for holder, _mode in lock.holders.items():
                    if holder != txn_id:
                        blockers.add(holder)
                # Queued X requests ahead of us also block us.
                for ahead in lock.queue:
                    if ahead is request:
                        break
                    if ahead.txn_id != txn_id:
                        blockers.add(ahead.txn_id)
        return blockers

    def _find_cycle(self, start: Any) -> Optional[List[Any]]:
        path: List[Any] = []
        visited: Set[Any] = set()

        def visit(txn_id: Any) -> Optional[List[Any]]:
            if txn_id == start and path:
                return list(path)
            if txn_id in visited:
                return None
            visited.add(txn_id)
            path.append(txn_id)
            for blocker in self._blockers_of(txn_id):
                cycle = visit(blocker)
                if cycle is not None:
                    return cycle
            path.pop()
            return None

        return visit(start)

    # -- release -------------------------------------------------------------------

    def release_all(self, txn_id: Any) -> List[LockRequest]:
        """Release every lock and queued request of ``txn_id``.

        Returns the queued requests that became granted, in grant order,
        so the simulator can resume their owners.
        """
        granted: List[LockRequest] = []
        for key in list(self._locks):
            lock = self._locks[key]
            lock.holders.pop(txn_id, None)
            lock.queue = [r for r in lock.queue if r.txn_id != txn_id]
            granted.extend(self._promote(lock))
            if not lock.holders and not lock.queue:
                del self._locks[key]
        return granted

    def _promote(self, lock: _KeyLock) -> List[LockRequest]:
        """FIFO grant: wake the head of the queue (plus more readers)."""
        granted: List[LockRequest] = []
        while lock.queue:
            head = lock.queue[0]
            if not lock.compatible(head.txn_id, head.mode):
                break
            lock.queue.pop(0)
            current = lock.holders.get(head.txn_id)
            if head.mode == LockMode.EXCLUSIVE or current is None:
                lock.holders[head.txn_id] = head.mode
            head.granted = True
            granted.append(head)
            if head.mode == LockMode.EXCLUSIVE:
                break
        return granted
