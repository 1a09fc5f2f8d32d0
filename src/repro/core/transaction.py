"""Single-mode transactions (§5.1, §6.1).

In single mode the programmer reads from and writes to one branch and
programming proceeds exactly as against sequential storage: ``begin``
selects a read state satisfying the begin constraint, ``get``/``put``
operate against that snapshot plus the transaction's own writes, and
``commit`` ripples down the branch to the most recent state satisfying
the end constraint — forking the state instead of aborting when another
transaction got there first (branch-on-conflict).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.core.ids import StateId
from repro.core.state_dag import State, StateDAG
from repro.errors import (
    KeyNotFound,
    ReadOnlyViolation,
    TransactionClosed,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.constraints import Constraint
    from repro.core.store import ClientSession, TardisStore


class _Tombstone:
    """Marker stored by ``delete``: the key has no value on this branch."""

    def __repr__(self) -> str:
        return "<tombstone>"

    def __reduce__(self) -> Tuple[Any, ...]:
        # Tombstones are compared by identity (``value is TOMBSTONE``),
        # so a pickle round trip — e.g. through a shard link —
        # must yield the singleton, not a fresh instance.
        return (_load_tombstone, ())


TOMBSTONE = _Tombstone()


def _load_tombstone() -> "_Tombstone":
    return TOMBSTONE

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"

_RAISE = object()


class OpTrace:
    """Work counters for one transaction, consumed by the cost model.

    The discrete-event simulation charges time proportional to the real
    work the data structures performed: states visited by the begin BFS,
    versions scanned by reads, ripple steps and conflict checks at
    commit. Nothing here affects semantics.
    """

    __slots__ = (
        "begin_visits",
        "begin_cached",
        "versions_scanned",
        "vis_hits",
        "ripple_steps",
        "children_checked",
        "created_fork",
    )

    def __init__(self) -> None:
        self.begin_visits = 0
        #: always False: begin has no cache. Kept because
        #: benchmarks/e2e/tracewrap.py reads it.
        self.begin_cached = False
        self.versions_scanned = 0
        #: reads answered by the visibility cache (scan nothing).
        self.vis_hits = 0
        self.ripple_steps = 0
        self.children_checked = 0
        self.created_fork = False


class BaseTransaction:
    """State and operations shared by single-mode and merge transactions.

    A fresh transaction is also what its begin constraint is evaluated
    against: it has its ``session`` and ``dag`` and no reads or writes
    yet, and the store sets its read state(s) once the search is done.
    """

    __slots__ = (
        "_store",
        "dag",
        "session",
        "begin_constraint",
        "read_only",
        "status",
        "read_keys",
        "writes",
        "trace",
        "commit_id",
    )

    def __init__(
        self,
        store: "TardisStore",
        session: "ClientSession",
        begin_constraint: "Constraint",
        read_only: bool = False,
    ) -> None:
        self._store = store
        self.dag: StateDAG = store.dag
        self.session = session
        self.begin_constraint = begin_constraint
        self.read_only = read_only
        self.status = ACTIVE
        self.read_keys: Set[Any] = set()
        self.writes: Dict[Any, Any] = {}
        self.trace = OpTrace()
        #: id of the state this transaction committed, once committed.
        self.commit_id: Optional[StateId] = None

    @property
    def write_keys(self) -> FrozenSet[Any]:
        return frozenset(self.writes)

    def _check_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionClosed("transaction is %s" % self.status)

    def _unpin(self) -> None:
        """Release the pins begin placed on the read state(s); the store
        calls it under its lock when the transaction finishes."""
        raise NotImplementedError

    # -- writes ------------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        """Buffer a write; it becomes a record version at commit."""
        self._check_active()
        if self.read_only:
            raise ReadOnlyViolation("read-only transaction cannot write %r" % (key,))
        self.writes[key] = value

    def delete(self, key: Any) -> None:
        """Delete ``key`` on this branch (a tombstone version)."""
        self.put(key, TOMBSTONE)

    # -- lifecycle -----------------------------------------------------------

    def abort(self) -> None:
        """Abandon the transaction; buffered writes are discarded."""
        self._check_active()
        store = self._store
        with store._lock:
            store._finish(self, ABORTED)
        if store.recorder.enabled:
            store.recorder.event("txn", "abort", None, ref="user")

    def commit(self, end_constraint: Optional["Constraint"] = None) -> StateId:
        raise NotImplementedError

    def __enter__(self) -> "BaseTransaction":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[Any],
    ) -> None:
        if self.status == ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()


class Transaction(BaseTransaction):
    """A single-mode transaction operating on one branch."""

    __slots__ = ("read_state",)

    def __init__(
        self,
        store: "TardisStore",
        session: "ClientSession",
        begin_constraint: "Constraint",
        read_only: bool = False,
    ) -> None:
        super().__init__(store, session, begin_constraint, read_only)
        #: set by ``TardisStore.begin`` once the BFS has chosen it.
        self.read_state: State = None  # type: ignore[assignment]

    def _unpin(self) -> None:
        state = self.read_state
        if state.pins > 0:
            state.pins -= 1

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        """Read ``key`` from this branch (own writes first, then snapshot)."""
        self._check_active()
        self.read_keys.add(key)
        if key in self.writes:
            value = self.writes[key]
        else:
            hit = self._store._read(key, self.read_state, self.trace)
            value = TOMBSTONE if hit is None else hit[1]
        if value is TOMBSTONE:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return value

    def get_many(self, keys: Iterable[Any], default: Any = _RAISE) -> List[Any]:
        """Batched read: like ``[get(k) for k in keys]`` in one store call.

        Own buffered writes are consulted per key as in :meth:`get`; the
        remaining keys go to the storage layer as one batch, which the
        sharded store scatters across its shards (with shard workers,
        across the worker processes in parallel). Results align with
        ``keys``; ``default`` applies per missing key.
        """
        self._check_active()
        keys = list(keys)
        self.read_keys.update(keys)
        writes = self.writes
        unread = [key for key in keys if key not in writes] if writes else keys
        hits = iter(
            self._store._read_many(unread, self.read_state, self.trace) if unread else ()
        )
        values = []
        for key in keys:
            if key in writes:
                value = writes[key]
            else:
                hit = next(hits)
                value = TOMBSTONE if hit is None else hit[1]
            if value is TOMBSTONE:
                if default is _RAISE:
                    raise KeyNotFound(key)
                value = default
            values.append(value)
        return values

    def commit(self, end_constraint: Optional["Constraint"] = None) -> StateId:
        """Commit at the most recent state satisfying the end constraint.

        Returns the id of the commit state (for a read-only transaction,
        the id of the read state: no new state is added to the DAG,
        §6.1.4). Raises :class:`~repro.errors.TransactionAborted` when no
        acceptable commit state exists.
        """
        self._check_active()
        return self._store._commit_single(self, end_constraint)

    def __repr__(self) -> str:
        return "<Transaction read_state=%r status=%s>" % (
            self.read_state.id,
            self.status,
        )
