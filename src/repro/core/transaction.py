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
        # so a pickle round trip — e.g. through a shard-worker pipe —
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
    """State and operations shared by single-mode and merge transactions."""

    def __init__(
        self,
        store: "TardisStore",
        session: "ClientSession",
        begin_constraint: "Constraint",
        read_only: bool = False,
    ) -> None:
        self._store = store
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
    def dag(self) -> StateDAG:
        return self._store.dag

    @property
    def write_keys(self) -> FrozenSet[Any]:
        return frozenset(self.writes)

    def _check_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionClosed("transaction is %s" % self.status)

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
        self._store._finish(self, ABORTED)
        t = self._store.active_tracer()
        if t.enabled:
            t.event("txn.abort", reason="user", site=self._store.site)

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

    def __init__(
        self,
        store: "TardisStore",
        session: "ClientSession",
        read_state: State,
        begin_constraint: "Constraint",
        read_only: bool = False,
    ) -> None:
        super().__init__(store, session, begin_constraint, read_only)
        self.read_state = read_state

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        """Read ``key`` from this branch (own writes first, then snapshot)."""
        self._check_active()
        self.read_keys.add(key)
        if key in self.writes:
            value = self.writes[key]
        else:
            value = self._store._read(key, self.read_state, self.trace)
        if value is TOMBSTONE or value is _NOT_FOUND:
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
        values: List[Any] = [_NOT_FOUND] * len(keys)
        missing: List[Tuple[int, Any]] = []
        for position, key in enumerate(keys):
            self.read_keys.add(key)
            if key in self.writes:
                values[position] = self.writes[key]
            else:
                missing.append((position, key))
        if missing:
            fetched = self._store._read_many(
                [key for _position, key in missing], self.read_state, self.trace
            )
            for (position, _key), value in zip(missing, fetched):
                values[position] = value
        for position, value in enumerate(values):
            if value is TOMBSTONE or value is _NOT_FOUND:
                if default is _RAISE:
                    raise KeyNotFound(keys[position])
                values[position] = default
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


class _NotFoundType:
    def __repr__(self) -> str:  # pragma: no cover
        return "<not-found>"


_NOT_FOUND = _NotFoundType()
