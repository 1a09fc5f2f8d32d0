"""Merge transactions (§5.1, §6.2).

A merge transaction selects *multiple* read states — one per branch being
reconciled — and commits a single merged state whose parents are all of
them. The application is exposed to the conflicting writes that forked
the datastore and reconciles them atomically, with three helpers:

* ``find_fork_points()`` — where the branches diverged;
* ``find_conflict_writes()`` — which keys hold conflicting values;
* ``get_for_id(key, state_id)`` — the value of a key at any state
  (typically the fork point, to compute three-way merges).

Plain ``get`` works for keys that are single-valued across the merged
branches and raises :class:`~repro.errors.MultipleValuesError` when a key
is genuinely conflicted, steering the application to the explicit API.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from repro.core.ids import StateId
from repro.core.state_dag import State
from repro.core.transaction import BaseTransaction, TOMBSTONE, _RAISE
from repro.errors import KeyNotFound, MultipleValuesError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.constraints import Constraint
    from repro.core.store import ClientSession, TardisStore


class MergeTransaction(BaseTransaction):
    """A transaction reading from several branches and writing one."""

    __slots__ = ("read_states",)

    def __init__(
        self,
        store: "TardisStore",
        session: "ClientSession",
        begin_constraint: "Constraint",
    ) -> None:
        super().__init__(store, session, begin_constraint)
        #: the branch heads, set by ``TardisStore.begin_merge``.
        self.read_states: List[State] = []

    def _unpin(self) -> None:
        for state in self.read_states:
            if state.pins > 0:
                state.pins -= 1

    @property
    def parents(self) -> List[StateId]:
        """Ids of the branches being merged (the paper's ``t.parents``)."""
        return [s.id for s in self.read_states]

    # -- reads -------------------------------------------------------------

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        """Read ``key`` from the merged view.

        Returns the single visible value when the branches agree (or only
        one wrote the key); raises ``MultipleValuesError`` when the key
        has conflicting maximal versions.
        """
        self._check_active()
        self.read_keys.add(key)
        if key in self.writes:
            value = self.writes[key]
        else:
            candidates = self._store._read_candidates(
                key, self.read_states, self.trace
            )
            if len(candidates) > 1:
                raise MultipleValuesError(key, candidates)
            if not candidates:
                value = TOMBSTONE
            else:
                value = candidates[0][1]
        if value is TOMBSTONE:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return value

    def get_all(self, key: Any) -> List[Any]:
        """All maximal visible values for ``key``, newest id first."""
        self._check_active()
        self.read_keys.add(key)
        candidates = self._store._read_candidates(key, self.read_states, self.trace)
        return [value for _sid, value in candidates if value is not TOMBSTONE]

    def get_for_id(self, key: Any, state_id: StateId, default: Any = _RAISE) -> Any:
        """The value of ``key`` as visible at ``state_id`` (Table 2).

        Typically used with a fork point id to obtain the base value of a
        three-way merge.
        """
        self._check_active()
        self.read_keys.add(key)
        with self._store._lock:
            state = self.dag.resolve(state_id)
            hit = self._store._read(key, state, self.trace)
        if hit is None or hit[1] is TOMBSTONE:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return hit[1]

    # -- branch structure ----------------------------------------------------

    def find_fork_points(self, state_ids: Optional[List[StateId]] = None) -> List[StateId]:
        """Fork points of the given states (default: this merge's parents).

        Nearest fork first; the paper's examples use ``.first`` — index 0
        here.
        """
        self._check_active()
        with self._store._lock:
            if state_ids is None:
                states = self.read_states
            else:
                states = [self.dag.resolve(sid) for sid in state_ids]
            return [s.id for s in self.dag.fork_points_of(states)]

    def find_conflict_writes(self, state_ids: Optional[List[StateId]] = None) -> List[Any]:
        """Keys with conflicting values across the selected branches.

        A key conflicts when it was written on at least two distinct
        branches since their (nearest) fork point (Table 2, §6.2).
        """
        self._check_active()
        with self._store._lock:
            if state_ids is None:
                states = self.read_states
            else:
                states = [self.dag.resolve(sid) for sid in state_ids]
            conflicts = self._store._conflict_writes(states)
        self._store.registry.observe("tardis_merge_conflict_keys", len(conflicts))
        return conflicts

    # -- commit ---------------------------------------------------------------

    def commit(self, end_constraint: Optional["Constraint"] = None) -> StateId:
        """Atomically commit the merged state as a child of all parents."""
        self._check_active()
        return self._store._commit_merge(self, end_constraint)

    def __repr__(self) -> str:
        return "<MergeTransaction parents=%r status=%s>" % (
            self.parents,
            self.status,
        )
