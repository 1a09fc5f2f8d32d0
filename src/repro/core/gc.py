"""Garbage collection: ceilings, DAG compression, record promotion (§6.3).

TARDiS stores, by default, *all* stale and parallel versions and states.
To keep space overhead comparable to history-free stores it runs an
aggressive three-pronged collection (Figure 8):

1. **Ceiling marking** (bottom-up): clients place ceilings — promises to
   never again use a state preceding the ceiling as a read state. States
   that every ceiling-placing client has moved past are *marked* and can
   no longer be selected as read states.
2. **Safe-to-gc** (top-down): a marked state is safe when it is not
   pinned as a read state by an executing transaction and all its
   ancestors are safe — guaranteeing committing transactions never
   ripple down into deleted states and that deletion proceeds
   oldest-first.
3. **Collection**: safe states that are not fork points (and not
   leaves) are *promoted* — their single distinct child takes over their
   identity via the promotion table — and spliced out of the DAG.

Record promotion then rewrites record versions of deleted states to
their promoted identity and discards all but the newest of versions that
collapsed onto the same state, so that only current and fork-point
versions remain. The promotion table then keeps only the ids a session
still holds, so it stays as small as the set of clients.

The collector's one input is the store's table of registered sessions:
a ceiling is a field of its :class:`~repro.core.store.ClientSession`
(``None`` until placed), next to the session's anchor, and closing the
session releases both. An unregistered session constrains nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set

from repro.core.ids import StateId
from repro.errors import GarbageCollectedError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.state_dag import State
    from repro.core.store import TardisStore


@dataclass
class GCStats:
    """Result of one collection cycle."""

    marked: int = 0
    safe: int = 0
    states_removed: int = 0
    records_promoted: int = 0
    records_dropped: int = 0
    #: promotion-table entries the cycle dropped: every collected id
    #: that no session's anchor or ceiling holds (0 on a store that
    #: ships its commits, unless the cycle flushes)
    promotions_flushed: int = 0
    fork_entries_scrubbed: int = 0
    #: live counts after the cycle
    live_states: int = 0
    live_records: int = 0


class GarbageCollector:
    """The garbage collector unit of one TARDiS site (Figure 2)."""

    def __init__(self, store: "TardisStore") -> None:
        self._store = store
        #: lifetime totals, whoever ran the cycles, and the pause clock:
        #: how long the last and the longest cycle held the store lock.
        self.cycles = 0
        self.states_removed = 0
        self.pause_ms_last = 0.0
        self.pause_ms_max = 0.0
        #: hook used by replicated pessimistic GC: called with the set of
        #: candidate state ids; must return the subset we may collect.
        self.consent_filter: Optional[Callable[[Set[StateId]], Set[StateId]]] = None

    @property
    def ceilings(self) -> Dict[str, StateId]:
        """Each registered session's ceiling, by session name."""
        return {
            session.name: session.ceiling
            for session in self._store.sessions()
            if session.ceiling is not None
        }

    def collect(self, flush_promotions: bool = False) -> GCStats:
        """Run one full cycle: mark, safe-to-gc, splice, promote records.

        Once record promotion has re-keyed every version to a live id,
        the promotion table keeps only the ids a registered session
        holds (:meth:`_held_ids`); any other collected id then raises
        :class:`~repro.errors.GarbageCollectedError`. A store whose
        commits are shipped to peers keeps the whole table instead,
        because ``_graft`` and ``StateDAG.__contains__`` resolve a
        peer's parent ids through it (§6.4).
        ``flush_promotions`` prunes that table too, the situation
        optimistic replicated GC resolves by refetching from a peer.
        """
        stats = GCStats()
        store = self._store
        dag = store.dag
        with store._lock:
            started = time.perf_counter()
            self.cycles += 1
            if self._mark_pass():
                self._collect_pass(stats, self._safe_pass(stats))
            promoted, dropped = store.versions.promote_and_prune(dag)
            stats.records_promoted = promoted
            stats.records_dropped = dropped
            # The replicator is the store's only commit listener; a peer's
            # parent ids resolve through the table, so it keeps it whole.
            if flush_promotions or not store._commit_listeners:
                stats.promotions_flushed = dag.prune_promotions(self._held_ids())
            stats.live_states = len(dag)
            stats.live_records = store.versions.num_records()
            self.states_removed += stats.states_removed
            self.pause_ms_last = (time.perf_counter() - started) * 1000.0
            self.pause_ms_max = max(self.pause_ms_max, self.pause_ms_last)
        m = store.registry
        if m.enabled:
            m.inc("tardis_gc_cycle_total")
            m.inc("tardis_gc_states_removed_total", stats.states_removed)
            m.inc("tardis_gc_records_promoted_total", stats.records_promoted)
            m.inc("tardis_gc_records_dropped_total", stats.records_dropped)
            m.set_gauge("tardis_gc_live_states", stats.live_states)
            m.set_gauge("tardis_gc_live_records", stats.live_records)
            m.set_gauge("tardis_gc_promotion_table", dag.promotion_table_size)
        if store.recorder.enabled:
            store.recorder.event("gc", "cycle", None, n=stats.states_removed)
        return stats

    # -- pass 1: ceiling marking (bottom-up) --------------------------------

    def _mark_pass(self) -> bool:
        """Mark states above *every* client's ceiling.

        A state is only unreadable once every ceiling-placing client has
        promised to stay below it, so the marked set is the intersection
        of the strict-ancestor sets of all ceilings: those of the
        registered sessions that placed one.
        """
        dag = self._store.dag
        common: Optional[Set[StateId]] = None
        for session in self._store._sessions.values():
            state_id = session.ceiling
            if state_id is None:
                continue
            try:
                ceiling = dag.resolve(state_id)
            except GarbageCollectedError:
                continue  # placed at an id already dropped; a held one never is
            ancestors = self._strict_ancestors(ceiling)
            common = ancestors if common is None else (common & ancestors)
            if not common:
                return False
        if not common:
            return False
        for sid in common:
            state = dag.get(sid)
            if state is not None:
                state.marked = True
        return True

    def _strict_ancestors(self, state: "State") -> Set[StateId]:
        seen: Set[StateId] = set()
        stack = list(state.parents)
        while stack:
            current = stack.pop()
            if current.id in seen:
                continue
            seen.add(current.id)
            stack.extend(current.parents)
        return seen

    # -- pass 2: safe-to-gc (top-down) ----------------------------------------

    def _safe_pass(self, stats: GCStats) -> List[StateId]:
        """Flag safe states, parents before children (ids are topological).

        This is the cycle's one walk over the whole DAG, so it also
        counts the marked states for ``stats`` and returns the ids of the
        safe *interior* states, oldest first: the only states the collect
        pass can ever splice. Ids rather than states, so that nothing
        here keeps a spliced state alive.
        """
        interior: List[StateId] = []
        marked = safe = 0
        for state in sorted(self._store.dag.states(), key=attrgetter("id")):
            state.safe_to_gc = (
                state.marked
                and state.pins == 0
                and all(p.safe_to_gc for p in state.parents)
            )
            marked += state.marked
            if state.safe_to_gc:
                safe += 1
                if state.children:
                    interior.append(state.id)
        stats.marked = marked
        stats.safe = safe
        return interior

    # -- pass 3: collection ------------------------------------------------------

    def _collect_pass(self, stats: GCStats, interior: List[StateId]) -> None:
        """Splice out every safe interior state with one distinct child.

        Sweeps oldest-first to a fixpoint: a fork point whose branches
        fully collapse into their merge during one sweep becomes a
        single-child state and is collectable in the next. A later sweep
        looks only at what the previous one left of ``interior``, because
        splicing never turns a state into a fork point or a leaf.

        Write keys survive compression (§6.2), at one union per survivor:
        ``inherited`` maps a live state to the write keys of the run of
        states spliced into it so far. Splicing a state moves its entry
        on to its child, where two runs that meet at a merge state are
        joined smaller-into-larger, and what is left when the sweeps end
        is unioned into the survivors once.
        """
        dag = self._store.dag
        rec = self._store.recorder
        dead_forks: Set[StateId] = set()
        inherited: Dict["State", Set[Any]] = {}
        try:
            while True:
                candidates = [
                    sid for sid in interior if not dag.resolve(sid).is_fork_point
                ]
                if self.consent_filter is not None:
                    allowed = self.consent_filter(set(candidates))
                    candidates = [sid for sid in candidates if sid in allowed]
                if not candidates:
                    break
                for sid in candidates:
                    state = dag.resolve(sid)
                    if state.next_branch >= 2:
                        # A former fork point whose branches fully collapsed:
                        # once it is gone, every live state carries either
                        # all of its fork-path entries (merge descendants) or
                        # none (its ancestors), so the entries are scrubbable.
                        dead_forks.add(sid)
                    child = dag.splice_out(state)
                    if rec.enabled:
                        # ``parent`` is the state's parent as it is spliced
                        # (None once its ancestors went first).
                        parents = state.parents
                        parent = repr(parents[0].id) if parents else None
                        rec.event("gc", "promotion", repr(sid), parent, ref=repr(child.id))
                    keys = inherited.pop(state, None)
                    if keys is None:
                        keys = set(state.write_keys)
                    else:
                        keys.update(state.write_keys)
                    other = inherited.get(child)
                    if other is not None:
                        if len(other) > len(keys):
                            keys, other = other, keys
                        keys.update(other)
                    inherited[child] = keys
                stats.states_removed += len(candidates)
                spliced = set(candidates)
                interior = [sid for sid in interior if sid not in spliced]
        finally:
            # Also on an exception out of consent_filter: the states
            # spliced so far are gone, their write keys must not be.
            for survivor, keys in inherited.items():
                survivor.write_keys = survivor.write_keys | keys
        if dead_forks:
            # Dead-fork rewriting now happens through the ancestry index:
            # the dead forks' bits are cleared from every live state's
            # mask and their positions retired for reuse (§6.1.3, §6.3).
            stats.fork_entries_scrubbed = dag.retire_forks(dead_forks)

    def _held_ids(self) -> Set[StateId]:
        """The ids something in this process can still hand to ``resolve``.

        Every registered session's anchor (``ROOT_ID`` for one that never
        committed: the root is promoted when it is spliced) and ceiling.
        Record ids need no entry: promotion has just re-keyed them all to
        live states, on every record-store plane.
        """
        held: Set[StateId] = set()
        for session in self._store._sessions.values():
            held.add(session.last_commit_id)
            if session.ceiling is not None:
                held.add(session.ceiling)
        return held
