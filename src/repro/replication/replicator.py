"""The per-site Replicator service (§6.4).

Propagates locally committed transactions to every peer and applies
remote transactions under their StateID constraint. What travels is the
commit's :class:`~repro.core.ids.CommitRecord`, the record the WAL logs:
it names its parent state ids, so dependency checking reduces to a
presence test in the local DAG. Transactions whose parents have not
arrived are cached and retried as the missing states land.

For optimistic replicated GC, a replicator that receives a transaction
whose parent it has already collected (and flushed from the promotion
table) fetches the missing state back from the sender (§6.4). The sender
answers with the state's record while the state is live, else with
nothing, and the waiting transactions are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.ids import CommitRecord, StateId
from repro.core.store import TardisStore
from repro.errors import GarbageCollectedError
from repro.replication.network import SimNetwork


@dataclass
class FetchRequest:
    state_id: StateId
    #: the transaction waiting on the fetch, and its first parent: fetch
    #: traffic is charged to it, not to the fetched state.
    waiting: StateId
    waiting_parent: Optional[StateId] = None


@dataclass
class FetchResponse:
    state_id: StateId
    #: the state's content when still live at the responder, else None.
    record: Optional[CommitRecord] = None


def _row(store: TardisStore, name: str, record: CommitRecord, ref: Optional[str] = None) -> None:
    """Record a ``repl`` row about ``record``: its trace id and its first
    parent's (the caller checks ``recorder.enabled``)."""
    parents = record.parent_ids
    parent = repr(parents[0]) if parents else None
    store.recorder.event("repl", name, repr(record.state_id), parent, ref=ref)


class Replicator:
    """Gossips local commits; applies (or caches) remote transactions."""

    def __init__(self, store: TardisStore, network: SimNetwork):
        self.store = store
        self.site = store.site
        self.network = network
        #: records waiting for a parent state: missing id -> records.
        self._pending: Dict[StateId, List[Tuple[str, CommitRecord]]] = {}
        #: ids of the records dropped here (see :meth:`_drop`).
        self.dropped_ids: Set[StateId] = set()
        #: called after each successful remote apply (simulation charges
        #: service time through it).
        self.apply_listener: Optional[Callable[[CommitRecord], None]] = None
        self.applied = 0
        self.cached = 0
        self.fetches = 0
        self.dropped = 0
        network.connect(self.site, self.handle)
        store.add_commit_listener(self._on_local_commit)

    # -- outbound -----------------------------------------------------------

    def _on_local_commit(self, record: CommitRecord) -> None:
        self.store.registry.inc("tardis_repl_send_total")
        if self.store.recorder.enabled:
            _row(self.store, "send", record)
        self.network.broadcast(self.site, record)

    # -- inbound -------------------------------------------------------------

    def handle(self, src: str, message: Any) -> None:
        if isinstance(message, CommitRecord):
            self._apply_or_cache(src, message)
        elif isinstance(message, FetchRequest):
            self._answer_fetch(src, message)
        elif isinstance(message, FetchResponse):
            self._absorb_fetch(src, message)
        else:  # pragma: no cover - defensive
            raise TypeError("unknown replication message %r" % (message,))

    def _apply_or_cache(self, src: str, record: CommitRecord) -> None:
        m = self.store.registry
        traced = self.store.recorder.enabled
        dropped = self.dropped_ids
        if record.state_id in dropped:
            return
        if any(pid in dropped for pid in record.parent_ids):
            self._drop([record])
            return
        missing = [pid for pid in record.parent_ids if pid not in self.store.dag]
        if missing:
            self.cached += 1
            for pid in missing:
                self._pending.setdefault(pid, []).append((src, record))
            # Optimistic GC recovery: the parent may be gone because we
            # collected it; ask the sender for it.
            self.fetches += 1
            if m.enabled:
                m.inc("tardis_repl_cache_total")
                m.inc("tardis_repl_fetch_total")
            if traced:
                _row(self.store, "cache", record, repr(missing[0]))
            # The fetch is charged to the transaction waiting on it.
            self.network.send(
                self.site,
                src,
                FetchRequest(missing[0], record.state_id, *record.parent_ids[:1]),
            )
            return
        try:
            applied = self.store.apply_remote(record)
        except GarbageCollectedError:
            # The parent's identity was collected in a way that cannot be
            # reconstructed locally (id-order violation after a flush).
            self._drop([record])
            return
        if applied is not None:
            self.applied += 1
            if m.enabled:
                m.inc("tardis_repl_apply_total")
            if traced:
                _row(self.store, "apply", record, src)
            if self.apply_listener is not None:
                self.apply_listener(record)
        self._drain_pending(record.state_id)

    def _drop(self, doomed: List[CommitRecord]) -> None:
        """Drop the records ``doomed`` and, recursively, every record
        cached under one of them: none of them can be placed here.

        The paper aborts transactions that need a state an erroneous
        ceiling collected (§6.4). A dropped record's id is remembered in
        ``dropped_ids``, so a record that names it as a parent later is
        dropped on arrival instead of fetching its chain again. The set
        holds one id per dropped record for the replicator's life: nothing
        yet tells when no peer can still name an id.
        """
        m = self.store.registry
        traced = self.store.recorder.enabled
        pending = self._pending
        while doomed:
            record = doomed.pop()
            if record.state_id in self.dropped_ids:
                continue
            self.dropped_ids.add(record.state_id)
            self.dropped += 1
            if m.enabled:
                m.inc("tardis_repl_drop_total")
            if traced:
                _row(self.store, "drop", record)
            for pid in record.parent_ids:  # a merge may wait on two parents
                rest = [w for w in pending.pop(pid, ()) if w[1].state_id != record.state_id]
                if rest:
                    pending[pid] = rest
            doomed.extend(r for _src, r in pending.pop(record.state_id, ()))

    def _drain_pending(self, arrived: StateId) -> None:
        waiting = self._pending.pop(arrived, None)
        if not waiting:
            return
        for src, record in waiting:
            self._apply_or_cache(src, record)

    # -- state fetch (optimistic GC, §6.4) --------------------------------------

    def _answer_fetch(self, src: str, request: FetchRequest) -> None:
        rec = self.store.recorder
        if rec.enabled:
            parent = request.waiting_parent
            rec.event(
                "repl",
                "fetch",
                repr(request.waiting),
                None if parent is None else repr(parent),
                ref=repr(request.state_id),
            )
        with self.store._lock:
            state = self.store.dag.get(request.state_id)
            if state is None:
                response = FetchResponse(request.state_id)
            else:
                writes = {
                    key: self.store.versions.record(key, state.id)
                    for key in state.write_keys
                }
                record = CommitRecord(
                    state.id, tuple(p.id for p in state.parents), writes
                )
                response = FetchResponse(request.state_id, record=record)
        self.network.send(self.site, src, response)

    def _absorb_fetch(self, src: str, response: FetchResponse) -> None:
        if response.record is not None:
            self._apply_or_cache(src, response.record)
            return
        if response.state_id in self.store.dag:
            return  # it arrived while the fetch was in flight
        # The peer no longer holds the state live (it compressed it away,
        # or never had it): recovering would need the peer's full DAG, so
        # the dependent transactions are dropped. The id itself is not:
        # its own record may still arrive from its origin.
        self._drop([r for _src, r in self._pending.pop(response.state_id, ())])

    # -- introspection -------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return sum(len(msgs) for msgs in self._pending.values())
