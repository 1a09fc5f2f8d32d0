"""The per-site Replicator service (§6.4).

Propagates locally committed transactions to every peer and applies
remote transactions under their StateID constraint: a remote transaction
names its parent state ids, so dependency checking reduces to a
presence test in the local DAG. Transactions whose parents have not
arrived are cached and retried as the missing states land.

For optimistic replicated GC, a replicator that receives a transaction
whose parent it has already collected (and flushed from the promotion
table) fetches the missing state back from the sender (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ids import StateId
from repro.core.store import TardisStore
from repro.errors import GarbageCollectedError
from repro.obs import metrics as _met
from repro.obs.context import stamp
from repro.replication.network import SimNetwork


@dataclass
class TxnMessage:
    """One replicated transaction: apply at ``parent_ids``, verbatim."""

    state_id: StateId
    parent_ids: Tuple[StateId, ...]
    writes: Dict[Any, Any]
    write_keys: Tuple[Any, ...] = ()


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
    #: the state's content when still live at the responder...
    message: Optional[TxnMessage] = None
    #: ...or the id it was promoted to when compressed away.
    promoted_to: Optional[StateId] = None


def _stamp(message: TxnMessage) -> Dict[str, Optional[str]]:
    """The trace ids of a replicated transaction's events."""
    return stamp(message.state_id, *message.parent_ids[:1])


class Replicator:
    """Gossips local commits; applies (or caches) remote transactions."""

    def __init__(
        self,
        store: TardisStore,
        network: SimNetwork,
        apply_listener=None,
    ):
        self.store = store
        self.site = store.site
        self.network = network
        #: messages waiting for a parent state: missing id -> messages.
        self._pending: Dict[StateId, List[Tuple[str, TxnMessage]]] = {}
        #: called after each successful remote apply (simulation charges
        #: service time through it).
        self.apply_listener = apply_listener
        self.applied = 0
        self.cached = 0
        self.fetches = 0
        self.dropped = 0
        network.connect(self.site, self.handle)
        store.add_commit_listener(self._on_local_commit)

    # -- outbound -----------------------------------------------------------

    def _on_local_commit(self, state, writes: Dict[Any, Any]) -> None:
        message = TxnMessage(
            state_id=state.id,
            parent_ids=tuple(p.id for p in state.parents),
            writes=dict(writes),
            write_keys=tuple(state.write_keys),
        )
        m = _met.DEFAULT
        if m.enabled:
            m.inc("tardis_repl_send_total")
        t = self.store.active_tracer()
        if t.enabled:
            # state ids travel as strings (trace ids) so ring entries stay
            # atomic and GC-invisible.
            t.event(
                "repl.send",
                state=repr(state.id),
                src=self.site,
                site=self.site,
                **_stamp(message)
            )
        self.network.broadcast(self.site, message)

    # -- inbound -------------------------------------------------------------

    def handle(self, src: str, message: Any) -> None:
        if isinstance(message, TxnMessage):
            self._apply_or_cache(src, message)
        elif isinstance(message, FetchRequest):
            self._answer_fetch(src, message)
        elif isinstance(message, FetchResponse):
            self._absorb_fetch(src, message)
        else:  # pragma: no cover - defensive
            raise TypeError("unknown replication message %r" % (message,))

    def _apply_or_cache(self, src: str, message: TxnMessage) -> None:
        m = _met.DEFAULT
        t = self.store.active_tracer()
        missing = [pid for pid in message.parent_ids if pid not in self.store.dag]
        if missing:
            self.cached += 1
            for pid in missing:
                self._pending.setdefault(pid, []).append((src, message))
            # Optimistic GC recovery: the parent may be gone because we
            # collected it; ask the sender for it.
            self.fetches += 1
            if m.enabled:
                m.inc("tardis_repl_cache_total")
                m.inc("tardis_repl_fetch_total")
            if t.enabled:
                t.event(
                    "repl.cache",
                    state=repr(message.state_id),
                    missing=repr(missing[0]),
                    site=self.site,
                    **_stamp(message)
                )
            # The fetch is charged to the transaction waiting on it.
            self.network.send(
                self.site,
                src,
                FetchRequest(missing[0], message.state_id, *message.parent_ids[:1]),
            )
            return
        try:
            applied = self.store.apply_remote(
                message.state_id,
                message.parent_ids,
                message.writes,
                write_keys=message.write_keys,
            )
        except GarbageCollectedError:
            # The parent's identity was collected in a way that cannot be
            # reconstructed locally (id-order violation after a flush);
            # the paper aborts transactions needing such states (§6.4).
            self.dropped += 1
            if m.enabled:
                m.inc("tardis_repl_drop_total")
            if t.enabled:
                t.event(
                    "repl.drop",
                    state=repr(message.state_id),
                    site=self.site,
                    **_stamp(message)
                )
            return
        if applied is not None:
            self.applied += 1
            if m.enabled:
                m.inc("tardis_repl_apply_total")
            if t.enabled:
                t.event(
                    "repl.apply",
                    state=repr(message.state_id),
                    src=src,
                    site=self.site,
                    **_stamp(message)
                )
            if self.apply_listener is not None:
                self.apply_listener(message)
        self._drain_pending(message.state_id)

    def _drain_pending(self, arrived: StateId) -> None:
        waiting = self._pending.pop(arrived, None)
        if not waiting:
            return
        for src, message in waiting:
            self._apply_or_cache(src, message)

    # -- state fetch (optimistic GC, §6.4) --------------------------------------

    def _answer_fetch(self, src: str, request: FetchRequest) -> None:
        t = self.store.active_tracer()
        if t.enabled:
            t.event(
                "repl.fetch",
                state=repr(request.state_id),
                peer=src,
                site=self.site,
                **stamp(request.waiting, request.waiting_parent)
            )
        state = self.store.dag.get(request.state_id)
        if state is None:
            promoted = self.store.dag.promotion_of(request.state_id)
            self.network.send(
                self.site,
                src,
                FetchResponse(request.state_id, promoted_to=promoted),
            )
            return
        versions = self.store.versions
        writes = {key: versions.record(key, state.id) for key in state.write_keys}
        message = TxnMessage(
            state_id=state.id,
            parent_ids=tuple(p.id for p in state.parents),
            writes=writes,
            write_keys=tuple(state.write_keys),
        )
        self.network.send(
            self.site, src, FetchResponse(request.state_id, message=message)
        )

    def _absorb_fetch(self, src: str, response: FetchResponse) -> None:
        if response.message is not None:
            self._apply_or_cache(src, response.message)
            return
        if response.promoted_to is not None:
            # The peer compressed the state away: its identity lives on in
            # the promoted descendant. Record the same promotion locally
            # so dependent transactions resolve, then retry them.
            if response.promoted_to in self.store.dag:
                if response.state_id not in self.store.dag:
                    self.store.dag._promotions[response.state_id] = (
                        response.promoted_to
                    )
                self._drain_pending(response.state_id)
                return
            # We collected past the promotion target too (and flushed the
            # trail): recovering would need the peer's full DAG; the
            # paper aborts the dependent transactions instead (§6.4).
            dropped = self._pending.pop(response.state_id, [])
            self.dropped += len(dropped)
            return
        # Peer knows nothing: an erroneously placed ceiling collected the
        # state everywhere. Dependent transactions are dropped (the paper
        # aborts transactions that access such states).
        dropped = self._pending.pop(response.state_id, [])
        self.dropped += len(dropped)

    # -- introspection -------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return sum(len(msgs) for msgs in self._pending.values())
