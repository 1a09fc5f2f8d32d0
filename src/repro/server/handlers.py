"""What a request runs: sessions and op handlers.

Everything in this module runs on the server's one store thread (so it
is serialized with every other store access), and touches no socket or
event loop. ``server/server.py`` is the other half — the sockets that
thread accepts and serves, the watchdog thread that times requests out,
and shutdown — and reaches the store only through
:meth:`WireSession.handle` and :meth:`WireSession.close`.

A request is answered by one plain function ``(server, session,
request) -> response fields`` looked up in :data:`HANDLERS`; the table
is checked against the protocol's ``OPS`` catalogue at import, so an op
without a handler (or a handler without an op) cannot ship. Handlers
validate everything that arrives from outside before it reaches the
store and raise :class:`RequestError` for a typed wire error.

A transaction costs a client two requests, not one per call: any op
that names a transaction may carry ``begin`` (the begin fields, in place
of ``txn``) and ``writes`` (a batch of WRITEs), and
:meth:`WireSession.txn` — the one place such ops get their transaction —
runs both before the op itself (``WRITE`` is the one-op spelling of
``writes``). A write-free transaction costs one: any request may carry
``closed``, the ids of those its client committed locally, and
:meth:`WireSession.handle` commits them before the op runs.

A connection is bound at HELLO to one registered
:class:`~repro.core.store.ClientSession`, and keeps that object: its
transactions begin on it, and its close (disconnect, BYE) closes it.

The served store collects its garbage (docs/internals.md §3): every
commit a session makes places its GC ceiling at its new anchor; the
cycles themselves are the server's, run on the store thread after the
request that grew the DAG (``TardisServer._collect_if_grown``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core import constraints
from repro.core.merge import MergeTransaction
from repro.core.store import ClientSession
from repro.core.transaction import ACTIVE, COMMITTED, BaseTransaction
from repro.obs.sampler import ObsSampler
from repro.server.protocol import (
    OPS,
    PROTOCOL_VERSION,
    code_for,
    error_response,
    ok_response,
)

if TYPE_CHECKING:
    from repro.server.server import TardisServer

__all__ = ["HANDLERS", "RequestError", "WireSession", "holds_work"]

#: the collector's counts in STATS ``store.gc``; the server's counters
#: (OBS_SNAPSHOT, the shutdown report) carry each as ``gc_<field>``.
GC_FIELDS = ("cycles", "states_removed", "pause_ms_last", "pause_ms_max")

#: begin-constraint names accepted by ``begin`` (Table 1 of the paper).
BEGIN_CONSTRAINTS: Dict[str, Callable[[], constraints.Constraint]] = {
    "ancestor": constraints.AncestorConstraint,
    "any": constraints.AnyConstraint,
    "parent": constraints.ParentConstraint,
}

#: end-constraint names accepted by COMMIT.
END_CONSTRAINTS: Dict[str, Callable[[], constraints.Constraint]] = {
    "serializability": constraints.SerializabilityConstraint,
    "snapshot-isolation": constraints.SnapshotIsolationConstraint,
    "read-committed": constraints.ReadCommittedConstraint,
    "any": constraints.AnyConstraint,
}

#: a decoded request, or the fields of an ok response.
_Json = Dict[str, Any]

#: sentinel distinguishing "key absent" from an explicit None value.
_MISSING = object()


class RequestError(Exception):
    """Raised by a handler to produce a typed wire error response."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(code)
        self.code = code
        self.message = message


class WireSession:
    """One connection's protocol state: the session it bound and the
    open transactions, and the one way a request reaches the store.

    Everything here is mutated only on the store thread: by ``handle``,
    by ``undo`` right after a handler ``TIMEOUT`` answered for, and by
    ``close`` once the connection is dropped — never concurrently.
    """

    _GUARDED_BY = {
        "txns": "external:store-thread",
        "bound": "external:store-thread",
        "began": "external:store-thread",
    }

    __slots__ = ("server", "id", "bound", "txns", "next_txn_id", "began")

    def __init__(self, server: TardisServer, conn_id: int) -> None:
        self.server = server
        self.id = conn_id
        #: the store session HELLO bound: every transaction of this
        #: connection begins on this object, even once in-process code
        #: closed it, so read-my-writes never restarts at the root.
        self.bound: Optional[ClientSession] = None
        #: txn wire id -> open BaseTransaction.
        self.txns: Dict[int, BaseTransaction] = {}
        self.next_txn_id = 1
        #: (request, what it opened) for the last request that began a
        #: transaction, until the next request: a request that opens one
        #: and is not answered ``ok`` must leave nothing open. Keyed on
        #: the request object, not its ``id``: ids are the client's and
        #: may repeat.
        self.began: Optional[Tuple[_Json, _Json]] = None

    def handle(self, request: _Json) -> _Json:
        """Run one request; always returns a response, never raises."""
        request_id = request.get("id")
        op = request.get("op")
        self.began = None
        try:
            handler = HANDLERS.get(op) if isinstance(op, str) else None
            if handler is None:
                raise RequestError("UNKNOWN_OP", "op=%r" % (op,))
            if self.bound is None and op != "HELLO":
                raise RequestError("NO_HELLO", "say HELLO first")
            if "closed" in request:
                self.commit_closed(request["closed"])
            fields = handler(self.server, self, request)
            if self.began is not None:
                fields.update(self.began[1])  # a piggy-backed begin answers here
            return ok_response(request_id, **fields)
        except RequestError as exc:
            self.undo(request)
            return error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # tardis: ignore[bare-except] — one bad request must not kill the connection loop
            self.undo(request)
            code = code_for(exc)
            if code is None:
                return error_response(request_id, "INTERNAL", repr(exc))
            return error_response(request_id, code, str(exc))

    def undo(self, request: _Json) -> None:
        """Abort and forget the transaction ``request`` began, if it is
        still open: the request is being answered with an error (here, or
        ``TIMEOUT`` by the watchdog thread), so no client will learn its id."""
        began = self.began
        if began is None or began[0] is not request:
            return
        self.began = None
        txn = self.txns.pop(began[1]["txn"], None)
        if txn is not None and txn.status == ACTIVE:
            txn.abort()
            self.server._count("aborts")

    def commit_closed(self, closed: Any) -> None:
        """A request's ``closed``: write-free single-mode transactions its
        client committed locally. Checked whole, then committed ahead of the op
        (so the anchor precedes its ``begin``); an id of nothing open is ignored."""
        if not isinstance(closed, list) or any(type(i) is not int for i in closed):
            raise RequestError("BAD_REQUEST", "closed must be a list of txn ids")
        if any(i in self.txns and holds_work(self.txns[i]) for i in closed):
            raise RequestError("BAD_REQUEST", "closed names a txn with writes or a merge")
        for txn_id in closed:
            txn = self.txns.pop(txn_id, None)
            if txn is not None:
                txn.commit()
                self.server._count("commits")
                txn.session.place_ceiling()

    def close(self) -> int:
        """Abort what is open and close the store session; returns how
        many transactions were still active."""
        open_txns = [t for t in self.txns.values() if t.status == ACTIVE]
        self.txns.clear()
        if self.bound is not None:
            # close_session aborts whatever is still ACTIVE on the
            # session (including txns above) and is idempotent, so a
            # polite BYE racing a socket drop stays safe.
            self.server.store.close_session(self.bound.name)
        for txn in open_txns:
            if txn.status == ACTIVE:  # begun after in-process code closed the session
                txn.abort()
        return len(open_txns)

    def txn(self, request: _Json) -> BaseTransaction:
        """The open transaction a request names (``true`` is not 1) — or
        begins: ``begin`` in place of ``txn`` runs BEGIN first and leaves
        the new id in ``request["txn"]``. Then the request's ``writes``
        are applied, all of them or (ill-formed) none."""
        writes = _writes(request)
        begin = request.get("begin")
        if begin is not None:
            if "txn" in request or not isinstance(begin, dict):
                raise RequestError("BAD_REQUEST", "begin is an object, given in place of txn")
            request["txn"] = _begin(self.server, self, request, begin)["txn"]
        txn_id = request.get("txn")
        txn = self.txns.get(txn_id) if type(txn_id) is int else None
        if txn is None:
            raise RequestError("UNKNOWN_TXN", "txn=%r" % (txn_id,))
        for write in writes:
            if write.get("delete", False):
                txn.delete(write["key"])
            else:
                txn.put(write["key"], write["value"])
        return txn

    def open(self, txn: BaseTransaction, request: _Json, **opened: Any) -> _Json:
        """Register the transaction ``request`` began; returns what its
        answer says about it (``txn``, the wire id, plus ``opened``)."""
        opened["txn"] = self.next_txn_id
        self.next_txn_id += 1
        self.txns[opened["txn"]] = txn
        self.began = (request, opened)
        return opened


def holds_work(txn: BaseTransaction) -> bool:
    """Has writes or is a merge: ``closed`` may not name it, a drain waits for it."""
    return bool(txn.writes) or isinstance(txn, MergeTransaction)


# -- input validation --------------------------------------------------------


def _scalar(key: Any) -> Any:
    # JSON arrays and objects decode to unhashable values; the store
    # would answer them with a TypeError deep inside a handler.
    if isinstance(key, (list, dict)):
        raise RequestError("BAD_REQUEST", "a key must be a scalar, got %r" % (key,))
    return key


def _key(request: _Json) -> Any:
    if "key" not in request:
        raise RequestError("BAD_REQUEST", "%s needs a key" % request["op"])
    return _scalar(request["key"])


def _writes(request: _Json) -> List[_Json]:
    """The request's ``writes``, checked whole before any is applied."""
    writes = request.get("writes")
    if writes is None:
        return []
    if not isinstance(writes, list):
        raise RequestError("BAD_REQUEST", "writes must be a list")
    for write in writes:
        if not isinstance(write, dict) or "key" not in write:
            raise RequestError("BAD_REQUEST", "a write needs a key")
        _scalar(write["key"])
        if "value" not in write and not write.get("delete", False):
            raise RequestError("BAD_REQUEST", "a write needs a value (or delete)")
    return writes


def _constraint(
    request: _Json, kind: str, table: Dict[str, Callable[[], constraints.Constraint]]
) -> Optional[constraints.Constraint]:
    name = request.get("constraint")
    if name is None:
        return None
    factory = table.get(name) if isinstance(name, str) else None
    if factory is None:
        raise RequestError(
            "BAD_CONSTRAINT", "%r (%s constraints: %s)" % (name, kind, sorted(table))
        )
    return factory()


def _accepting(server: TardisServer) -> None:
    if server._closing:
        raise RequestError("SHUTTING_DOWN", "no new transactions while draining")


# -- op handlers ---------------------------------------------------------------


def _hello(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    if session.bound is not None:
        raise RequestError(
            "ALREADY_HELLO", "connection is bound to %r" % session.bound.name
        )
    version = request.get("protocol", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise RequestError(
            "BAD_VERSION",
            "server speaks protocol %d, client sent %r" % (PROTOCOL_VERSION, version),
        )
    name = request.get("session")
    if name is not None and not isinstance(name, str):
        raise RequestError("BAD_REQUEST", "session must be a string")
    with server._lock:
        if name is not None and any(b.name == name for b in server._bound_sessions()):
            raise RequestError("SESSION_IN_USE", name)
    bound = session.bound = server.store.session(name)
    return {"session": bound.name, "site": server.store.site, "protocol": PROTOCOL_VERSION}


def _begin(server: TardisServer, session: WireSession, request: _Json, fields: _Json) -> _Json:
    """Begin the transaction ``request`` carries (``fields``: its ``begin`` object)."""
    _accepting(server)
    txn = server.store.begin(
        begin_constraint=_constraint(fields, "begin", BEGIN_CONSTRAINTS),
        session=session.bound,
        read_only=bool(fields.get("read_only", False)),
    )
    return session.open(txn, request, read_state=repr(txn.read_state.id))


def _merge(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    _accepting(server)
    merge = server.store.begin_merge(session=session.bound)
    txn_id = session.open(merge, request)["txn"]
    fork_points = merge.find_fork_points()
    conflicts: List[_Json] = []
    for key in merge.find_conflict_writes():
        base = (
            merge.get_for_id(key, fork_points[0], default=None)
            if fork_points
            else None
        )
        conflicts.append({"key": key, "base": base, "values": merge.get_all(key)})
    server._count("merges")
    return {
        "txn": txn_id,
        "parents": [repr(p) for p in merge.parents],
        "fork_points": [repr(f) for f in fork_points],
        "conflicts": conflicts,
    }


def _read(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    key = _key(request)
    value = session.txn(request).get(key, default=_MISSING)
    if value is _MISSING:
        return {"found": False, "value": None}
    return {"found": True, "value": value}


def _read_many(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    keys = request.get("keys")
    if not isinstance(keys, list):
        raise RequestError("BAD_REQUEST", "READ_MANY needs a keys list")
    for key in keys:
        _scalar(key)
    values = session.txn(request).get_many(keys, default=_MISSING)
    return {
        "found": [value is not _MISSING for value in values],
        "values": [None if value is _MISSING else value for value in values],
    }


def _write(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    if "writes" not in request:
        # The one-write spelling: key/value/delete on the request itself.
        request["writes"] = [
            {name: request[name] for name in ("key", "value", "delete") if name in request}
        ]
    session.txn(request)
    return {}


def _commit(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    txn = session.txn(request)
    constraint = _constraint(request, "end", END_CONSTRAINTS)
    try:
        commit_id = txn.commit(constraint)
    finally:
        if txn.status != ACTIVE:
            session.txns.pop(request["txn"], None)
            server._count("commits" if txn.status == COMMITTED else "aborts")
    txn.session.place_ceiling()
    return {"commit_state": repr(commit_id), "merge": isinstance(txn, MergeTransaction)}


def _abort(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    session.txn(request).abort()
    session.txns.pop(request["txn"], None)
    server._count("aborts")
    return {}


def _stats(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    store = server.store
    stats = server._obs_counters()
    gauges = server._obs_gauges()
    stats["connections_active"] = gauges["connections"]
    stats["inflight"] = gauges["inflight"]
    stats["draining"] = server._closing
    stats["open_sessions"] = gauges["sessions"]
    stats["open_txns"] = sum(
        1
        for sess in store.sessions()
        for txn in list(sess._active_txns)
        if txn.status == ACTIVE
    )
    # Under the store lock: with shard workers ``num_records`` is a
    # round trip on the links a concurrent commit may be using.
    with store._lock:
        stats["store"] = {
            "site": store.site,
            "states": len(store.dag),
            "leaves": len(store.dag.leaves()),
            "commits": store.metrics.commits,
            "merges": store.metrics.merges,
            "records": store.versions.num_records(),
            "promotions": store.dag.promotion_table_size,
            "gc": {name: stats.pop("gc_" + name) for name in GC_FIELDS},
        }
    shards = store.shard_health(ping=False)
    if shards is not None and "workers" in shards:
        stats["store"]["shard_workers"] = shards["n_workers"]
        stats["store"]["shard_workers_alive"] = shards["workers_alive"]
    stats["obs"] = {
        "sampler": server.sampling,
        "interval_s": server.obs_sample_interval,
    }
    return {"stats": stats}


def _obs_snapshot(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    tail = request.get("tail")
    if tail is not None and not isinstance(tail, int):
        raise RequestError("BAD_REQUEST", "tail must be an integer")
    # With the sampler running, its latest snapshot (at most one interval
    # stale); without it nothing refreshes ``latest``, so sample on demand
    # (handlers run on the store thread: race-free).
    obs = server.obs
    snapshot = obs.latest_or_sample() if server.sampling else obs.sample()
    return {"snapshot": ObsSampler.trim(snapshot, tail)}


def _bye(server: TardisServer, session: WireSession, request: _Json) -> _Json:
    # The response is sent first; the store thread closes the socket after.
    return {}


#: op -> handler. ``WireSession.handle`` is the only caller.
HANDLERS: Dict[str, Callable[[TardisServer, WireSession, _Json], _Json]] = {
    "HELLO": _hello,
    "MERGE": _merge,
    "READ": _read,
    "READ_MANY": _read_many,
    "WRITE": _write,
    "COMMIT": _commit,
    "ABORT": _abort,
    "STATS": _stats,
    "OBS_SNAPSHOT": _obs_snapshot,
    "BYE": _bye,
}

if set(HANDLERS) != OPS:
    raise ImportError(
        "HANDLERS and the OPS catalogue disagree on %s" % sorted(set(HANDLERS) ^ OPS)
    )
