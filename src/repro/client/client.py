"""Synchronous TARDiS client: plain sockets, blocking calls.

The client mirrors the in-process API shape so application code ports
with a search-and-replace::

    from repro.client import TardisClient

    client = TardisClient(port=7145, session="alice")
    with client.begin() as t:
        t.put("greeting", "hello")

    merge = client.merge()
    for conflict in merge.conflicts:
        merge.put(conflict["key"], max(conflict["values"]))
    merge.commit()

Requests on one connection are answered strictly in order, so the
client is a simple send-one/read-one loop; one ``TardisClient`` must not
be shared across threads (open one per thread — sessions are cheap).

A transaction costs at most two round trips, not one per call:
``begin()`` sends nothing and ``put``/``delete`` only buffer; the begin
and the buffered writes ride on the transaction's next request (a read,
or the commit). So **the snapshot is chosen when the first operation
reaches the server, not when** ``begin()`` **returns** (``read_state``
is ``None`` until then), and what the begin can raise
(``SHUTTING_DOWN``, ``BEGIN_FAILED``, ``BAD_CONSTRAINT``, a timeout)
comes from that first call — which then fails as a unit: nothing stays
open on the server, the handle is ``aborted``.

A transaction that wrote nothing is one round trip: ``commit()`` on it
(begin answered, no end constraint named) sends nothing, cannot raise and
returns the read state (``commit_state == read_state``: it adds no state).
The server learns with this connection's next frame, or its disconnect;
until then it counts the transaction open, one pin on its read state.

Every call is one round trip through :meth:`TardisClient._exchange`:
send one frame, read until its answer. The protocol itself (numbering,
pairing, error mapping) is :class:`~repro.server.protocol.ClientChannel`;
the client only moves bytes.

Error mapping (``ERROR_TABLE`` in :mod:`repro.server.protocol`):
``TXN_ABORTED`` re-raises :class:`~repro.errors.TransactionAborted` and
``BEGIN_FAILED`` re-raises :class:`~repro.errors.BeginError`, so retry
loops written against the in-process store work unchanged; every other
wire error surfaces as :class:`~repro.errors.ServerError` with the code
attached. A call that ends *without* an answer (socket timeout, EOF, a
mismatched response id) closes the client: the socket is dropped, the
server aborts what was open, later calls raise ``NetworkError``.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import (
    FrameTooLarge,
    KeyNotFound,
    NetworkError,
    TransactionAborted,
    TransactionClosed,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ClientChannel,
    encode_frame,
    error_response,
    exception_for,
)

__all__ = ["TardisClient", "ClientTransaction", "ClientMergeTransaction"]

_RAISE = object()

_Json = Dict[str, Any]


class _BaseClientTransaction:
    """The calls and bookkeeping of every transaction handle. ``with``
    commits it on a clean exit and aborts it on an exception."""

    def __init__(
        self, client: "TardisClient", txn_id: Optional[int], begin: Optional[_Json] = None
    ) -> None:
        self._client = client
        #: a read-only handle refuses ``put``/``delete`` without a frame.
        self.read_only = bool(begin and begin["read_only"])
        #: the server's id for the transaction; None until it has
        #: answered the request that carried the BEGIN.
        self._txn_id = txn_id
        #: BEGIN fields nothing has carried yet: the next request does.
        self._begin = begin
        #: ``put``/``delete`` since the last request: the next one
        #: carries them, and the server applies them before it acts.
        self._writes: List[_Json] = []
        self._wrote = False  # ``put``/``delete`` ever buffered anything
        #: state id repr of the snapshot a single-mode transaction reads;
        #: None on a merge handle, and until the first request is answered.
        self.read_state: Optional[str] = None
        self.status = "active"
        #: state id repr of the commit state, once committed.
        self.commit_state: Optional[str] = None

    def _check_active(self) -> None:
        if self.status != "active":
            raise TransactionClosed("transaction is %s" % self.status)

    def _request(self, op: str, fields: _Json, carry: Optional[int] = None) -> _Json:
        """One frame of this transaction, and its ``ok`` answer: ``fields``
        plus the BEGIN when nothing was sent yet, plus the buffered writes
        (the first ``carry`` of them; all by default). Writes leave the
        buffer for good only when the server answers ``ok``: a request
        that cannot be framed, or an error answer that leaves the
        transaction open, puts them back (resending applied writes
        changes nothing)."""
        self._check_active()
        begin, pending = self._begin, self._writes
        if begin is None:
            fields["txn"] = self._txn_id
        else:
            fields["begin"] = begin
        writes = pending if carry is None else pending[:carry]
        if writes:
            fields["writes"] = writes
            self._writes = pending[len(writes) :]
        client = self._client
        try:
            frame = client._frame(op, fields)
        except (TypeError, ValueError, FrameTooLarge) as exc:
            self._writes[:0] = writes
            if not isinstance(exc, FrameTooLarge) or len(writes) < 2:
                raise
            # More buffered than one frame holds: ship the first half as
            # WRITE frame(s), then this request with what is left.
            for name in ("begin", "txn", "writes"):
                fields.pop(name, None)
            half = len(writes) // 2
            self._request("WRITE", {}, half)
            return self._request(op, fields, None if carry is None else len(writes) - half)
        try:
            response = client._exchange(frame)
        except BaseException as exc:
            if not client._channel.closed:  # the server answered with an error
                if begin is not None or isinstance(exc, (TransactionAborted, TransactionClosed)):
                    # BEGIN + op failed as a unit, or the server says the
                    # transaction is over: nothing of it stays open there.
                    self.status = "aborted"
                else:
                    self._writes[:0] = writes
            raise
        if begin is not None:
            self._begin = None
            self._txn_id = response["txn"]
            self.read_state = response["read_state"]
        return response

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        response = self._request("READ", {"key": key})
        if response["found"]:
            return response["value"]
        return self._missing(key, default)

    def get_many(self, keys: Iterable[Any], default: Any = _RAISE) -> List[Any]:
        """Batch read: one READ_MANY round trip for the whole key list.

        Against a shard-partitioned server the batch fans out across the
        shard workers in parallel, so this is the wire API that actually
        exercises the scatter/gather read path.
        """
        keys = keys if type(keys) is list else list(keys)
        response = self._request("READ_MANY", {"keys": keys})
        values: List[Any] = response["values"]
        found = response["found"]
        if False in found:
            values = [
                value if hit else self._missing(key, default)
                for key, hit, value in zip(keys, found, values)
            ]
        return values

    @staticmethod
    def _missing(key: Any, default: Any) -> Any:
        if default is _RAISE:
            raise KeyNotFound(key)
        return default

    def _buffer(self, write: _Json) -> None:
        """``put``/``delete``: no frame; the next request carries it."""
        self._check_active()
        if self.read_only:
            raise exception_for(error_response(None, "READ_ONLY"))
        self._writes.append(write)
        self._wrote = True

    def put(self, key: Any, value: Any) -> None:
        self._buffer({"key": key, "value": value})

    def delete(self, key: Any) -> None:
        self._buffer({"key": key, "delete": True})

    def commit(self, constraint: Optional[str] = None) -> str:
        """Commit; returns the commit state's id repr. The handle turns
        ``aborted`` only when the server says the transaction is over
        (or never opened: a failed first request) — any other error
        (``BAD_CONSTRAINT``...) leaves it ``active``. Write-free, begun and
        naming no constraint, the answer is the read state held (§6.1.4: no
        state, no conflict); the connection's next frame tells the server."""
        if constraint is None and self.read_state is not None and not self._wrote:
            self._check_active()
            self._client._closed.append(self._txn_id)
            commit_state = self.read_state
        else:
            fields = {} if constraint is None else {"constraint": constraint}
            commit_state = self._request("COMMIT", fields)["commit_state"]
        self.status = "committed"
        self.commit_state = commit_state
        return commit_state

    def abort(self) -> None:
        """Abort, dropping the buffered writes; local when no request
        of this transaction ever reached the server."""
        self._writes = []
        if self._begin is None or self.status != "active":
            self._request("ABORT", {})  # raises on a closed handle
        self.status = "aborted"

    def __enter__(self) -> Any:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status == "active":
            self.commit() if exc_type is None else self.abort()

    def __repr__(self) -> str:
        return "<%s txn=%s %s>" % (type(self).__name__, self._txn_id, self.status)


class ClientTransaction(_BaseClientTransaction):
    """A single-mode transaction over the wire: it knows the snapshot it
    reads (``read_state``)."""


class ClientMergeTransaction(_BaseClientTransaction):
    """A merge transaction over the wire.

    The server computes the reconciliation context at MERGE time:
    ``parents`` (the branch heads being merged), ``fork_points``, and
    ``conflicts`` — a list of ``{"key", "base", "values"}`` dicts, one
    per key written concurrently on several branches (``base`` is the
    fork-point value for three-way merges). ``put`` the resolved values,
    then ``commit``.
    """

    def __init__(self, client: "TardisClient", response: _Json) -> None:
        super().__init__(client, response["txn"])
        self.parents: List[str] = response["parents"]
        self.fork_points: List[str] = response["fork_points"]
        self.conflicts: List[_Json] = response["conflicts"]


class TardisClient:
    """A blocking-socket client for one TARDiS server connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7145,
        session: Optional[str] = None,
        timeout: float = 10.0,
    ) -> None:
        self._channel = ClientChannel()
        #: write-free transactions committed locally since the last frame.
        self._closed: List[int] = []
        #: the session name the server bound this connection to.
        self.session: Optional[str] = None
        #: the server's site name.
        self.site: Optional[str] = None
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        try:
            hello = self._call("HELLO", {"session": session, "protocol": PROTOCOL_VERSION})
        except BaseException:
            # Refused (SESSION_IN_USE, SERVER_BUSY, ...): no client comes
            # of it, so nobody else would give the server its slot back.
            self._drop()
            raise
        self.session = hello["session"]
        self.site = hello["site"]

    # -- plumbing ---------------------------------------------------------

    def _frame(self, op: str, fields: _Json) -> bytes:
        """Number and encode one request, before anything is sent: one
        that cannot be framed (value not JSON, over the cap) costs an
        id, not the link, nor the ``closed`` list the next frame carries."""
        message = self._channel.request(op, fields)
        closed = self._closed
        if closed:
            message["closed"] = closed
        frame = encode_frame(message)
        if closed:
            self._closed = []
        return frame

    def _exchange(self, frame: bytes) -> _Json:
        """One round trip: send ``frame``, read until its answer. An error
        *answer* raises and leaves the connection usable. A request still
        in flight (timeout, interrupt) cannot be taken back — its answer
        would be read as the next request's — so that loses the connection
        like EOF or an id mismatch: drop the socket, and the server's
        disconnect cleanup aborts what was open."""
        channel, sock = self._channel, self._sock
        try:
            sock.sendall(frame)
            response = None
            while response is None:  # nothing is buffered: one request is in flight
                channel.feed(sock.recv(65536))
                response = channel.response()
        except BaseException:
            if channel.awaiting is not None:
                channel.abandon()
            if channel.closed:
                self._drop()
            raise
        return response

    def _call(self, op: str, fields: _Json) -> _Json:
        """One request outside any transaction, and its ``ok`` answer."""
        return self._exchange(self._frame(op, fields))

    def _drop(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- transactions -----------------------------------------------------

    def begin(
        self, read_only: bool = False, constraint: Optional[str] = None
    ) -> ClientTransaction:
        """A transaction handle; constraint is a begin-constraint name
        (``ancestor``, ``any``, ``parent``; server default: ancestor).
        Nothing is sent: the handle's first request carries the BEGIN,
        and the server picks the snapshot when that request arrives."""
        fields: Dict[str, Any] = {"read_only": read_only}
        if constraint is not None:
            fields["constraint"] = constraint
        return ClientTransaction(self, None, fields)

    def merge(self) -> ClientMergeTransaction:
        """Start a merge transaction over the current branch heads."""
        return ClientMergeTransaction(self, self._call("MERGE", {}))

    def stats(self) -> _Json:
        """Server + store counters (see docs/internals.md §12)."""
        return self._call("STATS", {})["stats"]

    def obs_snapshot(self, tail: Optional[int] = None) -> _Json:
        """One observability snapshot (series tails cut to ``tail``;
        docs/internals.md §14)."""
        fields = {} if tail is None else {"tail": tail}
        return self._call("OBS_SNAPSHOT", fields)["snapshot"]

    # -- autocommit convenience -------------------------------------------

    def put(self, key: Any, value: Any) -> str:
        """Single-write autocommit transaction; returns the commit state."""
        txn = self.begin()
        txn.put(key, value)
        return txn.commit()

    def get(self, key: Any, default: Any = None) -> Any:
        """Single-read autocommit transaction."""
        return self._read_once(lambda txn: txn.get(key, default=default))

    def get_many(self, keys: Iterable[Any], default: Any = None) -> List[Any]:
        """Batch-read autocommit transaction (one READ_MANY frame)."""
        return self._read_once(lambda txn: txn.get_many(keys, default=default))

    def _read_once(self, read: Callable[[ClientTransaction], Any]) -> Any:
        txn = self.begin(read_only=True)
        try:
            return read(txn)
        finally:
            if txn.status == "active":
                txn.commit()

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Polite close: BYE (best effort; the server answers, then drops
        the link), then drop the socket."""
        try:
            self._call("BYE", {})
        except (NetworkError, OSError):
            pass  # already closed included
        self._channel.abandon()
        self._drop()

    def __enter__(self) -> "TardisClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return "<%s session=%s site=%s%s>" % (
            type(self).__name__,
            self.session,
            self.site,
            " closed" if self._channel.closed else "",
        )
