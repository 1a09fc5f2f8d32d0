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

Every call is written once, here, over ``self._call(op, fields,
parse)``: it returns the parsed value on :class:`TardisClient` and an
awaitable of it on :class:`~repro.client.aio.AsyncTardisClient`. The
protocol itself (numbering, pairing, push frames, error mapping) is
:class:`~repro.server.protocol.ClientChannel`; a client only moves bytes.

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
from typing import Any, Callable, Dict, List, Optional

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
#: ``_call``'s hooks: response -> the call's value; what a raise updates.
_Parse = Callable[[_Json], Any]
_OnError = Optional[Callable[[BaseException], None]]


def _whole(response: _Json) -> _Json:
    return response


def _nothing(response: _Json) -> None:
    return None


class _BaseClientTransaction:
    """The calls and bookkeeping of every transaction handle, sync or
    async (each call returns what the client's ``_call`` returns)."""

    def __init__(
        self, client: "_BaseClient", txn_id: Optional[int], begin: Optional[_Json] = None
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

    def _request(
        self,
        op: str,
        fields: _Json,
        parse: _Parse,
        on_error: _OnError = None,
        carry: Optional[int] = None,
    ) -> Any:
        """One frame of this transaction: ``fields`` plus the BEGIN when
        nothing was sent yet, plus the buffered writes (the first
        ``carry`` of them; all by default). Writes leave the buffer for
        good only when the server answers ``ok``: a request that cannot
        be framed, or an error answer that leaves the transaction open,
        puts them back (resending applied writes changes nothing)."""
        self._check_active()
        begin, pending = self._begin, self._writes
        writes = pending if carry is None else pending[:carry]
        if begin is None:
            fields["txn"] = self._txn_id
        else:
            fields["begin"] = begin
        if writes:
            fields["writes"] = writes
            self._writes = pending[len(writes) :]

        def answered(response: _Json) -> Any:
            if begin is not None:
                self._begin = None
                self._txn_id = response["txn"]
                self.read_state = response["read_state"]
            return parse(response)

        def refused(exc: BaseException) -> None:
            if begin is not None:
                # BEGIN + op fail as a unit: the server kept nothing open.
                self.status = "aborted"
                return
            if on_error is not None:
                on_error(exc)
            if self.status == "active":
                self._writes[:0] = writes

        try:
            frame = self._client._frame(op, fields)
        except (TypeError, ValueError, FrameTooLarge) as exc:
            self._writes[:0] = writes
            if not isinstance(exc, FrameTooLarge) or len(writes) < 2:
                raise
            # More buffered than one frame holds: ship the first half as
            # WRITE frame(s), then this request with what is left.
            for name in ("begin", "txn", "writes"):
                fields.pop(name, None)
            half = len(writes) // 2
            rest = None if carry is None else len(writes) - half
            return self._client._then(
                self._request("WRITE", {}, _nothing, None, half),
                lambda: self._request(op, fields, parse, on_error, rest),
            )
        return self._client._exchange(frame, answered, refused)

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        def parse(response: _Json) -> Any:
            if response["found"]:
                return response["value"]
            if default is _RAISE:
                raise KeyNotFound(key)
            return default

        return self._request("READ", {"key": key}, parse)

    def get_many(self, keys: List[Any], default: Any = _RAISE) -> Any:
        """Batch read: one READ_MANY round trip for the whole key list.

        Against a shard-partitioned server the batch fans out across the
        shard workers in parallel, so this is the wire API that actually
        exercises the scatter/gather read path.
        """

        def parse(response: _Json) -> List[Any]:
            values = []
            for key, found, value in zip(keys, response["found"], response["values"]):
                if not found:
                    if default is _RAISE:
                        raise KeyNotFound(key)
                    value = default
                values.append(value)
            return values

        return self._request("READ_MANY", {"keys": list(keys)}, parse)

    def _buffer(self, write: _Json) -> Any:
        """``put``/``delete``: no frame; the next request carries it."""
        self._check_active()
        if self.read_only:
            raise exception_for(error_response(None, "READ_ONLY"))
        self._writes.append(write)
        self._wrote = True
        return self._client._ready(None)

    def put(self, key: Any, value: Any) -> Any:
        return self._buffer({"key": key, "value": value})

    def delete(self, key: Any) -> Any:
        return self._buffer({"key": key, "delete": True})

    def commit(self, constraint: Optional[str] = None) -> Any:
        """Commit; returns the commit state's id repr. The handle turns
        ``aborted`` only when the server says the transaction is over
        (or never opened: a failed first request) — any other error
        (``BAD_CONSTRAINT``...) leaves it ``active``. Write-free, begun and
        naming no constraint, the answer is the read state held (§6.1.4: no
        state, no conflict); the connection's next frame tells the server."""

        def parse(response: _Json) -> str:
            self.status = "committed"
            self.commit_state = response["commit_state"]
            return response["commit_state"]

        if constraint is None and self.read_state is not None and not self._wrote:
            self._check_active()
            self._client._closed.append(self._txn_id)
            return self._client._ready(parse({"commit_state": self.read_state}))
        fields: Dict[str, Any] = {}
        if constraint is not None:
            fields["constraint"] = constraint

        def on_error(exc: BaseException) -> None:
            if isinstance(exc, (TransactionAborted, TransactionClosed)):
                self.status = "aborted"

        return self._request("COMMIT", fields, parse, on_error)

    def abort(self) -> Any:
        """Abort, dropping the buffered writes; local when no request
        of this transaction ever reached the server."""
        self._writes = []
        if self._begin is not None and self.status == "active":
            self.status = "aborted"
            return self._client._ready(None)

        def parse(response: _Json) -> None:
            self.status = "aborted"

        return self._request("ABORT", {}, parse)

    def __repr__(self) -> str:
        return "<%s txn=%s %s>" % (type(self).__name__, self._txn_id, self.status)


class _SingleMode(_BaseClientTransaction):
    """A single-mode handle: it knows the snapshot it reads (``read_state``)."""


class _MergeMode(_BaseClientTransaction):
    """What a merge handle knows: the reconciliation context."""

    def __init__(self, client: "_BaseClient", response: _Json) -> None:
        super().__init__(client, response["txn"])
        self.parents: List[str] = response["parents"]
        self.fork_points: List[str] = response["fork_points"]
        self.conflicts: List[_Json] = response["conflicts"]


class _SyncContext:
    """``with`` support: commit on a clean exit, abort on an exception."""

    def __enter__(self) -> Any:
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status == "active":
            self.commit() if exc_type is None else self.abort()


class ClientTransaction(_SyncContext, _SingleMode):
    """A single-mode transaction over the wire."""


class ClientMergeTransaction(_SyncContext, _MergeMode):
    """A merge transaction over the wire.

    The server computes the reconciliation context at MERGE time:
    ``parents`` (the branch heads being merged), ``fork_points``, and
    ``conflicts`` — a list of ``{"key", "base", "values"}`` dicts, one
    per key written concurrently on several branches (``base`` is the
    fork-point value for three-way merges). ``put`` the resolved values,
    then ``commit``.
    """


class _BaseClient:
    """One connection/session: the channel and every call. A subclass
    supplies ``_exchange(frame, parse, on_error)`` (move bytes until the
    channel has the response), ``_drop()`` (close the socket), how a
    call that needs no round trip answers (``_ready(value)``) and how
    two calls run in order (``_then(first, rest)``), and the two handle
    classes."""

    _txn_class: Callable[..., _SingleMode]
    _merge_class: Callable[..., _MergeMode]

    def __init__(self) -> None:
        self._channel = ClientChannel()
        #: write-free transactions committed locally since the last frame.
        self._closed: List[int] = []
        #: the session name the server bound this connection to.
        self.session: Optional[str] = None
        #: the server's site name.
        self.site: Optional[str] = None

    def _frame(self, op: str, fields: _Json) -> bytes:
        """Number and encode one request, before anything is sent: one
        that cannot be framed (value not JSON, over the cap) costs an
        id, not the link, nor the ``closed`` list the next frame carries."""
        message = self._channel.request(op, fields)
        if self._closed:
            message["closed"] = self._closed
        frame = encode_frame(message)
        self._closed = []
        return frame

    def _call(
        self, op: str, fields: _Json, parse: _Parse, on_error: _OnError = None
    ) -> Any:
        """One round trip: the parsed answer (an awaitable of it on the
        async client)."""
        return self._exchange(self._frame(op, fields), parse, on_error)

    def _failed(self, exc: BaseException, on_error: _OnError) -> None:
        """A round trip raised. An error *answer* leaves the connection
        usable. A request still in flight (timeout, cancellation) cannot
        be taken back — its answer would be read as the next request's —
        so that loses the connection like EOF or an id mismatch: drop the
        socket, and the server's disconnect cleanup aborts what was open."""
        if self._channel.awaiting is not None:
            self._channel.abandon()
        if self._channel.closed:
            self._drop()
        elif on_error is not None:
            on_error(exc)

    def _hello(self, session: Optional[str]) -> Any:
        def parse(response: _Json) -> "_BaseClient":
            self.session = response["session"]
            self.site = response["site"]
            return self

        fields = {"session": session, "protocol": PROTOCOL_VERSION}
        return self._call("HELLO", fields, parse)

    # -- transactions -----------------------------------------------------

    def begin(self, read_only: bool = False, constraint: Optional[str] = None) -> Any:
        """A transaction handle; constraint is a begin-constraint name
        (``ancestor``, ``any``, ``parent``; server default: ancestor).
        Nothing is sent: the handle's first request carries the BEGIN,
        and the server picks the snapshot when that request arrives."""
        fields: Dict[str, Any] = {"read_only": read_only}
        if constraint is not None:
            fields["constraint"] = constraint
        return self._ready(self._txn_class(self, None, fields))

    def merge(self) -> Any:
        """Start a merge transaction over the current branch heads."""
        return self._call("MERGE", {}, lambda r: self._merge_class(self, r))

    def stats(self) -> Any:
        """Server + store counters (see docs/internals.md §12)."""
        return self._call("STATS", {}, lambda r: r["stats"])

    # -- live observability (docs/internals.md §14) -----------------------

    def obs_snapshot(self, tail: Optional[int] = None) -> Any:
        """One observability snapshot (series tails cut to ``tail``)."""
        fields = {} if tail is None else {"tail": tail}
        return self._call("OBS_SNAPSHOT", fields, lambda r: r["snapshot"])

    def subscribe_obs(self) -> Any:
        """Start the push stream; returns ``{interval_s, tail, resumed}``.

        Raises :class:`~repro.errors.ServerError` with code
        ``OBS_UNAVAILABLE`` when the server runs no live sampler. After
        subscribing, drain frames with ``next_obs_frame`` — ordinary
        requests keep working, pushes are diverted internally.
        """
        return self._call("OBS_SUBSCRIBE", {}, _whole)

    def unsubscribe_obs(self) -> Any:
        """Stop the stream; returns ``{subscribed, frames, dropped}``."""
        return self._call("OBS_UNSUBSCRIBE", {}, _whole)

    def _bye(self) -> Any:
        """The polite half of ``close``: the server answers, then drops
        the link (callers treat any failure as already closed)."""
        return self._call("BYE", {}, _nothing)

    def __repr__(self) -> str:
        return "<%s session=%s site=%s%s>" % (
            type(self).__name__,
            self.session,
            self.site,
            " closed" if self._channel.closed else "",
        )


class TardisClient(_BaseClient):
    """A blocking-socket client for one TARDiS server connection."""

    _txn_class = ClientTransaction
    _merge_class = ClientMergeTransaction
    # benchmarks/e2e/tracewrap.py patches these two through
    # ``TardisClient.__dict__``, so they must be bound on this class; a
    # later ``benchmark`` PR can point it at ``_BaseClient`` and drop this.
    begin = _BaseClient.begin
    merge = _BaseClient.merge

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7145,
        session: Optional[str] = None,
        timeout: float = 10.0,
    ) -> None:
        super().__init__()
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.timeout = timeout
        try:
            self._hello(session)
        except BaseException:
            # Refused (SESSION_IN_USE, SERVER_BUSY, ...): no client comes
            # of it, so nobody else would give the server its slot back.
            self._drop()
            raise

    # -- plumbing ---------------------------------------------------------

    def _exchange(self, frame: bytes, parse: _Parse, on_error: _OnError) -> Any:
        channel = self._channel
        try:
            self._sock.sendall(frame)
            response = channel.response()
            while response is None:
                channel.feed(self._sock.recv(65536))
                response = channel.response()
        except BaseException as exc:
            self._failed(exc, on_error)
            raise
        return parse(response)

    def _ready(self, value: Any) -> Any:
        return value

    def _then(self, first: Any, rest: Callable[[], Any]) -> Any:
        return rest()

    def _drop(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    # -- autocommit convenience -------------------------------------------

    def put(self, key: Any, value: Any) -> str:
        """Single-write autocommit transaction; returns the commit state."""
        txn = self.begin()
        txn.put(key, value)
        return txn.commit()

    def get(self, key: Any, default: Any = None) -> Any:
        """Single-read autocommit transaction."""
        return self._read_once(lambda txn: txn.get(key, default=default))

    def get_many(self, keys: List[Any], default: Any = None) -> List[Any]:
        """Batch-read autocommit transaction (one READ_MANY frame)."""
        return self._read_once(lambda txn: txn.get_many(keys, default=default))

    def _read_once(self, read: Callable[[ClientTransaction], Any]) -> Any:
        txn = self.begin(read_only=True)
        try:
            return read(txn)
        finally:
            if txn.status == "active":
                txn.commit()

    def next_obs_frame(self, timeout: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The next push frame, or None when ``timeout`` elapses first.

        Returns the whole wire frame: ``{"push": "obs", "seq", "dropped",
        "snapshot"}``. Frames already diverted by an interleaved request
        are served before the socket is read again.
        """
        channel = self._channel
        frame = channel.push()
        if frame is not None:
            return frame
        previous = self._sock.gettimeout()
        self._sock.settimeout(timeout if timeout is not None else previous)
        try:
            while frame is None:
                try:
                    channel.feed(self._sock.recv(65536))
                except socket.timeout:
                    return None
                frame = channel.push()
            return frame
        finally:
            try:
                self._sock.settimeout(previous)
            except OSError:
                pass

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Polite close: BYE (best effort), then drop the socket."""
        try:
            self._bye()
        except (NetworkError, OSError):
            pass  # already closed included
        self._channel.abandon()
        self._drop()

    def __enter__(self) -> "TardisClient":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()
