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

Every one-round-trip call is written once, here, as ``self._call(op,
fields, parse)``: it returns the parsed value on :class:`TardisClient`
and an awaitable of it on :class:`~repro.client.aio.AsyncTardisClient`.
The protocol itself (numbering, pairing, push frames, error mapping) is
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

from repro.errors import KeyNotFound, NetworkError, TransactionAborted, TransactionClosed
from repro.server.protocol import PROTOCOL_VERSION, ClientChannel, encode_frame

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

    def __init__(self, client: "_BaseClient", txn_id: int) -> None:
        self._client = client
        self._txn_id = txn_id
        self.status = "active"
        #: state id repr of the commit state, once committed.
        self.commit_state: Optional[str] = None

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        def parse(response: _Json) -> Any:
            if response["found"]:
                return response["value"]
            if default is _RAISE:
                raise KeyNotFound(key)
            return default

        return self._client._call("READ", {"txn": self._txn_id, "key": key}, parse)

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

        fields = {"txn": self._txn_id, "keys": list(keys)}
        return self._client._call("READ_MANY", fields, parse)

    def _write(self, fields: Dict[str, Any]) -> Any:
        fields["txn"] = self._txn_id
        return self._client._call("WRITE", fields, _nothing)

    def put(self, key: Any, value: Any) -> Any:
        return self._write({"key": key, "value": value})

    def delete(self, key: Any) -> Any:
        return self._write({"key": key, "delete": True})

    def commit(self, constraint: Optional[str] = None) -> Any:
        """Commit; returns the commit state's id repr. The handle turns
        ``aborted`` only when the server says the transaction is over —
        any other error (``BAD_CONSTRAINT``...) leaves it ``active``."""
        fields: Dict[str, Any] = {"txn": self._txn_id}
        if constraint is not None:
            fields["constraint"] = constraint

        def parse(response: _Json) -> str:
            self.status = "committed"
            self.commit_state = response["commit_state"]
            return response["commit_state"]

        def on_error(exc: BaseException) -> None:
            if isinstance(exc, (TransactionAborted, TransactionClosed)):
                self.status = "aborted"

        return self._client._call("COMMIT", fields, parse, on_error)

    def abort(self) -> Any:
        def parse(response: _Json) -> None:
            self.status = "aborted"

        return self._client._call("ABORT", {"txn": self._txn_id}, parse)

    def __repr__(self) -> str:
        return "<%s txn=%d %s>" % (type(self).__name__, self._txn_id, self.status)


class _SingleMode(_BaseClientTransaction):
    """What a single-mode handle knows: the snapshot it reads."""

    def __init__(self, client: "_BaseClient", response: _Json) -> None:
        super().__init__(client, response["txn"])
        #: state id repr of the snapshot this transaction reads.
        self.read_state: str = response["read_state"]


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
    """One connection/session: the channel and every one-round-trip
    call. A subclass supplies ``_call(op, fields, parse, on_error)``
    (move bytes until the channel has the response), ``_drop()`` (close
    the socket) and the two handle classes."""

    _txn_class: Callable[..., _SingleMode]
    _merge_class: Callable[..., _MergeMode]

    def __init__(self) -> None:
        self._channel = ClientChannel()
        #: the session name the server bound this connection to.
        self.session: Optional[str] = None
        #: the server's site name.
        self.site: Optional[str] = None

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
        """Start a transaction; constraint is a begin-constraint name
        (``ancestor``, ``any``, ``parent``; server default: ancestor)."""
        fields: Dict[str, Any] = {"read_only": read_only}
        if constraint is not None:
            fields["constraint"] = constraint
        return self._call("BEGIN", fields, lambda r: self._txn_class(self, r))

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
        self._hello(session)

    # -- plumbing ---------------------------------------------------------

    def _call(
        self, op: str, fields: _Json, parse: _Parse, on_error: _OnError = None
    ) -> Any:
        channel = self._channel
        # Encoded before anything is sent: a request that cannot be
        # framed (value not JSON, over the cap) costs an id, not the link.
        frame = encode_frame(channel.request(op, fields))
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
