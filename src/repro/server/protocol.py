"""The TARDiS wire protocol: length-prefixed JSON frames.

Every message — request or response — is one *frame*:

    +----------------+---------------------------+
    | uint32 (BE)    | UTF-8 JSON object         |
    | payload length | exactly that many bytes   |
    +----------------+---------------------------+

A zero-length frame is invalid, and a declared length above the codec's
cap (:data:`MAX_FRAME`, 1 MiB by default) is rejected *before* the
payload is read, so a hostile or confused peer cannot make the receiver
buffer unbounded data. Both sides close the connection on a framing
error: once the byte stream is torn there is no way to resynchronize.

Requests are JSON objects ``{"id": <int>, "op": "<OP>", ...}``;
responses echo the id: ``{"id": <int>, "ok": true, ...}`` or
``{"id": <int>, "ok": false, "error": {"code", "message"}}``. Requests
on one connection are processed strictly in order, so ``id`` exists for
client-side bookkeeping, not reordering. The full command and error-code
catalogue is specified in docs/internals.md §12. Every frame the server
writes answers a request (or, id ``null``, refuses the connection or a
torn frame just before it closes): there are no server-initiated frames.

Each protocol decision lives here once, for both directions: which ops
exist (:data:`OPS`), which exception is which wire code
(:data:`ERROR_TABLE`), and how a client numbers requests and pairs
responses (:class:`ClientChannel`).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, Optional

from repro.errors import (
    BeginError,
    FrameTooLarge,
    MultipleValuesError,
    NetworkError,
    ProtocolError,
    ReadOnlyViolation,
    ServerError,
    ShardUnavailableError,
    TransactionAborted,
    TransactionClosed,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "HEADER",
    "OPS",
    "ERROR_CODES",
    "ERROR_TABLE",
    "code_for",
    "exception_for",
    "encode_frame",
    "FrameDecoder",
    "ClientChannel",
    "ok_response",
    "error_response",
]

#: bumped on any incompatible change; HELLO negotiates (exact match).
#: 2: a transaction's BEGIN and its buffered writes ride on its next
#: request (``begin`` / ``writes``, docs/internals.md §12.2).
#: 3: a write-free commit rides on the next request (``closed``); no BEGIN op.
#: 4: the obs push stream and its two ops are gone: every frame the
#: server writes answers a request.
PROTOCOL_VERSION = 4

#: default cap on one frame's JSON payload, in bytes.
MAX_FRAME = 1 << 20

#: the 4-byte big-endian unsigned payload-length prefix.
HEADER = struct.Struct(">I")

#: the command verbs (requests carry one as their ``op`` field).
OPS = frozenset(
    {
        "HELLO",   # handshake: bind the connection to a client session
        "READ",    # read a key inside a transaction
        "READ_MANY",  # read a batch of keys in one round trip
        "WRITE",   # buffer writes (or deletes) inside a transaction
        "COMMIT",  # commit a transaction
        "ABORT",   # abort a transaction
        "MERGE",   # start a merge transaction over the current branches
        "STATS",   # server + store counters (health/leak checks)
        "OBS_SNAPSHOT",  # one observability snapshot
        "BYE",     # polite close: server responds, then drops the link
    }
)

#: wire error codes -> meaning. ``BAD_FRAME``/``FRAME_TOO_LARGE`` are
#: connection-fatal (framing is lost); everything else is per-request.
ERROR_CODES: Dict[str, str] = {
    "BAD_FRAME": "payload was not a JSON object, or had a zero length",
    "FRAME_TOO_LARGE": "declared payload length exceeds the server's cap",
    "BAD_REQUEST": "missing or ill-typed request field",
    "UNKNOWN_OP": "the op verb is not in the protocol",
    "NO_HELLO": "a command was issued before the HELLO handshake",
    "ALREADY_HELLO": "a second HELLO was issued on the connection",
    "BAD_VERSION": "the client's protocol version does not match",
    "SESSION_IN_USE": "the session name is bound to another live connection",
    "UNKNOWN_TXN": "the txn id does not name an open transaction",
    "TXN_ABORTED": "the transaction could not commit (end constraint)",
    "TXN_CLOSED": "the transaction already committed or aborted",
    "BEGIN_FAILED": "no state satisfies the begin constraint",
    "KEY_CONFLICT": "the key holds conflicting values across merged branches",
    "READ_ONLY": "a write was issued in a read-only transaction",
    "BAD_CONSTRAINT": "unknown begin/end constraint name",
    "SHARD_UNAVAILABLE": "a shard worker died or timed out serving the request",
    "TIMEOUT": "the request exceeded the server's per-request timeout",
    "SERVER_BUSY": "the server is at its connection cap",
    "SHUTTING_DOWN": "the server is draining and takes no new work",
    "INTERNAL": "unexpected server-side failure",
}

#: the one exception <-> wire code table: the server answers an exception
#: of class ``[0]`` with code ``[1]`` and ``str(exc)`` (:func:`code_for`);
#: a client re-raises ``[2](message)`` for that code, or — ``[2]`` None —
#: a :class:`~repro.errors.ServerError` carrying it (:func:`exception_for`).
#: The four re-raised are what retry loops written against the in-process
#: store catch. Anything unlisted is ``INTERNAL`` out, ``ServerError`` in.
ERROR_TABLE = (
    (TransactionAborted, "TXN_ABORTED", TransactionAborted),
    (TransactionClosed, "TXN_CLOSED", TransactionClosed),
    (BeginError, "BEGIN_FAILED", BeginError),
    # A dead shard worker is a typed, retryable condition, not an
    # opaque INTERNAL (the shard number does not cross the wire).
    (ShardUnavailableError, "SHARD_UNAVAILABLE", lambda m: ShardUnavailableError(None, m)),
    (ReadOnlyViolation, "READ_ONLY", None),
    (MultipleValuesError, "KEY_CONFLICT", None),
)


def code_for(exc: BaseException) -> Optional[str]:
    """The wire code for a server-side exception; None means INTERNAL."""
    for kind, code, _rebuild in ERROR_TABLE:
        if isinstance(exc, kind):
            return code
    return None


def exception_for(response: Dict[str, Any]) -> Exception:
    """Map an error response onto the library's exception hierarchy."""
    error = response.get("error") or {}
    code = error.get("code", "INTERNAL")
    message = error.get("message", "")
    for _kind, known, rebuild in ERROR_TABLE:
        if known == code and rebuild is not None:
            return rebuild(message)
    return ServerError(code, message)


#: one encoder for every frame either side sends (``json.dumps`` with
#: options would build one per call): compact, keys in insertion order.
#: Sorting them cost more than the rest of encoding a small answer, and
#: no reader may rely on key order (docs/internals.md §12.1).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

_raw_decode = json.JSONDecoder().raw_decode


def _decode_json(text: str) -> Any:
    """``json.loads(text)``, without its two whitespace scans when ``text``
    is one document with nothing around it, as every frame either side
    writes is."""
    try:
        value, end = _raw_decode(text)
        if end == len(text):
            return value
    except ValueError:
        pass  # whitespace before it, or not JSON: json.loads says which
    return json.loads(text)


def encode_frame(obj: Dict[str, Any], max_frame: int = MAX_FRAME) -> bytes:
    """Serialize one message to its wire form (header + JSON payload).

    Raises :class:`~repro.errors.FrameTooLarge` when the encoded payload
    exceeds ``max_frame`` — the sender's half of the cap both sides
    enforce.
    """
    payload = _encode_json(obj).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameTooLarge(len(payload), max_frame)
    return HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser for an arbitrarily chunked byte stream.

    ``feed`` bytes as they arrive (any chunking: one byte at a time, or
    several frames fused), then drain complete messages::

        decoder = FrameDecoder()
        decoder.feed(sock.recv(4096))
        for message in decoder.frames():
            handle(message)

    Raises :class:`~repro.errors.FrameTooLarge` as soon as a header
    declares an oversized payload (without buffering it) and
    :class:`~repro.errors.ProtocolError` for zero-length frames,
    undecodable payloads, and non-object documents. After either, the
    stream is unrecoverable and the connection must be closed.
    """

    __slots__ = ("_buffer", "max_frame", "frames_decoded", "bytes_fed")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        #: bytes fed and not yet consumed; a frame leaves it whole.
        self._buffer = bytearray()
        self.max_frame = max_frame
        self.frames_decoded = 0
        self.bytes_fed = 0

    def feed(self, data: bytes) -> None:
        self.bytes_fed += len(data)
        self._buffer.extend(data)

    def pending(self) -> int:
        """Bytes buffered but not yet consumed by a complete frame."""
        return len(self._buffer)

    def next_frame(self) -> Optional[Dict[str, Any]]:
        """The next complete message, or None until more bytes arrive. The
        header is read in place; the payload is copied once, as it leaves
        the buffer, and decoded from that copy."""
        buffer = self._buffer
        if len(buffer) < HEADER.size:
            return None
        (length,) = HEADER.unpack_from(buffer)
        if length == 0:
            raise ProtocolError("zero-length frame")
        if length > self.max_frame:
            raise FrameTooLarge(length, self.max_frame)
        end = HEADER.size + length
        if len(buffer) < end:
            return None
        payload = buffer[HEADER.size : end]
        del buffer[:end]
        try:
            message = _decode_json(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError("undecodable frame payload: %s" % exc)
        if not isinstance(message, dict):
            raise ProtocolError(
                "frame payload must be a JSON object, got %s"
                % type(message).__name__
            )
        self.frames_decoded += 1
        return message

    def frames(self) -> Iterator[Dict[str, Any]]:
        """Drain every complete message currently buffered."""
        while True:
            message = self.next_frame()
            if message is None:
                return
            yield message


class ClientChannel:
    """The client role of the protocol as a socket-free state machine.

    The owner moves bytes — send ``encode_frame(channel.request(op,
    fields))``, then ``feed`` what arrives until ``response()`` is not
    None — and the channel decides the rest: numbering, pairing, error
    mapping, and when the connection is lost. Requests are answered
    strictly in order, so one is in flight at a time (``awaiting`` is its
    id), and every frame must be the answer to it. The channel goes
    permanently ``closed`` (later requests and reads raise
    ``NetworkError``) on a frame whose id is not the awaited one, a torn
    frame, EOF (``feed(b"")``) and :meth:`abandon`: a stream that lost
    its pairing cannot be resynchronized, only dropped.
    """

    __slots__ = ("_decoder", "_next_id", "awaiting", "closed")

    def __init__(self) -> None:
        self._decoder = FrameDecoder()
        self._next_id = 1
        #: id of the request in flight; None between round trips.
        self.awaiting: Optional[int] = None
        self.closed = False

    def request(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Number one request and return the message for the caller to
        encode and send. An op outside :data:`OPS` never leaves."""
        if self.closed:
            raise NetworkError("client is closed")
        if op not in OPS:
            raise ValueError("op %r is not in the protocol" % (op,))
        message: Dict[str, Any] = {"id": self._next_id, "op": op}
        message.update(fields)
        self.awaiting = self._next_id
        self._next_id += 1
        return message

    def feed(self, data: bytes) -> None:
        """Bytes from the peer; ``b""`` means it closed the connection."""
        if not data:
            self.closed = True
            raise NetworkError("server closed the connection")
        self._decoder.feed(data)

    def abandon(self) -> None:
        """Give the connection up: the owner is closing, or a request
        timed out mid-flight and its answer would pair with the next."""
        self.closed = True

    def response(self) -> Optional[Dict[str, Any]]:
        """The awaited response, or None until more bytes arrive. An
        error response raises its exception (:func:`exception_for`) and
        leaves the channel usable — the server answered."""
        if self.closed:
            raise NetworkError("client is closed")
        try:
            frame = self._decoder.next_frame()
        except ProtocolError:
            self.closed = True
            raise
        if frame is None:
            return None
        awaited, self.awaiting = self.awaiting, None
        if awaited is None or frame.get("id") != awaited:
            self.closed = True
            raise NetworkError(
                "response id %r does not match request id %r (protocol is ordered)"
                % (frame.get("id"), awaited)
            )
        if frame.get("ok", False):
            return frame
        raise exception_for(frame)


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id: Any, code: str, message: str = "") -> Dict[str, Any]:
    if code not in ERROR_CODES:
        raise ValueError("unknown error code: %r" % (code,))
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message or ERROR_CODES[code]},
    }
