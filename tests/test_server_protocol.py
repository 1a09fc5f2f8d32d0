"""Wire-protocol codec tests: framing round trips, fuzz, failure modes."""

import json
import random
import re
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TardisStore
from repro.errors import (
    BeginError,
    FrameTooLarge,
    MultipleValuesError,
    NetworkError,
    ProtocolError,
    ServerError,
    ShardUnavailableError,
    TransactionAborted,
)
from repro.server import TardisServer, handlers, protocol
from repro.server.handlers import HANDLERS, WireSession
from repro.server.protocol import (
    ERROR_CODES,
    ERROR_TABLE,
    HEADER,
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    ClientChannel,
    FrameDecoder,
    code_for,
    encode_frame,
    error_response,
    exception_for,
    ok_response,
)


class TestEncodeFrame:
    def test_round_trip_simple(self):
        frame = encode_frame({"id": 1, "op": "HELLO"})
        decoder = FrameDecoder()
        decoder.feed(frame)
        assert decoder.next_frame() == {"id": 1, "op": "HELLO"}
        assert decoder.next_frame() is None
        assert decoder.pending() == 0

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        assert json.loads(frame[4:]) == {"a": 1}

    def test_unicode_and_nesting_round_trip(self):
        obj = {
            "id": 7,
            "op": "WRITE",
            "key": "clé-☃",
            "value": {"nested": [1, 2.5, None, True, "日本語"]},
        }
        decoder = FrameDecoder()
        decoder.feed(encode_frame(obj))
        assert decoder.next_frame() == obj

    def test_oversized_encode_raises(self):
        with pytest.raises(FrameTooLarge) as exc_info:
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})
        assert exc_info.value.size > exc_info.value.limit

    def test_custom_max_frame(self):
        encode_frame({"k": "v"}, max_frame=64)
        with pytest.raises(FrameTooLarge):
            encode_frame({"k": "v" * 100}, max_frame=64)


class TestFrameDecoder:
    def test_byte_at_a_time_feed(self):
        obj = {"id": 3, "op": "READ", "key": "x"}
        frame = encode_frame(obj)
        decoder = FrameDecoder()
        for i, byte in enumerate(frame):
            decoder.feed(bytes([byte]))
            if i < len(frame) - 1:
                assert decoder.next_frame() is None
        assert decoder.next_frame() == obj

    def test_multiple_frames_in_one_feed(self):
        objs = [{"id": i, "op": "STATS"} for i in range(5)]
        decoder = FrameDecoder()
        decoder.feed(b"".join(encode_frame(o) for o in objs))
        assert list(decoder.frames()) == objs
        assert decoder.frames_decoded == 5

    def test_partial_header_then_rest(self):
        frame = encode_frame({"id": 9})
        decoder = FrameDecoder()
        decoder.feed(frame[:2])
        assert decoder.next_frame() is None
        decoder.feed(frame[2:])
        assert decoder.next_frame() == {"id": 9}

    def test_oversized_header_rejected_before_payload(self):
        decoder = FrameDecoder()
        decoder.feed(HEADER.pack(MAX_FRAME + 1))
        with pytest.raises(FrameTooLarge):
            decoder.next_frame()

    def test_zero_length_frame_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(HEADER.pack(0))
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_garbage_payload_rejected(self):
        payload = b"\xff\xfe not json"
        decoder = FrameDecoder()
        decoder.feed(HEADER.pack(len(payload)) + payload)
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        decoder = FrameDecoder()
        decoder.feed(HEADER.pack(len(payload)) + payload)
        with pytest.raises(ProtocolError):
            decoder.next_frame()

    def test_fuzz_random_chunking_round_trips(self):
        rng = random.Random(42)
        objs = [
            {"id": i, "op": "WRITE", "key": "k%d" % i, "value": "v" * rng.randrange(200)}
            for i in range(50)
        ]
        blob = b"".join(encode_frame(o) for o in objs)
        decoder = FrameDecoder()
        out = []
        position = 0
        while position < len(blob):
            step = rng.randrange(1, 37)
            decoder.feed(blob[position : position + step])
            position += step
            out.extend(decoder.frames())
        assert out == objs
        assert decoder.bytes_fed == len(blob)

    def test_fuzz_random_garbage_never_hangs(self):
        # Garbage must either decode, return None (need more data), or
        # raise a ProtocolError subclass -- never anything else.
        rng = random.Random(7)
        for _ in range(200):
            decoder = FrameDecoder()
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            decoder.feed(blob)
            try:
                while decoder.next_frame() is not None:
                    pass
            except ProtocolError:
                pass


class TestResponseHelpers:
    def test_ok_response_shape(self):
        response = ok_response(4, value=10)
        assert response == {"id": 4, "ok": True, "value": 10}

    def test_error_response_shape(self):
        response = error_response(4, "UNKNOWN_TXN", "no txn 9")
        assert response == {
            "id": 4,
            "ok": False,
            "error": {"code": "UNKNOWN_TXN", "message": "no txn 9"},
        }

    def test_error_response_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            error_response(1, "NOT_A_CODE", "nope")

    def test_catalogued_codes_and_ops(self):
        assert "HELLO" in OPS and "MERGE" in OPS and "BEGIN" not in OPS
        for code in ("BAD_FRAME", "TIMEOUT", "SHUTTING_DOWN", "INTERNAL"):
            assert code in ERROR_CODES
        assert PROTOCOL_VERSION == 4


# ---------------------------------------------------------------------------
# The client role, sans-IO: no sockets, no threads.


def _feed_chunked(channel, blob, rng):
    """Yield after each randomly sized chunk of ``blob`` is fed."""
    position = 0
    while position < len(blob):
        step = rng.randrange(1, 37)
        channel.feed(blob[position : position + step])
        position += step
        yield


class TestClientChannel:
    @pytest.mark.parametrize("seed", range(5))
    def test_fuzz_pairs_responses_whatever_the_chunking(self, seed):
        rng = random.Random(seed)
        n = 40
        # The server's side of the stream: response i answers request i.
        stream = [ok_response(i, value="v" * rng.randrange(150)) for i in range(1, n + 1)]
        blob = b"".join(encode_frame(frame) for frame in stream)

        channel = ClientChannel()
        feeder = _feed_chunked(channel, blob, rng)
        responses = []
        for i in range(1, n + 1):
            request = channel.request("STATS", {})
            assert request == {"id": i, "op": "STATS"}
            response = channel.response()
            while response is None:
                next(feeder)
                response = channel.response()
            assert channel.awaiting is None
            responses.append(response)
        assert responses == stream
        assert next(feeder, "drained") == "drained" and not channel.closed

    def test_byte_at_a_time(self):
        channel = ClientChannel()
        channel.request("STATS", {})
        for byte in encode_frame(ok_response(1)):
            assert channel.response() is None
            channel.feed(bytes([byte]))
        assert channel.response() == {"id": 1, "ok": True}

    @pytest.mark.parametrize(
        "stray",
        [
            {"push": "obs", "seq": 1, "dropped": 0, "snapshot": {}},
            {"ok": True},
            error_response(None, "SERVER_BUSY"),
        ],
        ids=["push-frame", "no-id", "null-id"],
    )
    def test_a_frame_that_does_not_answer_the_request_closes(self, stray):
        # There are no server-initiated frames: whatever arrives in place
        # of the awaited answer means the pairing is lost.
        channel = ClientChannel()
        channel.request("STATS", {})
        channel.feed(encode_frame(stray) + encode_frame(ok_response(1)))
        with pytest.raises(NetworkError, match="does not match"):
            channel.response()
        self._assert_closed(channel)

    def test_public_surface_is_request_response_only(self):
        public = {name for name in dir(ClientChannel) if not name.startswith("_")}
        assert public == {"request", "feed", "response", "abandon", "awaiting", "closed"}

    def test_request_refuses_an_op_outside_the_catalogue(self):
        channel = ClientChannel()
        with pytest.raises(ValueError):
            channel.request("FROB", {})
        # Nothing was numbered: the next request is still id 1.
        assert channel.request("HELLO", {})["id"] == 1

    def test_error_response_raises_and_leaves_the_channel_usable(self):
        channel = ClientChannel()
        channel.request("COMMIT", {"txn": 1})
        channel.feed(encode_frame(error_response(1, "TXN_ABORTED", "lost the race")))
        with pytest.raises(TransactionAborted, match="lost the race"):
            channel.response()
        assert not channel.closed and channel.awaiting is None
        channel.request("READ", {"begin": {}, "key": "x"})
        channel.feed(encode_frame(error_response(2, "BAD_CONSTRAINT")))
        with pytest.raises(ServerError) as exc_info:
            channel.response()
        assert exc_info.value.code == "BAD_CONSTRAINT"
        assert not channel.closed

    def _assert_closed(self, channel):
        assert channel.closed
        for call in (lambda: channel.request("STATS", {}), channel.response):
            with pytest.raises(NetworkError):
                call()

    def test_wrong_id_closes(self):
        channel = ClientChannel()
        channel.request("STATS", {})
        channel.feed(encode_frame(ok_response(7)))
        with pytest.raises(NetworkError, match="does not match"):
            channel.response()
        self._assert_closed(channel)

    def test_response_with_no_request_in_flight_closes(self):
        channel = ClientChannel()
        channel.feed(encode_frame(ok_response(1)))
        with pytest.raises(NetworkError):
            channel.response()
        self._assert_closed(channel)

    def test_eof_closes(self):
        channel = ClientChannel()
        channel.request("STATS", {})
        channel.feed(encode_frame(ok_response(1))[:3])
        assert channel.response() is None
        with pytest.raises(NetworkError, match="closed the connection"):
            channel.feed(b"")
        self._assert_closed(channel)

    def test_torn_frame_closes(self):
        channel = ClientChannel()
        channel.request("STATS", {})
        channel.feed(HEADER.pack(MAX_FRAME + 1))
        with pytest.raises(FrameTooLarge):
            channel.response()
        self._assert_closed(channel)

    def test_calls_after_abandon_raise(self):
        channel = ClientChannel()
        channel.request("READ", {"begin": {}, "key": "x"})
        channel.abandon()
        with pytest.raises(NetworkError, match="client is closed"):
            channel.request("STATS", {})
        self._assert_closed(channel)


class TestErrorTable:
    def test_both_directions_agree(self):
        samples = {
            "TXN_ABORTED": TransactionAborted("x"),
            "BEGIN_FAILED": BeginError("x"),
            "SHARD_UNAVAILABLE": ShardUnavailableError(3, "x"),
            "KEY_CONFLICT": MultipleValuesError("k", [1, 2]),
        }
        for code, exc in samples.items():
            assert code_for(exc) == code
        assert code_for(KeyError("x")) is None  # INTERNAL
        assert {code for _kind, code, _rebuild in ERROR_TABLE} <= set(ERROR_CODES)
        # Exactly four codes come back as in-process exceptions; the
        # rest, listed or not, are ServerError carrying the code.
        reraised = sorted(code for _kind, code, rebuild in ERROR_TABLE if rebuild)
        assert reraised == ["BEGIN_FAILED", "SHARD_UNAVAILABLE", "TXN_ABORTED", "TXN_CLOSED"]
        for kind, code, rebuild in ERROR_TABLE:
            exc = exception_for(error_response(1, code, "why"))
            if rebuild is None:
                assert type(exc) is ServerError and exc.code == code
            else:
                assert type(exc) is kind and "why" in str(exc)
        assert exception_for(error_response(1, "TIMEOUT")).code == "TIMEOUT"


# ---------------------------------------------------------------------------
# The handler table, and the guard that splitting the server along its
# thread boundary changed no byte on the wire.


class TestHandlerTable:
    def test_handlers_cover_exactly_the_catalogue(self):
        assert set(HANDLERS) == OPS

    def test_import_time_check_fires_on_a_seeded_mismatch(self, monkeypatch):
        import importlib

        monkeypatch.setattr(protocol, "OPS", OPS | {"FROB"})
        try:
            with pytest.raises(ImportError, match="FROB"):
                importlib.reload(handlers)
        finally:
            monkeypatch.undo()
            importlib.reload(handlers)
        assert set(handlers.HANDLERS) == OPS

    @pytest.mark.parametrize("op", ["BEGIN", "OBS_SUBSCRIBE", "OBS_UNSUBSCRIBE"])
    def test_a_deleted_op_is_unknown(self, op):
        _server, session = _session()
        answer = session.handle({"id": 1, "op": op})
        assert answer["error"]["code"] == "UNKNOWN_OP"
        # The connection is no worse for it.
        assert session.handle({"id": 2, "op": "STATS"})["ok"]

    def test_handle_never_raises_on_junk(self):
        session = WireSession(TardisServer(TardisStore("junk")), 1)
        for request in ({}, {"op": None}, {"op": ["READ"]}, {"op": "READ"}, {"id": []}):
            response = session.handle(request)
            assert response["ok"] is False
        assert session.handle({"op": "FROB"})["error"]["code"] == "UNKNOWN_OP"
        assert session.handle({"op": "STATS"})["error"]["code"] == "NO_HELLO"

    def test_handle_answers_the_oracle_script_as_the_socket_path_does(self):
        from tests.test_obs_live import TestSamplerOffEquivalence as oracle

        served = TardisServer(site="oracle").start()
        try:
            wire = oracle._run_script(served.port)
        finally:
            served.shutdown()
        # No socket, no loop, no thread: an unstarted server and the
        # session object the read loop would have driven.
        session = WireSession(TardisServer(TardisStore("oracle")), 1)
        direct = []
        for i, fields in enumerate(oracle.SCRIPT, start=1):
            response = session.handle(dict(fields, id=i))
            direct.append(encode_frame(response)[HEADER.size :])
        assert direct == wire
        assert session.close() == 0


# ---------------------------------------------------------------------------
# The wire contract across artefacts: the codes the server emits, the
# catalogues, and the op and code tables of docs/internals.md §12.2.

_EMITTERS = [Path(handlers.__file__).with_name("server.py"), Path(handlers.__file__)]
_INTERNALS = Path(__file__).resolve().parent.parent / "docs" / "internals.md"
#: the code at an emission site: ``RequestError("X"`` / ``error_response(id, "X"``.
_EMITTED = re.compile(r'(?:RequestError\(|error_response\([^,]*,)\s*"([A-Z][A-Z0-9_]*)"')
_CAPS_LITERAL = re.compile(r'"([A-Z][A-Z0-9_]*)"')
_ROW = re.compile(r"^\|\s*`([A-Z][A-Z0-9_]*)`\s*\|")


def _doc_tables(doc):
    """'op' / 'code' -> the backticked first cells of every markdown
    table whose first header cell is that word."""
    tables = {"op": set(), "code": set()}
    rows = None  # where this table's rows go; False: a table of something else
    for line in doc.splitlines():
        if not line.startswith("|"):
            rows = None
        elif rows is None:
            rows = tables.get(line.split("|")[1].strip().strip("`").lower(), False)
        elif rows is not False:
            match = _ROW.match(line)
            if match:
                rows.add(match.group(1))
    return tables


def _wire_drift(ops, codes, table, sources, doc):
    """Every disagreement between the catalogues and what uses them.

    A code is live when some emitter names it in a literal (several are
    picked into a variable first) or ``ERROR_TABLE`` maps an exception
    onto it."""
    emitted = {code for _kind, code, _rebuild in table}
    literals = set(emitted)
    for text in sources:
        emitted.update(_EMITTED.findall(text))
        literals.update(_CAPS_LITERAL.findall(text))
    tables = _doc_tables(doc)
    drift = ["%s emitted but not in ERROR_CODES" % c for c in sorted(emitted - set(codes))]
    drift += ["%s in ERROR_CODES but emitted nowhere" % c for c in sorted(set(codes) - literals)]
    for header, catalogue in (("op", set(ops)), ("code", set(codes))):
        drift += [
            "%s %s in only one of the docs table and the catalogue" % (header, token)
            for token in sorted(tables[header] ^ catalogue)
        ]
    return drift


def _wire_inputs():
    return {
        "ops": OPS,
        "codes": ERROR_CODES,
        "table": ERROR_TABLE,
        "sources": [path.read_text() for path in _EMITTERS],
        "doc": _INTERNALS.read_text(),
    }


#: (input, how it drifts, what every reported line must name).
WIRE_DRIFTS = [
    pytest.param(
        "doc", lambda doc: doc.replace("| code | meaning |", "| wire code | meaning |"), "code ",
        id="code-table-missing-from-docs",
    ),
    pytest.param(
        "doc", lambda doc: doc.replace("| `UNKNOWN_OP` |", "| unknown op |"), "UNKNOWN_OP",
        id="code-row-dropped-from-docs",
    ),
    pytest.param(
        "doc", lambda doc: doc.replace("| `INTERNAL` |", "| `GONE_CODE` | x |\n| `INTERNAL` |"),
        "GONE_CODE", id="stale-docs-row",
    ),
    pytest.param(
        "doc", lambda doc: doc.replace("| `HELLO` |", "| `BEGIN` | x | x |\n| `HELLO` |"),
        "BEGIN", id="deleted-op-back-in-docs",
    ),
    pytest.param(
        "sources", lambda sources: sources + ['raise RequestError("MADE_UP")'], "MADE_UP",
        id="rogue-request-error",
    ),
    pytest.param(
        "codes", lambda codes: dict(codes, NEVER_SENT="dead"), "NEVER_SENT",
        id="catalogued-code-never-emitted",
    ),
    pytest.param(
        "table", lambda table: table + ((KeyError, "TXN_GONE", None),), "TXN_GONE",
        id="error-table-code-outside-catalogue",
    ),
]


class TestWireContract:
    def test_catalogues_emitters_and_docs_agree(self):
        assert _wire_drift(**_wire_inputs()) == []

    @pytest.mark.parametrize("field, seed, token", WIRE_DRIFTS)
    def test_seeded_drift_is_reported(self, field, seed, token):
        inputs = _wire_inputs()
        inputs[field] = seed(inputs[field])
        drift = _wire_drift(**inputs)
        assert drift and all(token in line for line in drift), drift


# ---------------------------------------------------------------------------
# The piggy-back seam, sans-IO: ``begin`` and ``writes`` ride on any op
# that names a transaction (``WireSession.txn``), and a request that
# began a transaction without answering ``ok`` leaves nothing open.


def _session(site="seam"):
    server = TardisServer(TardisStore(site))
    session = WireSession(server, 1)
    assert session.handle({"id": 0, "op": "HELLO", "session": "s"})["ok"]
    return server, session


def _open_txns(session):
    return session.handle({"op": "STATS"})["stats"]["open_txns"]


class TestPiggyBackedBeginAndWrites:
    def test_begin_rides_on_the_first_read(self):
        _server, session = _session()
        first = session.handle({"id": 1, "op": "READ", "begin": {"read_only": True}, "key": "x"})
        assert first["ok"] and first["found"] is False
        assert first["txn"] == 1 and isinstance(first["read_state"], str)
        # A commit lands in between; the open txn keeps its snapshot.
        session.handle(
            {"op": "COMMIT", "begin": {}, "writes": [{"key": "x", "value": 1}]}
        )
        again = session.handle({"id": 2, "op": "READ", "txn": 1, "key": "x"})
        assert again["ok"] and again["found"] is False
        assert "txn" not in again and "read_state" not in again
        assert session.handle({"op": "COMMIT", "txn": 1})["ok"]
        assert session.txns == {}

    def test_begin_writes_and_commit_in_one_frame(self):
        server, session = _session()
        writes = [
            {"key": "a", "value": 1},
            {"key": "b", "value": 2},
            {"key": "a", "delete": True},
        ]
        answer = session.handle({"id": 1, "op": "COMMIT", "begin": {}, "writes": writes})
        assert answer["ok"] and answer["txn"] == 1 and answer["commit_state"]
        assert server._stats["commits"] == 1
        assert session.txns == {} and _open_txns(session) == 0
        read = session.handle(
            {"op": "READ_MANY", "begin": {"read_only": True}, "keys": ["a", "b"]}
        )
        assert read["found"] == [False, True] and read["values"] == [None, 2]

    def test_writes_are_applied_before_the_read_that_carries_them(self):
        _server, session = _session()
        answer = session.handle(
            {"op": "READ", "begin": {}, "writes": [{"key": "k", "value": 7}], "key": "k"}
        )
        assert answer["found"] is True and answer["value"] == 7

    def test_write_op_is_writes_of_length_one(self):
        _server, session = _session()
        assert session.handle({"op": "WRITE", "begin": {}, "writes": []})["txn"] == 1
        assert session.handle({"op": "WRITE", "txn": 1, "key": "a", "value": 1})["ok"]
        batch = [{"key": "b", "value": 2}, {"key": "c", "value": 3}]
        assert session.handle({"op": "WRITE", "txn": 1, "writes": batch})["ok"]
        read = session.handle({"op": "READ_MANY", "txn": 1, "keys": ["a", "b", "c"]})
        assert read["values"] == [1, 2, 3]

    @pytest.mark.parametrize(
        "bad",
        [
            {"begin": {}, "txn": 1},  # begin comes in place of txn
            {"begin": "yes"},
            {"begin": ["read_only"]},
            {"txn": 1, "writes": {"key": "w", "value": 1}},
            {"txn": 1, "writes": "w"},
            {"txn": 1, "writes": [{"key": "w", "value": 1}, "w"]},
            {"txn": 1, "writes": [{"key": "w", "value": 1}, {"value": 2}]},
            {"txn": 1, "writes": [{"key": "w", "value": 1}, {"key": "v"}]},
            {"txn": 1, "writes": [{"key": "w", "value": 1}, {"key": ["v"], "value": 2}]},
            {"txn": 1, "writes": [{"key": "w", "value": 1}, {"key": {}, "delete": True}]},
        ],
    )
    @pytest.mark.parametrize("op", ["READ", "READ_MANY", "WRITE", "COMMIT"])
    def test_ill_formed_fields_are_bad_request_and_apply_nothing(self, op, bad):
        _server, session = _session()
        assert session.handle({"op": "WRITE", "begin": {}, "writes": []})["txn"] == 1
        request = dict(bad, op=op, key="w", keys=["w"], value=0)
        answer = session.handle(request)
        assert answer["error"]["code"] == "BAD_REQUEST", answer
        # None of the batch was applied, the open txn is untouched and
        # nothing else was opened.
        assert list(session.txns) == [1]
        read = session.handle({"op": "READ", "txn": 1, "key": "w"})
        assert read["ok"] and read["found"] is False

    def test_read_only_begin_refuses_the_whole_batch(self):
        _server, session = _session()
        answer = session.handle(
            {
                "op": "COMMIT",
                "begin": {"read_only": True},
                "writes": [{"key": "a", "value": 1}],
            }
        )
        assert answer["error"]["code"] == "READ_ONLY"
        assert session.txns == {} and _open_txns(session) == 0

    @pytest.mark.parametrize(
        "request_, code",
        [
            ({"op": "READ", "begin": {"constraint": "nope"}, "key": "x"}, "BAD_CONSTRAINT"),
            ({"op": "READ", "begin": {}, "key": ["x"]}, "BAD_REQUEST"),
            ({"op": "READ_MANY", "begin": {}, "keys": "xy"}, "BAD_REQUEST"),
            ({"op": "COMMIT", "begin": {}, "constraint": "nope"}, "BAD_CONSTRAINT"),
            ({"op": "COMMIT", "begin": {}, "writes": [{"key": "x"}]}, "BAD_REQUEST"),
            ({"op": "WRITE", "begin": {}}, "BAD_REQUEST"),
        ],
    )
    def test_begin_plus_op_fails_as_a_unit(self, request_, code):
        server, session = _session()
        answer = session.handle(request_)
        assert answer["error"]["code"] == code
        assert "txn" not in answer
        assert session.txns == {} and _open_txns(session) == 0
        assert all(state.pins == 0 for state in server.store.dag.states())

    def test_piggy_backed_begin_is_refused_while_draining(self):
        server, session = _session()
        server._closing = True
        answer = session.handle({"op": "READ", "begin": {}, "key": "x"})
        assert answer["error"]["code"] == "SHUTTING_DOWN"
        assert session.txns == {} and _open_txns(session) == 0

    def test_a_failing_op_on_an_open_txn_keeps_it_and_its_writes(self):
        _server, session = _session()
        assert session.handle({"op": "READ", "begin": {}, "key": "x"})["txn"] == 1
        answer = session.handle(
            {
                "op": "COMMIT",
                "txn": 1,
                "constraint": "nope",
                "writes": [{"key": "x", "value": 1}],
            }
        )
        assert answer["error"]["code"] == "BAD_CONSTRAINT"
        assert list(session.txns) == [1]
        assert session.handle({"op": "READ", "txn": 1, "key": "x"})["value"] == 1

    def test_a_repeated_request_id_undoes_nothing(self):
        # ``id`` is the client's bookkeeping and may repeat: what a
        # failing request undoes is what *it* began, nothing older.
        _server, session = _session()
        assert session.handle({"id": 7, "op": "READ", "begin": {}, "key": "x"})["txn"] == 1
        assert session.handle({"id": 7, "op": "READ", "txn": 1, "key": ["x"]})["ok"] is False
        assert list(session.txns) == [1]

    def test_writes_on_a_merge_txn(self):
        _server, session = _session()
        other = WireSession(session.server, 2)
        assert other.handle({"op": "HELLO", "session": "t"})["ok"]
        # Both begin before either commits: the second commit forks.
        for who in (session, other):
            assert who.handle({"op": "READ", "begin": {}, "key": "x"})["txn"] == 1
        for who, value in ((session, 1), (other, 2)):
            who.handle({"op": "COMMIT", "txn": 1, "writes": [{"key": "x", "value": value}]})
        merge = session.handle({"op": "MERGE"})
        assert [c["key"] for c in merge["conflicts"]] == ["x"]
        answer = session.handle(
            {"op": "COMMIT", "txn": merge["txn"], "writes": [{"key": "x", "value": 2}]}
        )
        assert answer["ok"] and answer["merge"] is True and "read_state" not in answer
        read = other.handle({"op": "READ", "begin": {"constraint": "any"}, "key": "x"})
        assert read["value"] == 2

    def test_undo_aborts_only_what_that_request_began(self):
        # The transport's half of TIMEOUT: the handler ran to the end
        # after the watchdog gave up on it; ``undo`` runs behind it.
        _server, session = _session()
        slow = {"id": 1, "op": "READ", "begin": {}, "key": "x"}
        assert session.handle(slow)["txn"] == 1
        session.undo({"id": 1, "op": "READ", "begin": {}, "key": "x"})  # an equal twin
        assert list(session.txns) == [1]
        session.undo(slow)
        assert session.txns == {} and _open_txns(session) == 0
        session.undo(slow)  # idempotent


# ---------------------------------------------------------------------------
# ``closed``: a write-free transaction's commit costs no frame of its own —
# its id rides on whatever its connection sends next, and
# ``WireSession.handle`` commits it before the op.


def _pins(server):
    return sum(state.pins for state in server.store.dag.states())


class TestClosedField:
    READ = {"op": "READ", "begin": {"read_only": True}, "key": "x"}

    def test_closes_run_before_the_op_that_carries_them(self):
        server, session = _session()
        assert session.handle(dict(self.READ))["txn"] == 1
        assert session.handle(dict(self.READ))["txn"] == 2
        assert _pins(server) == 2
        answer = session.handle({"op": "STATS", "closed": [1, 2]})
        assert answer["ok"] and answer["stats"]["open_txns"] == 0
        assert answer["stats"]["commits"] == 2
        assert session.txns == {} and _pins(server) == 0
        assert server.store.metrics.read_only_commits == 2

    @pytest.mark.parametrize(
        "closed", [1, "1", {"1": 1}, [True], ["1"], [1, "1"], [1, 1.0], [1, None], [[1]]]
    )
    def test_ill_formed_closed_is_bad_request_and_nothing_runs(self, closed):
        server, session = _session()
        assert session.handle(dict(self.READ))["txn"] == 1
        answer = session.handle(
            {
                "op": "COMMIT",
                "begin": {},
                "writes": [{"key": "x", "value": 1}],
                "closed": closed,
            }
        )
        assert answer["error"]["code"] == "BAD_REQUEST", answer
        assert "txn" not in answer
        # Not the close, not the begin, not the write, not the commit.
        assert list(session.txns) == [1] and session.next_txn_id == 2
        assert _open_txns(session) == 1 and _pins(server) == 1
        assert server._stats["commits"] == 0 and len(server.store.dag) == 1
        assert session.handle({"op": "READ", "txn": 1, "key": "x"})["found"] is False

    def test_an_unknown_id_is_ignored(self):
        server, session = _session()
        assert session.handle(dict(self.READ))["txn"] == 1
        assert session.handle({"op": "COMMIT", "txn": 1})["ok"]
        # Over already (1), never was (99), named twice (2).
        assert session.handle(dict(self.READ))["txn"] == 2
        assert session.handle({"op": "STATS", "closed": [1, 99, 2, 2]})["ok"]
        assert session.txns == {} and server._stats["commits"] == 2

    def test_a_transaction_with_writes_is_refused_and_stays_open(self):
        server, session = _session()
        assert session.handle(dict(self.READ))["txn"] == 1
        wrote = {"op": "READ", "begin": {}, "writes": [{"key": "x", "value": 7}], "key": "x"}
        assert session.handle(wrote)["txn"] == 2
        answer = session.handle({"op": "STATS", "closed": [1, 2]})
        assert answer["error"]["code"] == "BAD_REQUEST"
        # Checked whole: the write-free one named before it is open too.
        assert sorted(session.txns) == [1, 2] and server._stats["commits"] == 0
        assert session.handle({"op": "COMMIT", "txn": 2})["ok"]
        assert session.handle({"op": "READ", "begin": {}, "closed": [1], "key": "x"})["value"] == 7

    def test_a_merge_is_refused_and_stays_open(self):
        _server, session = _session()
        merge = session.handle({"op": "MERGE"})["txn"]
        answer = session.handle({"op": "STATS", "closed": [merge]})
        assert answer["error"]["code"] == "BAD_REQUEST"
        assert list(session.txns) == [merge]
        assert session.handle({"op": "COMMIT", "txn": merge})["merge"] is True

    def test_a_carried_op_that_fails_leaves_the_closes_done(self):
        server, session = _session()
        assert session.handle(dict(self.READ))["txn"] == 1
        answer = session.handle({"op": "READ", "txn": 99, "key": "x", "closed": [1]})
        assert answer["error"]["code"] == "UNKNOWN_TXN"
        assert session.txns == {} and _pins(server) == 0
        assert server.store.metrics.read_only_commits == 1

    def test_closed_before_hello_runs_nothing(self):
        session = WireSession(TardisServer(TardisStore("early")), 1)
        answer = session.handle({"op": "STATS", "closed": "junk"})
        assert answer["error"]["code"] == "NO_HELLO"


# Equivalence: the same two-session history with every write-free commit
# sent as a COMMIT frame, or ridden on the session's next frame, leaves
# the same store behind.

_TXN_KINDS = st.sampled_from(["read-only", "write-free", "rmw", "blind"])
_SCRIPT = st.lists(st.tuples(_TXN_KINDS, st.sampled_from("abc")), max_size=6)


def _frames_of(script):
    """A session's script as steps, one per frame the explicit spelling sends."""
    steps = []
    for n, (kind, key) in enumerate(script):
        if kind == "blind":
            steps.append(("blind", key, n))
            continue
        steps.append(("read", {"read_only": kind == "read-only"}, key))
        steps.append(("commit-writes", key) if kind == "rmw" else ("commit-free",))
    return steps


def _run_history(scripts, schedule, ride):
    server = TardisServer(TardisStore("equiv"))
    sessions = [WireSession(server, n) for n in (1, 2)]
    for session, name in zip(sessions, "AB"):
        assert session.handle({"op": "HELLO", "session": name})["ok"]
    steps = [_frames_of(script) for script in scripts]
    closed = [[], []]  # ridden mode: committed locally, not yet told
    open_txn = [None, None]
    last_read = [None, None]
    reads = [[], []]

    def send(who, request):
        if closed[who]:
            request["closed"], closed[who] = closed[who], []
        answer = sessions[who].handle(request)
        assert answer["ok"], answer
        return answer

    def step(who):
        kind, *args = steps[who].pop(0)
        if kind == "read":
            answer = send(who, {"op": "READ", "begin": args[0], "key": args[1]})
            open_txn[who] = answer["txn"]
            last_read[who] = answer["value"] or 0
            reads[who].append((answer["read_state"], answer["found"], answer["value"]))
        elif kind == "blind":
            writes = [{"key": args[0], "value": args[1]}]
            send(who, {"op": "COMMIT", "begin": {}, "writes": writes})
        elif kind == "commit-writes":
            writes = [{"key": args[0], "value": last_read[who] + 1}]
            send(who, {"op": "COMMIT", "txn": open_txn[who], "writes": writes})
        elif ride:
            closed[who].append(open_txn[who])
        else:
            send(who, {"op": "COMMIT", "txn": open_txn[who]})

    for who in schedule:
        if steps[who]:
            step(who)
    for who in (0, 1):
        while steps[who]:
            step(who)
    for who in (0, 1):
        send(who, {"op": "BYE"})
    store = server.store
    outcome = {
        "anchors": [repr(store.session(name).last_commit_id) for name in "AB"],
        "read_only_commits": store.metrics.read_only_commits,
        "store_commits": store.metrics.commits,
        "server_commits": server._stats["commits"],
        "pins": _pins(server),
        "open": [dict(session.txns) for session in sessions],
        "states": len(store.dag),
        "reads": reads,
    }
    for session in sessions:
        assert session.close() == 0
    return outcome


class TestRiddenCloseEquivalence:
    @given(_SCRIPT, _SCRIPT, st.lists(st.integers(0, 1), max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_explicit_commit_and_ridden_close_end_in_the_same_store(
        self, script_a, script_b, schedule
    ):
        explicit = _run_history((script_a, script_b), schedule, ride=False)
        ridden = _run_history((script_a, script_b), schedule, ride=True)
        assert ridden == explicit
        assert explicit["pins"] == 0 and explicit["open"] == [{}, {}]

    def test_the_property_sees_forks_and_write_free_commits(self):
        # Both sessions read before either commits: the second forks, and
        # each then reads its own branch in a write-free transaction.
        scripts = ([("rmw", "a"), ("write-free", "a")], [("rmw", "a"), ("read-only", "a")])
        outcome = _run_history(scripts, [0, 1, 0, 1, 0, 0, 1, 1], ride=True)
        assert outcome == _run_history(scripts, [0, 1, 0, 1, 0, 0, 1, 1], ride=False)
        assert outcome["states"] == 3 and outcome["read_only_commits"] == 2
        assert [read[-1][2] for read in outcome["reads"]] == [1, 1]
        assert outcome["anchors"][0] != outcome["anchors"][1]
