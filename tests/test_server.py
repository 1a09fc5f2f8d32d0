"""End-to-end tests for the network server: sessions, concurrency,
disconnect cleanup, graceful shutdown, and the wire error paths."""

import errno
import json
import os
import random
import re
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import TardisStore
from repro.client import TardisClient
from repro.errors import (
    BeginError,
    FrameTooLarge,
    KeyNotFound,
    NetworkError,
    ServerError,
    ShardUnavailableError,
    TransactionClosed,
)
from repro.server.handlers import HANDLERS, WireSession
from repro.server.protocol import (
    HEADER,
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    ok_response,
)
from repro.server.server import HIGH_WATER, TardisServer, _Connection, run_server
from tests.history import History, check


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _src_env():
    return dict(os.environ, PYTHONPATH=SRC)


@pytest.fixture
def served():
    handle = TardisServer(site="net-test").start()
    yield handle
    if handle.report is None:
        handle.shutdown()


def _total_pins(store):
    with store._lock:
        return sum(state.pins for state in store.dag.states())


# ---------------------------------------------------------------------------
# Satellite regression: close_session semantics (no server involved).


class TestCloseSession:
    def test_unknown_session_is_a_no_op(self):
        store = TardisStore("A")
        assert store.close_session("never-opened") is False

    def test_double_close_is_idempotent(self):
        store = TardisStore("A")
        session = store.session("s")
        assert store.close_session(session.name) is True
        assert store.close_session(session.name) is False
        assert store.close_session(session.name) is False

    def test_close_aborts_open_transactions_and_releases_pins(self):
        store = TardisStore("A")
        session = store.session("s")
        txn1 = store.begin(session=session)
        txn2 = store.begin(session=session)
        txn1.put("x", 1)
        assert _total_pins(store) > 0
        store.close_session(session.name)
        assert txn1.status == "aborted"
        assert txn2.status == "aborted"
        assert _total_pins(store) == 0
        assert store.sessions() == []
        # the aborted write never landed
        reader = store.begin()
        assert reader.get("x", default=None) is None

    def test_close_leaves_committed_work_alone(self):
        store = TardisStore("A")
        session = store.session("s")
        txn = store.begin(session=session)
        txn.put("x", 1)
        txn.commit()
        open_txn = store.begin(session=session)
        store.close_session(session.name)
        assert open_txn.status == "aborted"
        assert store.begin().get("x") == 1


# ---------------------------------------------------------------------------
# Basic wire round trips.


class TestWireBasics:
    def test_put_get_over_the_wire(self, served):
        with TardisClient(port=served.port, session="alice") as client:
            assert client.session == "alice"
            assert client.site == "net-test"
            client.put("greeting", "hello")
            assert client.get("greeting") == "hello"

    def test_txn_read_your_writes_and_missing_key(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            txn.put("k", {"nested": [1, 2]})
            assert txn.get("k") == {"nested": [1, 2]}
            with pytest.raises(KeyNotFound):
                txn.get("absent")
            assert txn.get("absent", default=7) == 7
            state = txn.commit()
            assert isinstance(state, str) and state

    def test_delete_and_context_manager_abort(self, served):
        with TardisClient(port=served.port) as client:
            client.put("k", 1)
            txn = client.begin()
            txn.delete("k")
            txn.commit()
            assert client.get("k", default="gone") == "gone"
            with pytest.raises(RuntimeError):
                with client.begin() as txn:
                    txn.put("k", 99)
                    raise RuntimeError("boom")
            assert txn.status == "aborted"
            assert client.get("k", default="gone") == "gone"

    def test_stats_and_read_only(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin(read_only=True)
            with pytest.raises(ServerError) as exc_info:
                txn.put("x", 1)
            assert exc_info.value.code == "READ_ONLY"
            txn.commit()
            stats = client.stats()
            assert stats["connections_active"] == 1
            assert stats["store"]["site"] == "net-test"

    @pytest.mark.parametrize("default", [None, "dflt"])
    def test_get_many_answers_what_the_in_process_read_does(self, served, default):
        served.store.put("a", 1)
        served.store.put("b", [2])
        shapes = {
            "list": lambda: ["a", "b"],
            "tuple": lambda: ("b", "a"),
            "generator": lambda: (key for key in ["a", "b", "a"]),
            "duplicates": lambda: ["a", "a", "b", "b"],
            "missing": lambda: ["a", "absent", "b"],
        }
        kwargs = {} if default is None else {"default": default}

        def answer(txn, keys):
            try:
                return txn.get_many(keys, **kwargs)
            except KeyNotFound as exc:
                return ("KeyNotFound", exc.key)

        with TardisClient(port=served.port, session="parity") as client:
            for name, keys in shapes.items():
                local = served.store.begin(read_only=True)
                expected = answer(local, keys())
                local.commit()
                wire = client.begin(read_only=True)
                assert answer(wire, keys()) == expected, name
                if wire.status == "active":
                    wire.commit()
                # The autocommit spelling defaults a missing key to None.
                local = served.store.begin(read_only=True)
                auto = local.get_many(keys(), default=kwargs.get("default"))
                local.commit()
                assert client.get_many(keys(), **kwargs) == auto, name
        # The last shape read a missing key: it raised, or took the default.
        missing = ("KeyNotFound", "absent") if default is None else [1, default, [2]]
        assert expected == missing

    def test_an_answer_that_cannot_be_encoded_is_an_error_and_closes_its_begin(self, served):
        served.store.put("odd", {1, 2})  # an in-process writer: a set is not JSON
        with TardisClient(port=served.port, session="reader") as client:
            txn = client.begin(read_only=True)
            with pytest.raises(ServerError) as info:
                txn.get("odd")
            assert info.value.code == "INTERNAL"
            assert txn.status == "aborted"
            stats = client.stats()
            assert stats["errors_total"] == 1
            # The begin that rode on the READ is undone, its pin released.
            assert stats["open_txns"] == 0
            assert _total_pins(served.store) == 0

    def test_server_counts_live_in_its_report_not_the_registry(self):
        handle = TardisServer(site="registry-test")
        registry = handle.store.registry
        registry.enabled = True
        handle.start()
        with TardisClient(port=handle.port) as client:
            client.put("x", 1)
            assert client.get("x") == 1
        report = handle.shutdown()
        assert report["requests_total"] >= 3 and report["commits"] >= 1
        assert report["connections_total"] == 1 and report["bytes_out"] > 0
        # the registry holds the served store's metrics and nothing else
        assert registry.counter_value("tardis_txn_commit_total") >= 1
        assert not [name for name in registry.names() if name.startswith("tardis_net_")]

    def test_branch_and_merge_over_the_wire(self, served):
        with TardisClient(port=served.port, session="a") as a, TardisClient(
            port=served.port, session="b"
        ) as b:
            a.put("x", 10)
            # b begins from the root (its session never saw a's commit is
            # not guaranteed -- use explicit 'any' to land on a leaf), so
            # drive a real conflict: both write the same key.
            b.put("x", 20)
            merge = a.merge()
            if merge.conflicts:
                assert [c["key"] for c in merge.conflicts] == ["x"]
                merge.put("x", max(merge.conflicts[0]["values"]))
            merge.commit()
            assert a.get("x") == 20


# ---------------------------------------------------------------------------
# A recorded history: a script over the wire on a logged store, every
# answer checked against the store's own log (tests/history.py).


SCRIPT_END = {"key-0": 0, "key-1": 1, "key-2": 2, "key-3": 3, "shared": 3}


def _script(history, clients):
    """Each client writes ``key-<i>`` and ``shared``, a merge keeps the
    largest ``shared`` of its conflicts, and a reader reads it all back;
    returns what the reader saw."""
    for i, client in enumerate(clients):
        txn = history.record(client.begin(), client.session)
        txn.put("key-%d" % i, i)
        txn.put("shared", i)
        txn.commit()
    merge = history.record(clients[0].merge(), clients[0].session)
    for conflict in merge.conflicts:
        merge.put(conflict["key"], max(conflict["values"]))
    merge.commit()
    reader = history.record(clients[0].begin(), clients[0].session)
    out = {key: reader.get(key, default=None) for key in sorted(SCRIPT_END)}
    reader.commit()
    return out


def _logged_server(tmp_path, **sharding):
    """A started server over a store logging to ``tmp_path/wal.log``."""
    store = TardisStore("net-log", wal_path=str(tmp_path / "wal.log"), **sharding)
    return TardisServer(store).start()


def _run_script(handle):
    """The script from four sessions; returns the reader's view and the
    history, with the server shut down and its store closed."""
    history = History()
    clients = [TardisClient(port=handle.port, session="sess-%d" % i) for i in range(4)]
    try:
        out = _script(history, clients)
    finally:
        for client in clients:
            client.close()
        report = handle.shutdown()
        handle.store.close()
    assert report["leaked_sessions"] == []
    assert handle.store.leaked_workers == 0
    return out, history


class TestWireHistory:
    def test_the_wire_script_checks_against_the_log(self, tmp_path):
        out, history = _run_script(_logged_server(tmp_path))
        assert out == SCRIPT_END
        assert check(history, str(tmp_path / "wal.log")) == []


# ---------------------------------------------------------------------------
# Concurrency: many sockets at once, interleaved branch/merge.


class TestConcurrentClients:
    N_CLIENTS = 8
    N_INCREMENTS = 10

    def test_interleaved_clients_converge(self, served):
        errors = []

        def _client_loop(client_id):
            try:
                client = TardisClient(
                    port=served.port, session="worker-%d" % client_id
                )
                key = "counter-%d" % client_id
                for _ in range(self.N_INCREMENTS):
                    txn = client.begin()
                    value = txn.get(key, default=0)
                    txn.put(key, value + 1)
                    txn.commit()
                client.close()
            except Exception as exc:  # surfaced via the errors list
                errors.append((client_id, exc))

        threads = [
            threading.Thread(target=_client_loop, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []

        # Merge every branch down and verify nothing was lost: each
        # client's session anchor made its own increments sequential, so
        # every counter must read N_INCREMENTS after the merge.
        with TardisClient(port=served.port, session="checker") as checker:
            while True:
                merge = checker.merge()
                for conflict in merge.conflicts:
                    merge.put(conflict["key"], max(conflict["values"]))
                merge.commit()
                with served.store._lock:
                    converged = len(served.store.dag.leaves()) == 1
                if converged:
                    break
            for i in range(self.N_CLIENTS):
                assert checker.get("counter-%d" % i) == self.N_INCREMENTS


# ---------------------------------------------------------------------------
# Disconnect cleanup: a dead socket must not leak sessions, txns or pins.


class TestDisconnectCleanup:
    def test_hard_disconnect_aborts_and_unpins(self, served):
        store = served.store
        client = TardisClient(port=served.port, session="dropper")
        txn = client.begin()
        txn.put("doomed", 1)
        assert txn.get("doomed") == 1  # the request that carries BEGIN + write
        assert any(s.name == "dropper" for s in store.sessions())
        client._sock.close()  # hard drop: no BYE, mid-transaction

        assert _wait_until(
            lambda: not any(s.name == "dropper" for s in store.sessions())
        ), "session leaked after disconnect"
        assert _wait_until(lambda: _total_pins(store) == 0), "pins leaked"

        with TardisClient(port=served.port, session="observer") as observer:
            stats = observer.stats()
            assert stats["disconnect_aborts"] >= 1
            assert stats["open_txns"] == 0
            # the aborted write is invisible
            assert observer.get("doomed", default=None) is None

    def test_an_in_process_close_keeps_the_connections_anchor(self, served):
        # A and B fork ``k``, then in-process code closes A's session. A's
        # connection keeps the session object it bound at HELLO: its next
        # read still sees its own write, and no second "A" is registered
        # anchored at the root (which would read B's newer branch).
        store = served.store
        a = TardisClient(port=served.port, session="A")
        with TardisClient(port=served.port, session="B") as b:
            txns = [a.begin(), b.begin()]
            for txn in txns:
                txn.get("k", default=None)
            for value, txn in zip("AB", txns):
                txn.put("k", value)
                txn.commit()
            with store._lock:
                assert len(store.dag.leaves()) == 2
            assert store.close_session("A") is True
            assert a.get("k") == "A"
            assert b.get("k") == "B"
            assert [s.name for s in store.sessions()] == ["B"]
            # A transaction begun on the closed session, then a hard drop:
            # the disconnect still aborts it and releases its pin.
            doomed = a.begin()
            doomed.put("doomed", 1)
            assert doomed.get("k") == "A"
            a._sock.close()
            # B's STATS carries the close of its last read.
            assert _wait_until(lambda: b.stats()["disconnect_aborts"] == 1)
            assert _total_pins(store) == 0, "pins leaked"
            assert b.get("doomed", default=None) is None
        assert served.shutdown()["leaked_sessions"] == []

    def test_session_name_reusable_after_disconnect(self, served):
        client = TardisClient(port=served.port, session="phoenix")
        client._sock.close()
        assert _wait_until(
            lambda: not any(
                s.name == "phoenix" for s in served.store.sessions()
            )
        )
        reborn = TardisClient(port=served.port, session="phoenix")
        reborn.put("x", 1)
        reborn.close()

    def test_cleanup_forgets_the_session_names_it_closed(self, served):
        server = served
        for i in range(300):
            with TardisClient(port=served.port) as client:
                client.put("k", i)
        assert _wait_until(lambda: not server._conns)
        # The live connections are the server's only record of the names
        # it bound, so once each cleanup ran nothing of the 300 is left.
        with server._lock:
            assert server._bound_sessions() == []
        assert server.store.sessions() == []
        assert served.shutdown()["leaked_sessions"] == []


# ---------------------------------------------------------------------------
# Graceful shutdown: drain in-flight transactions, refuse new ones.


class TestGracefulShutdown:
    def test_drain_lets_open_txn_commit_and_refuses_new_work(self):
        handle = TardisServer(site="drain-test", drain_timeout=10.0).start()
        client = TardisClient(port=handle.port, session="worker")
        txn = client.begin()
        txn.put("x", 1)
        assert txn.get("x") == 1  # the request that carries BEGIN + write

        reports = {}
        stopper = threading.Thread(
            target=lambda: reports.update(report=handle.shutdown())
        )
        stopper.start()
        assert _wait_until(lambda: handle._closing)

        # New transactions are refused while draining...
        late = client.begin()
        with pytest.raises(ServerError) as exc_info:
            late.get("x", default=None)  # the request that carries its BEGIN
        assert exc_info.value.code == "SHUTTING_DOWN"
        assert late.status == "aborted"
        # ...but the open one is allowed to finish.
        txn.commit()
        client.close()
        stopper.join(timeout=30.0)

        report = reports["report"]
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []
        assert report["commits"] == 1

    def test_an_idle_client_whose_last_act_was_a_get_does_not_hold_the_drain(self):
        # Its write-free transaction is closed on the client and still
        # open on the server; aborting it with the force-close loses
        # nothing, so the drain does not wait for a frame that may never
        # come. (A transaction that holds writes does: next test.)
        handle = TardisServer(site="idle-test", drain_timeout=5.0).start()
        client = TardisClient(port=handle.port, session="idle")
        try:
            assert client.get("x") is None
            started = time.perf_counter()
            report = handle.shutdown()
            assert time.perf_counter() - started < 4.0
        finally:
            client.close()
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []
        assert handle.store.sessions() == []
        assert _total_pins(handle.store) == 0

    def test_drain_timeout_force_closes_and_still_leaks_nothing(self):
        handle = TardisServer(site="force-test", drain_timeout=0.2).start()
        client = TardisClient(port=handle.port, session="straggler")
        try:
            straggler = client.begin()
            straggler.put("x", 1)
            assert straggler.get("x") == 1  # on the server, left open on purpose
            report = handle.shutdown()
        finally:
            client.close()
        assert report["drained_in_time"] is False
        assert report["forced_closes"] >= 1
        assert report["leaked_sessions"] == []
        assert report["disconnect_aborts"] >= 1
        assert handle.store.sessions() == []

    def test_the_watchdog_answers_while_shutdown_waits_a_slow_handler_out(self):
        handle = TardisServer(site="join-test", request_timeout=0.1).start()
        store = handle.store
        reports = {}
        stopper = threading.Thread(target=lambda: reports.update(report=handle.shutdown()))
        original = TestAbandonedRequest._slow_begin(store, 0.6)
        try:
            with _Raw(handle.port) as raw:
                raw.send({"id": 1, "op": "READ", "begin": {}, "key": "x"})
                sent = time.perf_counter()
                assert _wait_until(lambda: handle._inflight == 1)
                stopper.start()  # waits the slow handler out
                answer = raw.frame()
                waited = time.perf_counter() - sent
                # The watchdog thread answered, and shutdown still waits.
                assert stopper.is_alive()
                assert answer["error"]["code"] == "TIMEOUT"
                assert waited < 0.2
                stopper.join(timeout=30.0)
        finally:
            store.begin = original
        report = reports["report"]
        assert report["timeouts_total"] == 1
        assert report["leaked_sessions"] == []
        assert store.sessions() == []

    def test_new_connections_rejected_while_draining(self):
        handle = TardisServer(site="reject-test", drain_timeout=5.0).start()
        client = TardisClient(port=handle.port, session="holder")
        txn = client.begin()
        txn.get("x", default=None)  # the request that carries the BEGIN
        stopper = threading.Thread(target=handle.shutdown)
        stopper.start()
        assert _wait_until(lambda: handle._closing)
        with pytest.raises((ServerError, OSError, Exception)):
            TardisClient(port=handle.port, session="late")
        txn.commit()
        client.close()
        stopper.join(timeout=30.0)


# ---------------------------------------------------------------------------
# Restart: a server on a logged store serves what its last life acknowledged.


def _counter(state):
    """The counter of a wire state id such as ``s5@net``."""
    return int(state[1:].split("@")[0])


class TestRestartOnALog:
    def _life(self, path, work):
        store = TardisStore("net", wal_path=path)
        server = TardisServer(store=store).start()
        try:
            with TardisClient(port=server.port, session="a") as client:
                return work(client)
        finally:
            server.shutdown()
            store.close()

    def test_a_second_life_reads_every_acknowledged_value(self, tmp_path):
        path = str(tmp_path / "net.wal")
        states = self._life(path, lambda c: [c.put("k%d" % i, i) for i in range(5)])

        def second(client):
            values = [client.get("k%d" % i) for i in range(5)]
            return values, client.put("after", 1)

        values, first = self._life(path, second)
        assert values == list(range(5))
        assert _counter(first) > max(map(_counter, states))


# ---------------------------------------------------------------------------
# Wire error paths: framing violations and protocol misuse.


class TestWireErrors:
    def _raw_exchange(self, port, payload_bytes):
        """Send raw bytes; return every frame the server answers before
        closing the connection."""
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        decoder = FrameDecoder()
        frames = []
        try:
            sock.sendall(payload_bytes)
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                decoder.feed(data)
                frames.extend(decoder.frames())
        finally:
            sock.close()
        return frames

    def test_oversized_frame_is_fatal(self, served):
        frames = self._raw_exchange(served.port, HEADER.pack(MAX_FRAME + 1))
        assert frames[-1]["error"]["code"] == "FRAME_TOO_LARGE"

    def test_garbage_frame_is_fatal(self, served):
        payload = b"\x00\xffnot json"
        frames = self._raw_exchange(
            served.port, HEADER.pack(len(payload)) + payload
        )
        assert frames[-1]["error"]["code"] == "BAD_FRAME"

    def test_session_in_use(self, served):
        with TardisClient(port=served.port, session="solo"):
            with pytest.raises(ServerError) as exc_info:
                TardisClient(port=served.port, session="solo")
            assert exc_info.value.code == "SESSION_IN_USE"

    def test_version_mismatch(self, served):
        sock = socket.create_connection(("127.0.0.1", served.port), timeout=5.0)
        try:
            from repro.server.protocol import encode_frame

            decoder = FrameDecoder()
            # 2: the version before ``closed``. A pair that disagrees on
            # that field would leak pins silently, so it fails here.
            for request_id, version in enumerate((99, 2), start=1):
                hello = {"id": request_id, "op": "HELLO", "protocol": version}
                sock.sendall(encode_frame(hello))
                decoder.feed(sock.recv(65536))
                response = decoder.next_frame()
                assert response["error"]["code"] == "BAD_VERSION"
        finally:
            sock.close()

    def test_a_version_3_hello_is_refused(self, served):
        # Version 3 still had the push stream; its peers are turned away at
        # the handshake, and the refusal binds nothing.
        with _Raw(served.port, hello=False) as raw:
            refused = raw.ask({"id": 1, "op": "HELLO", "protocol": 3})
            assert refused["error"]["code"] == "BAD_VERSION"
            assert "protocol %d" % PROTOCOL_VERSION in refused["error"]["message"]
            assert raw.ask({"id": 2, "op": "HELLO", "protocol": PROTOCOL_VERSION})["ok"]

    def test_a_frame_the_client_did_not_ask_for_closes_it(self):
        # A peer that writes a frame of its own between answers (a version
        # 3 push frame, here) has broken the pairing: the client drops the
        # link rather than guess which frame answers what.
        listener = socket.create_server(("127.0.0.1", 0))
        seen = []

        def peer():
            conn, _ = listener.accept()
            decoder = FrameDecoder()

            def request():
                while True:
                    frame = decoder.next_frame()
                    if frame is not None:
                        return frame
                    data = conn.recv(65536)
                    if not data:
                        return None
                    decoder.feed(data)

            with conn:
                hello = request()
                conn.sendall(encode_frame(ok_response(
                    hello["id"], session="s", site="fake", protocol=PROTOCOL_VERSION
                )))
                stats = request()
                push = {"push": "obs", "seq": 1, "dropped": 0, "snapshot": {}}
                conn.sendall(
                    encode_frame(push) + encode_frame(ok_response(stats["id"], stats={}))
                )
                seen.append(request())  # what the client sends next

        thread = threading.Thread(target=peer)
        thread.start()
        try:
            client = TardisClient(port=listener.getsockname()[1], timeout=5.0)
            with pytest.raises(NetworkError, match="does not match"):
                client.stats()
            assert client._channel.closed
            with pytest.raises(NetworkError, match="client is closed"):
                client.stats()
            client.close()
        finally:
            thread.join(timeout=5.0)
            listener.close()
        assert seen == [None]  # nothing: the socket was dropped

    def test_no_hello_unknown_txn_bad_constraint(self, served):
        sock = socket.create_connection(("127.0.0.1", served.port), timeout=5.0)
        try:
            from repro.server.protocol import encode_frame

            decoder = FrameDecoder()

            def ask(request):
                sock.sendall(encode_frame(request))
                while True:
                    frame = decoder.next_frame()
                    if frame is not None:
                        return frame
                    decoder.feed(sock.recv(65536))

            assert (
                ask({"id": 1, "op": "READ", "begin": {}, "key": "x"})["error"]["code"]
                == "NO_HELLO"
            )
            assert ask({"id": 2, "op": "HELLO"})["ok"] is True
            assert (
                ask({"id": 3, "op": "HELLO"})["error"]["code"]
                == "ALREADY_HELLO"
            )
            assert (
                ask({"id": 4, "op": "READ", "txn": 99, "key": "x"})["error"][
                    "code"
                ]
                == "UNKNOWN_TXN"
            )
            assert (
                ask({"id": 5, "op": "READ", "begin": {"constraint": "nope"}, "key": "x"})[
                    "error"
                ]["code"]
                == "BAD_CONSTRAINT"
            )
            assert (
                ask({"id": 6, "op": "FROB"})["error"]["code"] == "UNKNOWN_OP"
            )
            assert (
                ask({"id": 7, "op": "WRITE", "txn": 1})["error"]["code"]
                == "BAD_REQUEST"
            )
            # Outside input is checked before it reaches the store: an
            # array/object key is unhashable, ``true`` is not txn 1, and
            # a constraint name that is not a string names nothing.
            # The op the last protocol version spelled BEGIN is gone.
            assert ask({"id": 8, "op": "BEGIN"})["error"]["code"] == "UNKNOWN_OP"
            assert ask({"id": 8, "op": "WRITE", "begin": {}, "writes": []})["txn"] == 1
            misuse = [
                ({"op": "READ", "txn": 1, "key": ["a"]}, "BAD_REQUEST"),
                ({"op": "READ", "txn": 1, "key": {"a": 1}}, "BAD_REQUEST"),
                ({"op": "WRITE", "txn": 1, "key": ["a"], "value": 1}, "BAD_REQUEST"),
                ({"op": "WRITE", "txn": 1, "key": {}, "delete": True}, "BAD_REQUEST"),
                ({"op": "READ_MANY", "txn": 1, "keys": ["a", ["b"]]}, "BAD_REQUEST"),
                ({"op": "READ_MANY", "txn": 1, "keys": "ab"}, "BAD_REQUEST"),
                ({"op": "READ", "txn": True, "key": "x"}, "UNKNOWN_TXN"),
                ({"op": "COMMIT", "txn": True}, "UNKNOWN_TXN"),
                ({"op": "ABORT", "txn": 1.0}, "UNKNOWN_TXN"),
                ({"op": "COMMIT", "txn": 1, "constraint": "nope"}, "BAD_CONSTRAINT"),
                ({"op": "COMMIT", "txn": 1, "constraint": ["any"]}, "BAD_CONSTRAINT"),
                (
                    {"op": "READ", "begin": {"constraint": {"any": 1}}, "key": "x"},
                    "BAD_CONSTRAINT",
                ),
                ({"op": ["READ"]}, "UNKNOWN_OP"),
                # The push stream's ops went with protocol version 4.
                ({"op": "OBS_SUBSCRIBE"}, "UNKNOWN_OP"),
                ({"op": "OBS_UNSUBSCRIBE"}, "UNKNOWN_OP"),
            ]
            for request_id, (request, code) in enumerate(misuse, start=9):
                request["id"] = request_id
                assert ask(request)["error"]["code"] == code, request
            # None of it cost the connection or the transaction.
            assert ask({"id": 99, "op": "COMMIT", "txn": 1})["ok"] is True
        finally:
            sock.close()

    def test_commit_twice_is_txn_closed(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            txn.put("x", 1)
            txn.commit()
            with pytest.raises(ServerError) as exc_info:
                client._call("COMMIT", {"txn": txn._txn_id})
            assert exc_info.value.code == "UNKNOWN_TXN"

    def test_commit_with_a_bad_constraint_leaves_the_handle_active(self, served):
        # The server answered BAD_CONSTRAINT and kept the transaction:
        # the handle must say so, or ``with`` skips the abort and the
        # read-state pin leaks.
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            txn.put("x", 1)
            assert txn.get("x") == 1  # open on the server from here on
            with pytest.raises(ServerError) as exc_info:
                txn.commit(constraint="nope")
            assert exc_info.value.code == "BAD_CONSTRAINT"
            assert txn.status == "active"
            txn.abort()
            assert txn.status == "aborted"
            assert client.stats()["open_txns"] == 0
            # A handle that never sent anything: BEGIN rides on the
            # failing COMMIT, they fail as a unit, nothing is open.
            unsent = client.begin()
            unsent.put("x", 1)
            with pytest.raises(ServerError) as exc_info:
                unsent.commit(constraint="nope")
            assert exc_info.value.code == "BAD_CONSTRAINT"
            assert unsent.status == "aborted"
            assert client.stats()["open_txns"] == 0


# ---------------------------------------------------------------------------
# A request abandoned mid-flight: its answer may still arrive and would be
# taken for the next request's, so the client must end closed and the
# server must clean up behind it.


class TestAbandonedRequest:
    @staticmethod
    def _slow_begin(store, seconds):
        begin = store.begin

        def slow(*args, **kwargs):
            time.sleep(seconds)
            return begin(*args, **kwargs)

        store.begin = slow
        return begin

    @staticmethod
    def _open_txns(port):
        with TardisClient(port=port, session="observer") as observer:
            return observer.stats()["open_txns"]

    def test_sync_timeout_closes_the_client_and_the_server_cleans_up(self, served):
        store = served.store
        client = TardisClient(port=served.port, session="impatient", timeout=0.1)
        original = self._slow_begin(store, 0.3)
        try:
            with pytest.raises(socket.timeout):
                client.begin().get("x", default=None)
        finally:
            store.begin = original
        assert client._channel.closed
        for _ in range(3):
            with pytest.raises(NetworkError, match="client is closed"):
                client.stats()
        # The orphaned BEGIN + READ still ran; dropping the socket is what lets
        # the server's disconnect cleanup abort it.
        assert _wait_until(
            lambda: not any(s.name == "impatient" for s in store.sessions())
        ), "session leaked after the timeout"
        assert self._open_txns(served.port) == 0
        client.close()  # idempotent on a closed client

    def test_an_interrupted_call_closes_the_client(self, served):
        store = served.store
        client = TardisClient(port=served.port, session="interrupted")

        class _Interrupted:  # the request goes out, the wait for it is cut short
            def __init__(self, sock):
                self.sock = sock

            def sendall(self, data):
                self.sock.sendall(data)

            def recv(self, size):
                raise KeyboardInterrupt

            def close(self):
                self.sock.close()

        client._sock = _Interrupted(client._sock)
        with pytest.raises(KeyboardInterrupt):
            client.begin().get("x", default=None)
        assert client._channel.closed
        with pytest.raises(NetworkError, match="client is closed"):
            client.stats()
        assert _wait_until(
            lambda: not any(s.name == "interrupted" for s in store.sessions())
        ), "session leaked after the interrupt"
        assert self._open_txns(served.port) == 0
        client.close()


# ---------------------------------------------------------------------------
# The shard plane behind the server: a sharded store with worker
# processes must be wire-indistinguishable from the flat store, and the
# server must reap its workers at shutdown even after rude disconnects.


@pytest.fixture
def served_sharded():
    handle = TardisServer(site="net-shard", shards=4, shard_workers=2).start()
    yield handle
    if handle.report is None:
        handle.shutdown()


class TestShardedServing:
    def test_the_wire_script_checks_against_the_log(self, tmp_path):
        out, history = _run_script(_logged_server(tmp_path, shards=4, shard_workers=2))
        assert out == SCRIPT_END
        assert check(history, str(tmp_path / "wal.log")) == []

    def test_read_many_over_the_wire(self, served_sharded):
        with TardisClient(port=served_sharded.port, session="batch") as client:
            txn = client.begin()
            for i in range(20):
                txn.put("key-%03d" % i, i)
            txn.commit()
            keys = ["key-%03d" % i for i in range(20)] + ["missing"]
            values = client.get_many(keys, default="MISS")
            assert values == list(range(20)) + ["MISS"]
            txn = client.begin(read_only=True)
            with pytest.raises(KeyNotFound):
                txn.get_many(["missing"])
            txn.abort()
            stats = client.stats()
            assert stats["store"]["shard_workers"] == 2
            assert stats["store"]["shard_workers_alive"] == 2

    def test_hard_disconnect_leaks_nothing_with_shards(self, served_sharded):
        store = served_sharded.store
        client = TardisClient(port=served_sharded.port, session="dropper")
        txn = client.begin()
        txn.put("doomed", 1)
        client._sock.close()  # hard drop: no BYE, mid-transaction

        assert _wait_until(
            lambda: not any(s.name == "dropper" for s in store.sessions())
        ), "session leaked after disconnect"
        with TardisClient(port=served_sharded.port, session="observer") as obs:
            assert obs.get("doomed", default=None) is None

        report = served_sharded.shutdown()
        assert report["leaked_sessions"] == []
        assert report["leaked_workers"] == 0
        assert report["exit_code"] if "exit_code" in report else True

    def test_dead_worker_surfaces_as_typed_wire_error(self, served_sharded):
        with TardisClient(port=served_sharded.port, session="chaos") as client:
            txn = client.begin()
            for i in range(16):
                txn.put("key-%03d" % i, i)
            txn.commit()
            with served_sharded.store._lock:
                served_sharded.store.versions.kill_worker(1)
            with pytest.raises(ShardUnavailableError):
                client.get_many(["key-%03d" % i for i in range(16)])


# ---------------------------------------------------------------------------
# At most two round trips per transaction, one when it wrote nothing: the
# begin rides on the first op, buffered writes on the next one, and the
# close of a write-free transaction on the connection's next frame.
# Counted in frames, for both clients.


def _frames(client_stats, work):
    """How many request frames ``work`` put on the wire (the closing
    STATS frame counts itself)."""
    before = client_stats()["requests_total"]
    work()
    return client_stats()["requests_total"] - before - 1


def _fork(port):
    """Two sessions commit the same key from the same snapshot."""
    with TardisClient(port=port) as a, TardisClient(port=port) as b:
        txns = [a.begin(), b.begin()]
        for txn in txns:
            txn.get("x", default=None)
        for value, txn in enumerate(txns, start=1):
            txn.put("x", value)
            txn.commit()


class TestFramesPerTransaction:
    def test_sync_client(self, served):
        _fork(served.port)
        with TardisClient(port=served.port) as client:

            def read_only():
                txn = client.begin(read_only=True)
                assert txn.read_state is None  # nothing was sent yet
                txn.get_many(["x", "y"], default=None)
                assert isinstance(txn.read_state, str)
                assert txn.commit() == txn.read_state == txn.commit_state
                assert txn.status == "committed"

            def read_modify_write():
                txn = client.begin()
                txn.put("n", txn.get("n", default=0) + 1)
                txn.commit()

            def blind_writes():
                txn = client.begin()
                for i in range(100):
                    txn.put("key-%d" % i, i)
                txn.delete("key-0")
                txn.commit()

            def merge():
                txn = client.merge()
                assert [c["key"] for c in txn.conflicts] == ["x"]
                for conflict in txn.conflicts:
                    txn.put(conflict["key"], max(conflict["values"]))
                txn.put("merged", True)
                txn.commit()

            def begin_then_abort():
                txn = client.begin()
                txn.put("never", 1)
                txn.abort()
                assert txn.status == "aborted"

            def write_free_with_an_end_constraint():
                txn = client.begin()
                txn.get("x")
                # The server validates the name: that is a COMMIT frame.
                assert txn.commit(constraint="serializability") == txn.read_state

            def write_free_with_a_bogus_end_constraint():
                txn = client.begin(read_only=True)
                txn.get("x")
                with pytest.raises(ServerError) as exc_info:
                    txn.commit(constraint="nope")
                assert exc_info.value.code == "BAD_CONSTRAINT"
                assert txn.status == "active"
                txn.commit()

            assert _frames(client.stats, read_only) == 1
            assert _frames(client.stats, read_modify_write) == 2
            assert _frames(client.stats, blind_writes) == 1
            assert _frames(client.stats, merge) == 2
            assert _frames(client.stats, begin_then_abort) == 0
            assert _frames(client.stats, write_free_with_an_end_constraint) == 2
            assert _frames(client.stats, write_free_with_a_bogus_end_constraint) == 2
            assert client.get_many(["x", "n", "key-0", "key-99", "merged", "never"]) == [
                2, 1, None, 99, True, None,
            ]
            assert client.stats()["open_txns"] == 0

    def test_with_blocks_cost_what_explicit_calls_do(self, served):
        _fork(served.port)
        with TardisClient(port=served.port) as client:

            def read_modify_write():
                with client.begin() as txn:
                    txn.put("n", txn.get("n", default=0) + 1)

            def write_free():
                with client.begin() as txn:
                    txn.get("x")

            def write_free_with_an_end_constraint():
                with client.begin() as txn:
                    txn.get("x")
                    assert txn.commit(constraint="any") == txn.read_state

            def merge():
                with client.merge() as txn:
                    for conflict in txn.conflicts:
                        txn.put(conflict["key"], max(conflict["values"]))
                assert txn.status == "committed"

            def raised():
                with pytest.raises(RuntimeError):
                    with client.begin() as txn:
                        txn.put("never", 1)
                        raise RuntimeError("boom")
                assert txn.status == "aborted"

            work = [read_modify_write, write_free, write_free_with_an_end_constraint, merge, raised]
            assert [_frames(client.stats, w) for w in work] == [2, 1, 2, 2, 0]
            assert client.get_many(["n", "x", "never"]) == [1, 2, None]
            assert client.stats()["open_txns"] == 0


# ---------------------------------------------------------------------------
# A write-free commit returns locally; the server learns with the
# connection's next frame, whatever that frame is, or with the disconnect.


def _state_named(store, name):
    with store._lock:
        (state,) = [s for s in store.dag.states() if repr(s.id) == name]
    return state


def _anchors_seen_by_begin(store, session_name):
    """Wrap ``store.begin``: the session's anchor as each of its begins
    finds it. Returns (the list it fills, the function to put back)."""
    original, anchors = store.begin, []

    def begin(*args, **kwargs):
        if kwargs["session"].name == session_name:
            anchors.append(repr(kwargs["session"].last_commit_id))
        return original(*args, **kwargs)

    store.begin = begin
    return anchors, original


class TestDeferredClose:
    def test_the_anchor_is_in_place_before_the_sessions_next_begin(self, served):
        store = served.store
        a = TardisClient(port=served.port, session="A")
        b = TardisClient(port=served.port, session="B")
        try:
            a.put("x", 0)
            b.put("x", 1)
            reader = a.begin(read_only=True)
            assert reader.get("x") == 1
            read_at = reader.commit()  # local: the server has not heard
            assert repr(store.session("A").last_commit_id) != read_at
            b.put("x", 2)
            anchors, original = _anchors_seen_by_begin(store, "A")
            try:
                later = a.begin(constraint="ancestor")
                assert later.get("x") == 2
            finally:
                store.begin = original
            # The close rode ahead of the begin, in the same frame.
            assert anchors == [read_at]
            assert later.read_state != read_at
            with store._lock:
                assert store.dag.descendant_check(
                    _state_named(store, read_at),
                    _state_named(store, later.read_state),
                )
            later.commit()
        finally:
            a.close()
            b.close()

    def test_a_with_block_read_anchors_the_next_begin(self, served):
        store = served.store
        with TardisClient(port=served.port, session="A") as a, TardisClient(
            port=served.port, session="B"
        ) as b:
            b.put("x", 1)
            with a.begin(read_only=True) as reader:
                assert reader.get("x") == 1
            assert reader.status == "committed"
            assert reader.commit_state == reader.read_state
            b.put("x", 2)
            anchors, original = _anchors_seen_by_begin(store, "A")
            try:
                later = a.begin()
                assert later.get("x") == 2
            finally:
                store.begin = original
            assert anchors == [reader.commit_state]
            later.commit()

    @staticmethod
    def _next_frames(client):
        """One call per kind of frame a close can ride on."""

        def read_with_begin():
            txn = client.begin()
            txn.get("x", default=None)
            txn.abort()

        def merge():
            client.merge().abort()

        return [read_with_begin, merge, client.stats, client.close]

    def test_no_pin_outlives_the_connections_next_frame(self, served):
        store = served.store
        for n in range(4):
            client = TardisClient(port=served.port, session="pins-%d" % n)
            try:
                with client.begin(read_only=True) as txn:
                    txn.get("x", default=None)
                assert txn.status == "committed"
                # Closed here, open there: one pin, until the next frame.
                assert _total_pins(store) == 1
                assert TestAbandonedRequest._open_txns(served.port) == 1
                self._next_frames(client)[n]()
                assert _total_pins(store) == 0
                assert TestAbandonedRequest._open_txns(served.port) == 0
            finally:
                client.close()
        assert store.metrics.read_only_commits == 4

    def test_autocommit_reads_hold_one_pin_until_the_next_frame(self, served):
        store = served.store
        with TardisClient(port=served.port) as client:
            assert client.get("x") is None  # one frame; its close waits
            assert _total_pins(store) == 1
            assert client.stats()["open_txns"] == 0  # this frame carried it
            assert _total_pins(store) == 0
            assert client.get_many(["x", "y"]) == [None, None]
            merge = client.merge()
            assert _total_pins(store) == 1  # the merge's own
            merge.abort()
            assert client.get("x") is None
        assert _total_pins(store) == 0  # BYE carried the last one
        assert store.metrics.read_only_commits == 3

    def test_a_bare_socket_drop_releases_the_pin(self, served):
        store = served.store
        client = TardisClient(port=served.port, session="dropper")
        assert client.get("x") is None
        assert _total_pins(store) == 1
        client._sock.close()  # the close never travels: cleanup aborts
        assert _wait_until(lambda: store.sessions() == [])
        assert _total_pins(store) == 0
        assert TestAbandonedRequest._open_txns(served.port) == 0

    def test_a_frame_that_cannot_be_encoded_does_not_lose_the_closes(
        self, served, monkeypatch
    ):
        from repro.server.handlers import WireSession

        delivered = []
        commit_closed = WireSession.commit_closed

        def spy(session, closed):
            delivered.append(list(closed))
            commit_closed(session, closed)

        monkeypatch.setattr(WireSession, "commit_closed", spy)
        blob = "v" * (40 * 1024)
        with TardisClient(port=served.port) as client:
            reader = client.begin(read_only=True)
            reader.get("x", default=None)
            reader.commit()
            unframeable = client.begin()
            unframeable.put("bad", object())
            with pytest.raises(TypeError):
                unframeable.commit()
            unframeable.abort()
            assert delivered == [] and client._closed == [reader._txn_id]

            def big_txn():
                txn = client.begin()
                for i in range(64):  # 2.5 MiB: FrameTooLarge, then halves
                    txn.put("big-%02d" % i, blob + str(i))
                txn.commit()

            assert _frames(client.stats, big_txn) == 4
            # Exactly once, on the first frame that did encode.
            assert delivered == [[reader._txn_id]]
            assert client.stats()["open_txns"] == 0
        assert _total_pins(served.store) == 0

    def test_every_deferred_close_is_delivered_by_a_clean_shutdown(self):
        handle = TardisServer(site="deliver-test", drain_timeout=2.0).start()
        store = handle.store
        clients = [TardisClient(port=handle.port, session="s%d" % i) for i in range(3)]
        try:
            clients[0].put("x", 1)
            for n, client in enumerate(clients, start=1):
                for _ in range(n):
                    assert client.get("x") == 1
        finally:
            for client in clients:
                client.close()
        report = handle.shutdown()
        assert report["leaked_sessions"] == []
        assert report["drained_in_time"] is True
        assert report["disconnect_aborts"] == 0  # delivered, not aborted
        assert store.metrics.read_only_commits == 1 + 2 + 3
        assert report["commits"] == 1 + store.metrics.read_only_commits


class TestBufferedWrites:
    def test_a_closed_handle_refuses_writes_locally(self, served):
        with TardisClient(port=served.port) as client:
            committed = client.begin()
            committed.put("x", 1)
            committed.commit()
            aborted = client.begin()
            aborted.abort()

            def attempts():
                for txn in (committed, aborted):
                    for call in (lambda: txn.put("x", 2), lambda: txn.delete("x")):
                        with pytest.raises(TransactionClosed):
                            call()
                    assert txn._writes == []

            assert _frames(client.stats, attempts) == 0
            assert client.get("x") == 1

    def test_a_read_only_handle_refuses_writes_without_a_frame(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin(read_only=True)

            def attempts():
                for call in (lambda: txn.put("x", 1), lambda: txn.delete("x")):
                    with pytest.raises(ServerError) as exc_info:
                        call()
                    assert exc_info.value.code == "READ_ONLY"

            assert _frames(client.stats, attempts) == 0
            assert txn.status == "active" and txn._writes == []
            txn.commit()

    def test_an_unframeable_request_costs_an_id_not_the_buffer(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            txn.put("good", 1)
            txn.put("bad", object())  # not JSON: only framing finds out
            for call in (lambda: txn.get("good"), txn.commit):
                with pytest.raises(TypeError):
                    call()
            assert txn.status == "active"
            assert [w["key"] for w in txn._writes] == ["good", "bad"]
            txn.abort()  # never sent anything: local
            assert txn.status == "aborted"
            assert client.get("good") is None  # the link survived
            assert client.stats()["open_txns"] == 0

    def test_an_error_answer_on_an_open_txn_keeps_the_buffer(self, served):
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            assert txn.get("a", default=None) is None
            txn.put("a", 1)
            txn.put(("not", "scalar"), 2)  # the server refuses the batch whole
            for call in (lambda: txn.get("a"), txn.commit):
                with pytest.raises(ServerError) as exc_info:
                    call()
                assert exc_info.value.code == "BAD_REQUEST"
            # Nothing was silently dropped: the handle is open, holds
            # both writes, and can only be aborted.
            assert txn.status == "active" and len(txn._writes) == 2
            txn.abort()
            assert client.get("a") is None
            assert client.stats()["open_txns"] == 0

    def test_a_read_carrying_more_writes_than_one_frame_holds(self, served):
        blob = "v" * (40 * 1024)
        with TardisClient(port=served.port) as client:
            txn = client.begin()

            def big_read():
                for i in range(64):
                    txn.put("big-%02d" % i, blob + str(i))
                assert txn.get("big-63") == blob + "63"  # its own write

            # 3 WRITE frames (the first carries the BEGIN), then the READ.
            assert _frames(client.stats, big_read) == 4
            assert isinstance(txn.read_state, str) and txn._writes == []
            txn.commit()
            assert client.get("big-00") == blob + "0"

    def test_a_refused_first_half_fails_the_begin_as_a_unit(self, served):
        blob = "v" * (40 * 1024)
        with TardisClient(port=served.port) as client:
            txn = client.begin()
            txn.put(("not", "scalar"), 1)  # in the first WRITE frame
            for i in range(63):
                txn.put("big-%02d" % i, blob)

            def refused():
                with pytest.raises(ServerError) as exc_info:
                    txn.commit()
                assert exc_info.value.code == "BAD_REQUEST"

            assert _frames(client.stats, refused) == 1  # the rest never left
            assert txn.status == "aborted"
            assert client.stats()["open_txns"] == 0
            assert client.get("big-00") is None

    def test_more_writes_than_one_frame_holds_still_commit(self, served):
        blob = "v" * (40 * 1024)
        with TardisClient(port=served.port) as client:

            def big_txn():
                txn = client.begin()
                for i in range(64):  # 2.5 MiB against the 1 MiB frame cap
                    txn.put("big-%02d" % i, blob + str(i))
                txn.commit()

            # Halved until it fits: 3 WRITE frames of 16 and the COMMIT
            # carrying the last 16.
            assert _frames(client.stats, big_txn) == 4
            values = client.get_many(["big-%02d" % i for i in (0, 31, 32, 63)])
            assert values == [blob + str(i) for i in (0, 31, 32, 63)]
            # One write that is too large by itself raises, as before.
            txn = client.begin()
            txn.put("small", 1)
            txn.put("huge", "v" * (MAX_FRAME + 1))
            with pytest.raises(FrameTooLarge):
                txn.commit()
            assert txn.status == "active"
            txn.abort()
            assert client.stats()["open_txns"] == 0
            assert client.get("small") is None

# ---------------------------------------------------------------------------
# A request answered TIMEOUT must not leave behind a transaction whose id
# no client ever learned.


class TestTimedOutBegin:
    @pytest.mark.parametrize("piggy_backed", [False, True])
    def test_a_begin_answered_timeout_is_undone(self, piggy_backed):
        handle = TardisServer(site="timeout-test", request_timeout=0.1).start()
        store = handle.store
        client = TardisClient(port=handle.port, session="slow")
        try:
            original = TestAbandonedRequest._slow_begin(store, 0.3)
            try:
                with pytest.raises(ServerError) as exc_info:
                    if piggy_backed:
                        txn = client.begin()
                        txn.put("x", 1)
                        txn.get("x")
                    else:  # a begin with nothing else to do, as a raw client may send
                        client._call("WRITE", {"begin": {}, "writes": []})
                assert exc_info.value.code == "TIMEOUT"
            finally:
                store.begin = original
            if piggy_backed:
                assert txn.status == "aborted"
            # The slow handler runs to its end behind the answer (a STATS
            # queued behind it would time out too); the undo behind it
            # leaves nothing open.
            time.sleep(0.35)
            assert client.stats()["open_txns"] == 0
            assert _total_pins(store) == 0
            assert client.get("x") is None
        finally:
            # Still connected: the drain has nothing to wait for.
            report = handle.shutdown(drain_timeout=1.0)
            client.close()
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []

    def test_a_late_answer_is_dropped_and_the_next_request_keeps_its_id(self):
        handle = TardisServer(site="late-test", request_timeout=0.1).start()
        store = handle.store
        try:
            with _Raw(handle.port) as raw:
                original = TestAbandonedRequest._slow_begin(store, 0.3)
                try:
                    answer = raw.ask({"id": 7, "op": "READ", "begin": {}, "key": "x"})
                finally:
                    store.begin = original
                assert answer["id"] == 7
                assert answer["error"]["code"] == "TIMEOUT"
                time.sleep(0.35)  # the handler finishes: its answer goes nowhere
                # Exactly one frame answered 7: a second would be read here.
                stats = raw.ask({"id": 8, "op": "STATS"})
                assert stats["id"] == 8 and stats["ok"] is True
                assert stats["stats"]["open_txns"] == 0
                assert stats["stats"]["timeouts_total"] == 1
                assert stats["stats"]["inflight"] == 1  # this STATS itself
        finally:
            report = handle.shutdown(drain_timeout=1.0)
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []


# ---------------------------------------------------------------------------
# A constructor whose HELLO is refused gives the server its slot back.


class TestRefusedHello:
    def test_sync_constructor_closes_its_socket(self, served):
        with TardisClient(port=served.port, session="solo") as holder:
            before = holder.stats()["connections_active"]
            # exc_info keeps the half-built client alive: no GC closes it.
            with pytest.raises(ServerError) as exc_info:
                TardisClient(port=served.port, session="solo")
            assert exc_info.value.code == "SESSION_IN_USE"
            assert _wait_until(
                lambda: holder.stats()["connections_active"] == before
            ), "the refused constructor left its socket open"

# ---------------------------------------------------------------------------
# What the stream reader/writer used to give for free, pinned against the
# store thread's socket loop with raw sockets.


class _Raw:
    """A raw socket speaking frames: what a client library would hide."""

    def __init__(self, port, session=None, hello=True, rcvbuf=None):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:  # before connect: it bounds the window
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.sock.settimeout(5.0)
        self.sock.connect(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.decoder = FrameDecoder()
        if hello:
            assert self.ask({"id": 0, "op": "HELLO", "session": session})["ok"]

    def send(self, *requests):
        self.sock.sendall(b"".join(encode_frame(r) for r in requests))

    def frame(self):
        """The next frame the server wrote, or None at EOF."""
        while True:
            frame = self.decoder.next_frame()
            if frame is not None:
                return frame
            data = self.sock.recv(65536)
            if not data:
                return None
            self.decoder.feed(data)

    def ask(self, request):
        self.send(request)
        return self.frame()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()


class TestCallbackTransport:
    def test_fifty_requests_in_one_sendall_are_answered_in_order(self, served):
        with _Raw(served.port) as raw:
            requests = [{"id": 1, "op": "WRITE", "begin": {}, "key": "k1", "value": 1}]
            requests += [
                {"id": i, "op": "WRITE", "txn": 1, "key": "k%d" % i, "value": i}
                for i in range(2, 50)
            ]
            requests.append({"id": 50, "op": "COMMIT", "txn": 1})
            raw.send(*requests)
            answers = [raw.frame() for _ in requests]
        assert [a["id"] for a in answers] == list(range(1, 51))
        assert all(a["ok"] for a in answers)
        with TardisClient(port=served.port) as client:
            assert client.get_many(["k1", "k2", "k49"]) == [1, 2, 49]

    def test_a_frame_delivered_one_byte_per_send_decodes(self, served):
        with _Raw(served.port, hello=False) as raw:
            for byte in encode_frame({"id": 9, "op": "HELLO", "session": "drip"}):
                raw.sock.send(bytes([byte]))
            answer = raw.frame()
        assert answer["id"] == 9 and answer["session"] == "drip"

    def test_half_close_still_gets_every_answer_then_eof(self, served):
        with _Raw(served.port) as raw:
            raw.send(
                {"id": 1, "op": "READ", "begin": {}, "key": "x"},
                {"id": 2, "op": "WRITE", "txn": 1, "key": "x", "value": 1},
                {"id": 3, "op": "COMMIT", "txn": 1},
            )
            raw.sock.shutdown(socket.SHUT_WR)
            answers = [raw.frame() for _ in range(3)]
            assert [a["id"] for a in answers] == [1, 2, 3]
            assert all(a["ok"] for a in answers)
            assert raw.frame() is None  # then the server closes its half
        assert _wait_until(lambda: served.store.sessions() == [])

    def test_frames_pipelined_behind_bye_are_not_run(self, served):
        with _Raw(served.port) as raw:
            started = served._stats["requests_total"]
            raw.send({"id": 1, "op": "BYE"}, {"id": 2, "op": "STATS"})
            assert raw.frame()["id"] == 1
            assert raw.frame() is None  # closed after the BYE's answer
        assert served._stats["requests_total"] == started + 1

    def test_a_peer_that_never_reads_stalls_only_itself(self, served):
        server = served
        keys = ["big%d" % i for i in range(16)]
        with TardisClient(port=served.port, session="other") as other:
            txn = other.begin()
            for key in keys:
                txn.put(key, "v" * 32768)  # one READ_MANY answer: ~512 KiB
            txn.commit()
            with _Raw(served.port, session="deaf", rcvbuf=65536) as raw:
                first = {"id": 1, "op": "READ", "begin": {"read_only": True}, "key": "small"}
                assert raw.ask(first)["txn"] == 1
                (conn,) = [
                    c for c in server._conns.values()
                    if c.session.bound.name == "deaf"
                ]
                pipelined = 40  # ~20 MiB of answers: no socket buffer holds that
                raw.send(*[
                    {"id": 2 + i, "op": "READ_MANY", "txn": 1, "keys": keys}
                    for i in range(pipelined)
                ])
                assert _wait_until(lambda: conn.paused and server._inflight == 0)
                started = server._stats["requests_total"]
                time.sleep(0.2)
                # Paused: nothing more of this connection is started, and
                # what is buffered is one answer past the high-water mark.
                assert server._stats["requests_total"] == started
                assert conn.decoder.pending() > 0
                assert len(conn.out) <= HIGH_WATER + MAX_FRAME + 4
                # Everybody else is served meanwhile.
                other.put("small", 1)
                assert other.get("small") == 1
                # Once the peer reads, the rest is started and answered.
                ids = [raw.frame()["id"] for _ in range(pipelined)]
                assert ids == list(range(2, 2 + pipelined))
                assert not conn.paused
            assert _wait_until(
                lambda: [s.name for s in server.store.sessions()] == ["other"]
            )

    @pytest.mark.parametrize("reset", [False, True])
    def test_a_socket_dropped_while_its_handler_runs_leaks_nothing(self, served, reset):
        server, store = served, served.store
        raw = _Raw(served.port, session="dropper")
        original = TestAbandonedRequest._slow_begin(store, 0.3)
        try:
            raw.send({"id": 1, "op": "READ", "begin": {}, "key": "x"})
            assert _wait_until(lambda: server._inflight == 1)
            if reset:  # RST instead of FIN: connection_lost comes at once
                linger = struct.pack("ii", 1, 0)
                raw.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            raw.sock.close()
            # Cleanup queues behind the handler: the session is still
            # there while it runs, and gone (with its txn) after.
            assert any(s.name == "dropper" for s in store.sessions())
        finally:
            time.sleep(0.35)
            store.begin = original
        assert _wait_until(lambda: store.sessions() == [])
        assert _wait_until(lambda: server._inflight == 0 and not server._conns)
        assert _total_pins(store) == 0
        assert TestAbandonedRequest._open_txns(served.port) == 0
        assert server._stats["disconnect_aborts"] == 1

    def test_refusals_are_answered_before_the_close(self):
        handle = TardisServer(site="cap-test", max_connections=1).start()
        try:
            with TardisClient(port=handle.port, session="holder") as holder:
                with _Raw(handle.port, hello=False) as extra:
                    refusal = extra.frame()
                    assert refusal["error"]["code"] == "SERVER_BUSY"
                    assert extra.frame() is None
                assert holder.stats()["connections_rejected"] == 1
            assert _wait_until(lambda: not handle._conns)
            with _Raw(handle.port, hello=False) as raw:
                raw.sock.sendall(HEADER.pack(MAX_FRAME + 1))
                assert raw.frame()["error"]["code"] == "FRAME_TOO_LARGE"
                assert raw.frame() is None
        finally:
            handle.shutdown()


class TestRequestPath:
    """A request runs from ``recv`` to ``send`` on the store thread."""

    def test_an_accepted_socket_has_nodelay(self, served):
        with _Raw(served.port):
            (conn,) = served._conns.values()
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_a_pipelined_burst_does_not_starve_another_connection(
        self, served, monkeypatch
    ):
        read = HANDLERS["READ"]

        def slow_read(server, session, request):
            time.sleep(0.005)
            return read(server, session, request)

        monkeypatch.setitem(HANDLERS, "READ", slow_read)
        burst = 50
        arrivals = []
        with _Raw(served.port, session="burst") as pipe, _Raw(served.port) as other:

            def drain():
                for _ in range(burst - 1):
                    arrivals.append((pipe.frame()["id"], time.perf_counter()))

            pipe.send(
                {"id": 1, "op": "READ", "begin": {}, "key": "x"},
                *[{"id": i, "op": "READ", "txn": 1, "key": "x"} for i in range(2, burst + 1)],
            )
            assert pipe.frame()["id"] == 1
            reader = threading.Thread(target=drain)
            reader.start()
            assert other.ask({"id": 1, "op": "READ", "begin": {}, "key": "y"})["ok"]
            answered = time.perf_counter()
            reader.join(timeout=10.0)
        assert [i for i, _at in arrivals] == list(range(2, burst + 1))
        # One request per connection per round: the second connection
        # waits for one READ of the burst, not for all of them.
        assert answered < arrivals[-1][1]

    def test_timeouts_racing_answers_leave_one_frame_per_request(self, monkeypatch):
        # The watchdog and the store thread both may answer a request; the
        # connection's lock must let exactly one of them, every time.
        handle = TardisServer(site="race-test", request_timeout=0.02).start()
        stats = HANDLERS["STATS"]

        def jittery(server, session, request):
            time.sleep(request["sleep"])  # under, or well over, the timeout
            return stats(server, session, request)

        monkeypatch.setitem(HANDLERS, "STATS", jittery)
        codes, errors = [], []

        def client(seed):
            rng = random.Random(seed)
            try:
                with _Raw(handle.port) as raw:
                    for i in range(15):
                        sleep = rng.choice((0.0, 0.005, 0.04))
                        answer = raw.ask({"id": i, "op": "STATS", "sleep": sleep})
                        assert answer["id"] == i, answer
                        codes.append("ok" if answer["ok"] else answer["error"]["code"])
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, exc))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client, args=(seed,)) for seed in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
            report = handle.shutdown()
        assert errors == []
        assert len(codes) == 60 and set(codes) <= {"ok", "TIMEOUT"}
        assert report["timeouts_total"] == codes.count("TIMEOUT") > 0
        assert report["requests_total"] == 4 + 60  # the HELLOs and the STATS
        assert handle._inflight == 0
        assert report["leaked_sessions"] == []


# ---------------------------------------------------------------------------
# The store thread and the watchdog: two per started server, joined by its
# shutdown, and a step that raises does not end the store thread.


def _new_threads(before):
    return set(threading.enumerate()) - before


_EMFILE_PROBE = """
import json, os, resource, socket, time
from repro.server.protocol import FrameDecoder, encode_frame
from repro.server.server import TardisServer

server = TardisServer(site="emfile").start()
resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
fillers = []
try:
    while True:
        fillers.append(os.open(os.devnull, os.O_RDONLY))
except OSError:
    pass
os.close(fillers.pop())  # room for the client's socket, none for the accept
client = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
cpu = lambda: sum(resource.getrusage(resource.RUSAGE_SELF)[:2])
before = cpu()
time.sleep(0.5)
cpu_s = cpu() - before
accepted = server._stats["connections_total"]
os.close(fillers.pop())  # room for the accept
client.sendall(encode_frame({"id": 0, "op": "HELLO", "session": "late"}))
decoder, answer = FrameDecoder(), None
while answer is None:
    decoder.feed(client.recv(65536))
    answer = decoder.next_frame()
client.close()
for fd in fillers:
    os.close(fd)
report = server.shutdown()
print(json.dumps({"cpu_s": cpu_s, "accepted": accepted, "hello_ok": answer["ok"],
                  "leaked": report["leaked_sessions"]}))
"""


class TestStoreThread:
    def test_a_failed_job_reaches_threading_excepthook_and_the_thread_serves_on(
        self, served, monkeypatch
    ):
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        original = WireSession.close
        failed = []

        def close_fails_once(session):
            if not failed:
                failed.append(session)
                raise RuntimeError("close failed")
            return original(session)

        monkeypatch.setattr(WireSession, "close", close_fails_once)
        with TardisClient(port=served.port, session="bystander") as bystander:
            victim = TardisClient(port=served.port, session="victim")
            victim._sock.close()  # its disconnect cleanup is the step that raises
            assert _wait_until(lambda: seen)
            (args,) = seen
            assert args.thread.name == "tardis-store"
            assert str(args.exc_value) == "close failed"
            # The thread serves on: another client's next request is answered.
            bystander.put("after", 1)
            assert bystander.get("after") == 1
            # The failed cleanup left the victim's session open; a second
            # run of it, from here while the store thread is idle, closes it.
            served._cleanup_sync(failed[0])
            assert len(served._conns) == 1
            assert [s.name for s in served.store.sessions()] == ["bystander"]
        assert served.shutdown()["leaked_sessions"] == []

    def test_a_failed_request_step_drops_only_its_connection(self, served, monkeypatch):
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        original = _Connection.write

        def write_fails_once(conn, frame):
            bound = conn.session.bound
            if not seen and bound is not None and bound.name == "victim":
                raise RuntimeError("write failed")
            return original(conn, frame)

        with TardisClient(port=served.port, session="bystander") as bystander:
            victim = TardisClient(port=served.port, session="victim")
            monkeypatch.setattr(_Connection, "write", write_fails_once)
            # The victim's answer is never written: its link is dropped.
            with pytest.raises(NetworkError):
                victim.get("k")
            (args,) = seen
            assert args.thread.name == "tardis-store"
            assert str(args.exc_value) == "write failed"
            # That connection's cleanup ran: its session is closed.
            assert _wait_until(
                lambda: [s.name for s in served.store.sessions()] == ["bystander"]
            )
            assert len(served._conns) == 1
            # The thread serves on: another client's next request is answered.
            bystander.put("after", 1)
            assert bystander.get("after") == 1
            victim.close()
        assert served.shutdown()["leaked_sessions"] == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux accept(2) semantics")
    def test_an_accept_out_of_descriptors_backs_off_and_recovers(self):
        # A subprocess, because it lowers its own descriptor limit.
        proc = subprocess.run(
            [sys.executable, "-c", _EMFILE_PROBE],
            env=_src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        # No descriptor for the accept: the connection waits in the
        # backlog, and the store thread retries every 10 ms, not in a spin.
        assert out["accepted"] == 0
        assert out["cpu_s"] < 0.1, out
        # One descriptor freed: the next retry accepts and serves it.
        assert out["hello_ok"] is True
        assert out["leaked"] == []

    def test_a_server_never_started_starts_no_thread(self):
        before = set(threading.enumerate())
        TardisServer(TardisStore("cold"))
        assert _new_threads(before) == set()

    def test_a_failed_bind_leaves_no_store_thread(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            before = set(threading.enumerate())
            with pytest.raises(OSError):
                TardisServer(site="bind-test", port=holder.getsockname()[1]).start()
            assert _new_threads(before) == set()

    def test_stop_joins_the_store_thread(self):
        before = set(threading.enumerate())
        handle = TardisServer(site="join-thread-test").start()
        started = _new_threads(before)
        assert {t.name for t in started} == {"tardis-store", "tardis-watchdog"}
        with TardisClient(port=handle.port) as client:
            client.put("x", 1)
        assert handle.shutdown()["leaked_sessions"] == []
        assert _new_threads(before) == set()
        assert not any(t.is_alive() for t in started)


# ---------------------------------------------------------------------------
# The plain lifecycle: ``start()`` binds and starts two threads, and
# ``shutdown()`` on the caller's thread undoes all of it.


def _hold(monkeypatch):
    """Make a STATS request carrying ``hold`` keep the store thread in its
    handler until the returned event is set (or 10 s pass)."""
    gate = threading.Event()
    stats = HANDLERS["STATS"]

    def holding(server, session, request):
        if request.get("hold"):
            gate.wait(10.0)
        return stats(server, session, request)

    monkeypatch.setitem(HANDLERS, "STATS", holding)
    return gate


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


_PROC_FDS = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="lists descriptors through /proc"
)


class TestLifecycle:
    def test_start_returns_the_server_with_its_bound_port(self):
        server = TardisServer(site="start-test")
        try:
            assert server.start() is server
            assert server.port != 0
            assert server.address == "127.0.0.1:%d" % server.port
            with TardisClient(port=server.port) as client:
                assert client.site == "start-test"
        finally:
            server.shutdown()

    @_PROC_FDS
    def test_a_failed_bind_leaves_no_socket_open(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            before = _open_fds()
            with pytest.raises(OSError):
                TardisServer(site="bind-fd-test", port=holder.getsockname()[1]).start()
            assert _open_fds() - before == set()

    def test_a_failed_bind_closes_the_store_it_built(self):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            server = TardisServer(
                site="bind-store-test", shards=2, shard_workers=1,
                port=holder.getsockname()[1],
            )
            worker = server.store.versions._links[0].process
            with pytest.raises(OSError):
                server.start()
        # The worker was stopped, not left for a later shutdown() to reap.
        assert not worker.is_alive()
        assert worker.exitcode == 0
        report = server.shutdown()
        assert report["leaked_workers"] == 0
        assert report["leaked_sessions"] == []

    def test_a_failed_bind_leaves_a_store_passed_in_open(self):
        store = TardisStore("lent-bind", shards=2, shard_workers=1)
        try:
            store.put("x", 1)
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
                holder.bind(("127.0.0.1", 0))
                holder.listen()
                server = TardisServer(store, port=holder.getsockname()[1])
                with pytest.raises(OSError):
                    server.start()
            assert store.get("x") == 1
            assert server.shutdown()["leaked_workers"] == 0
            assert store.get("x") == 1
        finally:
            store.close()
        assert store.leaked_workers == 0

    def test_shutdown_twice_returns_the_same_report(self):
        handle = TardisServer(site="twice-test").start()
        first = handle.shutdown()
        assert handle.shutdown() is first
        assert handle.report is first

    def test_a_server_never_started_shuts_down_clean(self):
        before = set(threading.enumerate())
        report = TardisServer(site="cold-stop").shutdown()
        assert _new_threads(before) == set()
        assert report["drained_in_time"] is True
        assert report["forced_closes"] == 0
        assert report["leaked_sessions"] == []
        assert report["requests_total"] == 0

    def test_after_shutdown_the_port_refuses_connections(self):
        handle = TardisServer(site="refuse-test").start()
        handle.shutdown()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", handle.port), timeout=5.0).close()

    def test_shutdown_closes_every_socket_the_server_made(self):
        handle = TardisServer(site="close-test").start()
        with TardisClient(port=handle.port) as client:
            client.put("x", 1)
        handle.shutdown()
        assert [s.fileno() for s in (handle._listener, handle._wake, handle._waker)] == [-1] * 3

    @_PROC_FDS
    def test_a_server_started_and_stopped_holds_no_descriptor(self):
        before = _open_fds()
        handle = TardisServer(site="fd-test").start()
        with TardisClient(port=handle.port) as client:
            client.put("x", 1)
        handle.shutdown()
        # The listener, the bell's two ends, the selector and the
        # accepted connection are all closed.
        assert _open_fds() - before == set()

    def test_a_drain_timeout_passed_to_shutdown_overrides_the_constructors(self):
        handle = TardisServer(site="override-test", drain_timeout=30.0).start()
        client = TardisClient(port=handle.port, session="straggler")
        try:
            txn = client.begin()
            txn.put("x", 1)
            assert txn.get("x") == 1  # holds writes: the drain waits for it
            started = time.perf_counter()
            report = handle.shutdown(drain_timeout=0.1)
            took = time.perf_counter() - started
        finally:
            client.close()
        assert took < 5.0
        assert report["drained_in_time"] is False
        assert report["forced_closes"] == 1
        assert report["leaked_sessions"] == []

    def test_a_store_passed_in_outlives_the_server(self):
        store = TardisStore("lent", shards=2, shard_workers=1)
        try:
            handle = TardisServer(store).start()
            with TardisClient(port=handle.port) as client:
                client.put("x", 1)
            assert handle.shutdown()["leaked_workers"] == 0
            # The server closes only a store it built: the workers serve on.
            assert store.begin().get("x") == 1
        finally:
            store.close()
        assert store.leaked_workers == 0

    def test_shutdown_does_not_wait_out_the_watchdogs_period(self):
        # The watchdog looks every request_timeout / 8 = 7.5 s; it sleeps
        # on an event that shutdown sets, not in time.sleep.
        handle = TardisServer(site="slow-watch", request_timeout=60.0).start()
        time.sleep(0.05)
        started = time.perf_counter()
        handle.shutdown()
        assert time.perf_counter() - started < 2.0
        assert not handle._watchdog.is_alive()

    def test_an_ipv6_host_is_served(self):
        try:
            with socket.socket(socket.AF_INET6, socket.SOCK_STREAM) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        handle = TardisServer(host="::1", site="v6").start()
        try:
            assert handle._listener.family == socket.AF_INET6
            with TardisClient(host="::1", port=handle.port) as client:
                client.put("x", 1)
                assert client.get("x") == 1
        finally:
            report = handle.shutdown()
        assert report["leaked_sessions"] == []

    def test_two_servers_run_side_by_side(self):
        left = TardisServer(site="left").start()
        right = TardisServer(site="right").start()
        try:
            with TardisClient(port=left.port) as a, TardisClient(port=right.port) as b:
                a.put("x", "left")
                b.put("x", "right")
            left.shutdown()
            # One server's shutdown stops its own threads only.
            with TardisClient(port=right.port) as b:
                assert b.get("x") == "right"
            assert left.store.begin().get("x") == "left"
        finally:
            left.shutdown()
            report = right.shutdown()
        assert report["leaked_sessions"] == []

    @pytest.mark.skipif(
        not hasattr(time, "pthread_getcpuclockid"), reason="per-thread CPU clocks"
    )
    def test_an_idle_server_burns_no_cpu(self):
        handle = TardisServer(site="idle-cpu").start()
        try:
            with TardisClient(port=handle.port) as client:
                client.put("x", 1)
            assert _wait_until(lambda: not handle._conns)
            clocks = [
                time.pthread_getcpuclockid(t.ident) for t in (handle._thread, handle._watchdog)
            ]
            before = [time.clock_gettime(c) for c in clocks]
            time.sleep(0.5)
            spent = [time.clock_gettime(c) - b for c, b in zip(clocks, before)]
        finally:
            handle.shutdown()
        # The store thread blocks in select, the watchdog on its event.
        assert max(spent) < 0.05, spent


class TestAcceptLoop:
    def test_connections_that_queue_while_a_handler_runs_are_all_accepted(
        self, served, monkeypatch
    ):
        gate = _hold(monkeypatch)
        try:
            with _Raw(served.port) as holder:
                holder.send({"id": 1, "op": "STATS", "hold": True})
                assert _wait_until(lambda: served._inflight == 1)
                queued = [_Raw(served.port, hello=False) for _ in range(20)]
                try:
                    # The kernel completed them; the store thread is busy.
                    assert served._stats["connections_total"] == 1
                    gate.set()
                    assert holder.frame()["id"] == 1
                    for i, raw in enumerate(queued):
                        assert raw.ask({"id": 0, "op": "HELLO", "session": "q%d" % i})["ok"]
                    assert served._stats["connections_total"] == 21
                finally:
                    for raw in queued:
                        raw.sock.close()
        finally:
            gate.set()
        assert _wait_until(lambda: served.store.sessions() == [])

    def test_a_queued_burst_past_the_cap_is_refused_but_for_one(self, monkeypatch):
        handle = TardisServer(site="burst-cap", max_connections=2).start()
        gate = _hold(monkeypatch)
        try:
            with _Raw(handle.port) as holder:
                holder.send({"id": 1, "op": "STATS", "hold": True})
                assert _wait_until(lambda: handle._inflight == 1)
                queued = [_Raw(handle.port, hello=False) for _ in range(5)]
                try:
                    gate.set()
                    assert holder.frame()["id"] == 1
                    socks = [raw.sock for raw in queued]
                    assert _wait_until(lambda: len(select.select(socks, [], [], 0)[0]) == 4)
                    readable = select.select(socks, [], [], 0)[0]
                    refused = [raw for raw in queued if raw.sock in readable]
                    (kept,) = [raw for raw in queued if raw.sock not in readable]
                    for raw in refused:
                        assert raw.frame()["error"]["code"] == "SERVER_BUSY"
                        assert raw.frame() is None
                    assert kept.ask({"id": 0, "op": "HELLO", "session": "kept"})["ok"]
                finally:
                    for raw in queued:
                        raw.sock.close()
        finally:
            gate.set()
            report = handle.shutdown()
        assert report["connections_total"] == 2
        assert report["connections_rejected"] == 4
        assert report["leaked_sessions"] == []

    def test_an_aborted_accept_puts_the_listener_back(self, served, monkeypatch):
        accept = socket.socket.accept
        aborted = []

        def aborts_once(sock):
            if not aborted:
                aborted.append(sock)
                raise ConnectionAbortedError(errno.ECONNABORTED, "aborted")
            return accept(sock)

        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        monkeypatch.setattr(socket.socket, "accept", aborts_once)
        # The connection waits in the backlog until the listener is back.
        with TardisClient(port=served.port, session="second-try") as client:
            client.put("x", 1)
            assert client.get("x") == 1
        assert len(aborted) == 1
        assert served._stats["connections_total"] == 1
        assert seen == []  # an accept failure is handled, not reported

    def test_the_listener_backing_off_holds_up_no_connection(self, served, monkeypatch):
        accept = socket.socket.accept
        attempts = []
        full = threading.Event()

        def out_of_descriptors(sock):
            if full.is_set():
                attempts.append(time.monotonic())
                raise OSError(errno.EMFILE, "Too many open files")
            return accept(sock)

        monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
        with TardisClient(port=served.port, session="inside") as inside:
            full.set()
            with _Raw(served.port, hello=False) as outside:
                assert _wait_until(lambda: attempts)
                started = time.monotonic()
                for i in range(10):
                    inside.put("k", i)
                    assert inside.get("k") == i
                    time.sleep(0.02)
                elapsed = time.monotonic() - started
                # One try per 10 ms back-off, not a spin; the connection
                # already accepted is served all the while.
                tries = sum(1 for at in attempts if at >= started)
                assert tries <= elapsed / 0.01 + 5, (tries, elapsed)
                assert served._stats["connections_total"] == 1
                full.clear()
                assert outside.ask({"id": 0, "op": "HELLO", "session": "outside"})["ok"]
        assert served._stats["connections_total"] == 2

    def test_shutdown_during_the_back_off_closes_the_listener_for_good(self, monkeypatch):
        handle = TardisServer(site="backoff-stop").start()
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)

        def fails_as_shutdown_begins(sock):
            # On the store thread: shutdown's first step lands while the
            # listener is off the selector.
            handle._closing = True
            handle._ring()
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(socket.socket, "accept", fails_as_shutdown_begins)
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as peer:
            # The listener may close before the connect returns: a reset is fine.
            peer.connect_ex(("127.0.0.1", handle.port))
            assert _wait_until(lambda: handle._listener.fileno() == -1)
            time.sleep(0.05)  # past the re-arm time: a closed listener stays off
        report = handle.shutdown()
        assert seen == []
        assert not handle._thread.is_alive()
        assert report["connections_total"] == 0
        assert report["leaked_sessions"] == []


class TestBell:
    def test_a_full_bell_does_not_block_its_ringer(self, served, monkeypatch):
        gate = _hold(monkeypatch)
        try:
            with _Raw(served.port) as holder:
                holder.send({"id": 1, "op": "STATS", "hold": True})
                assert _wait_until(lambda: served._inflight == 1)
                try:
                    while True:
                        served._waker.send(b"\0" * 4096, socket.MSG_DONTWAIT)
                except BlockingIOError:
                    pass  # the bell's buffer is full
                ringer = threading.Thread(target=served._ring, daemon=True)
                ringer.start()
                ringer.join(timeout=5.0)
                assert not ringer.is_alive()
                gate.set()
                assert holder.frame()["id"] == 1
                # The store thread empties the bell and serves on.
                assert holder.ask({"id": 2, "op": "STATS"})["ok"]
        finally:
            gate.set()
        assert served.shutdown()["leaked_sessions"] == []

    def test_a_failed_sampler_tick_goes_uncounted_and_unreported(self, monkeypatch):
        seen = []
        monkeypatch.setattr(threading, "excepthook", seen.append)
        handle = TardisServer(site="bad-sampler", obs_sample_interval=0.01)
        ticks = []

        def fails():
            ticks.append(1)
            raise RuntimeError("sample failed")

        handle.obs.sample = fails
        handle.start()
        try:
            assert _wait_until(lambda: len(ticks) >= 3)
            with TardisClient(port=handle.port) as client:
                client.put("x", 1)
                assert client.get("x") == 1
        finally:
            report = handle.shutdown()
        assert report["obs_samples"] == 0
        assert seen == []

    def test_a_timeout_is_answered_no_sooner_than_the_timeout(self, monkeypatch):
        handle = TardisServer(site="bound-test", request_timeout=0.2).start()
        gate = _hold(monkeypatch)
        try:
            with _Raw(handle.port) as raw:
                sent = time.perf_counter()
                answer = raw.ask({"id": 1, "op": "STATS", "hold": True})
                waited = time.perf_counter() - sent
                gate.set()
        finally:
            gate.set()
            report = handle.shutdown()
        assert answer["error"]["code"] == "TIMEOUT"
        # Within [T, 1.125 T], plus the scheduling of a shared machine.
        assert 0.2 <= waited < 0.4, waited
        assert report["timeouts_total"] == 1


# ---------------------------------------------------------------------------
# ``tardis serve`` as a process: what the e2e harness and bench_net.py run.


class TestServeProcess:
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
    def test_a_signal_drains_and_reports(self, tmp_path, sig):
        port_file = tmp_path / "port.txt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "serve", "--port", "0",
             "--port-file", str(port_file)],
            env=_src_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert _wait_until(
                lambda: port_file.exists() and port_file.read_text().strip(), timeout=30.0
            )
            with TardisClient(port=int(port_file.read_text()), session="once") as client:
                client.put("x", 1)
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        (line,) = [l for l in out.splitlines() if l.startswith("TARDIS_SERVE_REPORT ")]
        report = json.loads(line.split(" ", 1)[1])
        assert report["commits"] == 1
        assert report["leaked_sessions"] == []
        assert report["drained_in_time"] is True

    def test_the_serve_path_imports_no_asyncio(self):
        probe = "import sys, repro.tools.cli; assert 'asyncio' not in sys.modules"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=_src_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def test_src_runs_no_event_loop(self):
        pattern = re.compile(r"asyncio|async def|await |run_in_executor|call_soon_threadsafe")
        hits = [
            "%s:%d" % (path.relative_to(SRC), n)
            for path in sorted(Path(SRC).rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert hits == []


# ---------------------------------------------------------------------------
# ``run_server`` in this process: the signal handlers it installs and restores.


_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def _once_bound(port_file, sig, then, errors):
    """On a helper thread: once ``port_file`` names the port, run
    ``then(port, fire)``, where ``fire()`` sends ``sig`` to this process.
    If ``then`` fails before it fired, the signal is sent anyway, so
    ``run_server`` returns; if the port never appears, none is sent."""
    fired = []

    def fire():
        fired.append(sig)
        os.kill(os.getpid(), sig)

    def body():
        if not _wait_until(
            lambda: port_file.exists() and port_file.read_text().strip(), timeout=30.0
        ):
            return
        try:
            then(int(port_file.read_text()), fire)
        except Exception as exc:  # reported by the test, on its own thread
            errors.append(exc)
        finally:
            if not fired:
                fire()

    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    return helper


class TestRunServer:
    @pytest.mark.parametrize("sig", _SIGNALS, ids=["SIGINT", "SIGTERM"])
    def test_a_signal_drains_and_restores_the_handlers(self, tmp_path, sig):
        port_file = tmp_path / "port"
        handlers = {s: signal.getsignal(s) for s in _SIGNALS}
        errors, lines = [], []

        def commit_once(port, fire):
            with TardisClient(port=port, session="once") as client:
                client.put("x", 1)
            fire()

        helper = _once_bound(port_file, sig, commit_once, errors)
        server = TardisServer(site="run-test")
        report = run_server(server, port_file=str(port_file), announce=lines.append)
        helper.join(timeout=5.0)
        assert errors == []
        assert {s: signal.getsignal(s) for s in _SIGNALS} == handlers
        assert int(port_file.read_text()) == server.port
        assert lines == [
            "tardis serve: listening on 127.0.0.1:%d (site=run-test, max_connections=128)"
            % server.port
        ]
        assert report["commits"] == 1
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []
        assert not server._thread.is_alive() and not server._watchdog.is_alive()

    def test_a_second_signal_while_it_drains_is_absorbed(self, tmp_path):
        port_file = tmp_path / "port"
        server = TardisServer(site="twice-signalled", drain_timeout=10.0)
        errors = []

        def drain_through_two_signals(port, fire):
            with TardisClient(port=port, session="late") as client:
                txn = client.begin()
                txn.put("x", 1)
                assert txn.get("x") == 1  # holds writes: the drain waits
                fire()
                assert _wait_until(lambda: server._closing)
                fire()  # the handler is still in: it only sets the event again
                time.sleep(0.1)
                txn.commit()

        helper = _once_bound(port_file, signal.SIGINT, drain_through_two_signals, errors)
        report = run_server(server, port_file=str(port_file), announce=lambda line: None)
        helper.join(timeout=5.0)
        assert errors == []
        assert report["drained_in_time"] is True
        assert report["commits"] == 1
        assert report["leaked_sessions"] == []

    def test_a_failed_bind_raises_and_restores_the_handlers(self, tmp_path):
        port_file = tmp_path / "port"
        handlers = {s: signal.getsignal(s) for s in _SIGNALS}
        lines = []
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            server = TardisServer(site="run-bind", port=holder.getsockname()[1])
            with pytest.raises(OSError):
                run_server(server, port_file=str(port_file), announce=lines.append)
        assert {s: signal.getsignal(s) for s in _SIGNALS} == handlers
        assert not port_file.exists()
        assert lines == []
        assert server._thread is None
