"""End-to-end tests for the network server: sessions, concurrency,
disconnect cleanup, graceful shutdown, and the wire error paths."""

import socket
import struct
import threading
import time

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
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.server import start_in_thread
from repro.server.protocol import (
    HEADER,
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    ok_response,
)


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def served():
    handle = start_in_thread(site="net-test")
    yield handle
    if handle.server.report is None:
        handle.stop()


def _total_pins(store):
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

    def test_server_counts_live_in_its_report_not_the_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            handle = start_in_thread(site="registry-test")
            with TardisClient(port=handle.port) as client:
                client.put("x", 1)
                assert client.get("x") == 1
            report = handle.stop()
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
# Oracle equivalence: the same script over the wire and in-process must
# land in the same final state.


def _oracle_script(begin, merge_begin):
    """Run the canonical script against any (begin, merge) pair of
    callables and return the final readable key->value map."""
    for i in range(4):
        txn = begin(i)
        txn.put("key-%d" % i, i)
        txn.put("shared", i)
        txn.commit()
    merge = merge_begin()
    conflicts = merge.conflicts if hasattr(merge, "conflicts") else None
    if conflicts is None:  # in-process MergeTransaction
        keys = sorted(merge.find_conflict_writes())
        for key in keys:
            merge.put(key, max(merge.get_all(key)))
    else:
        for conflict in sorted(conflicts, key=lambda c: c["key"]):
            merge.put(conflict["key"], max(conflict["values"]))
    merge.commit()
    reader = begin(0)
    out = {}
    for i in range(4):
        out["key-%d" % i] = reader.get("key-%d" % i, default=None)
    out["shared"] = reader.get("shared", default=None)
    reader.commit()
    return out


class TestOracleEquivalence:
    def test_wire_final_state_matches_in_process(self, served):
        clients = [
            TardisClient(port=served.port, session="sess-%d" % i) for i in range(4)
        ]
        try:
            wire = _oracle_script(
                lambda i: clients[i].begin(), lambda: clients[0].merge()
            )
        finally:
            for client in clients:
                client.close()

        store = TardisStore("oracle")
        sessions = [store.session("sess-%d" % i) for i in range(4)]
        in_process = _oracle_script(
            lambda i: store.begin(session=sessions[i]),
            lambda: store.begin_merge(session=sessions[0]),
        )
        assert wire == in_process
        assert wire["shared"] == 3  # max of the conflicting writes


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
                if len(served.server.store.dag.leaves()) == 1:
                    break
            for i in range(self.N_CLIENTS):
                assert checker.get("counter-%d" % i) == self.N_INCREMENTS


# ---------------------------------------------------------------------------
# Disconnect cleanup: a dead socket must not leak sessions, txns or pins.


class TestDisconnectCleanup:
    def test_hard_disconnect_aborts_and_unpins(self, served):
        store = served.server.store
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
        store = served.server.store
        a = TardisClient(port=served.port, session="A")
        with TardisClient(port=served.port, session="B") as b:
            txns = [a.begin(), b.begin()]
            for txn in txns:
                txn.get("k", default=None)
            for value, txn in zip("AB", txns):
                txn.put("k", value)
                txn.commit()
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
        assert served.stop()["leaked_sessions"] == []

    def test_session_name_reusable_after_disconnect(self, served):
        client = TardisClient(port=served.port, session="phoenix")
        client._sock.close()
        assert _wait_until(
            lambda: not any(
                s.name == "phoenix" for s in served.server.store.sessions()
            )
        )
        reborn = TardisClient(port=served.port, session="phoenix")
        reborn.put("x", 1)
        reborn.close()

    def test_cleanup_forgets_the_session_names_it_closed(self, served):
        server = served.server
        for i in range(300):
            with TardisClient(port=served.port) as client:
                client.put("k", i)
        assert _wait_until(lambda: not server._conns)
        # The live connections are the server's only record of the names
        # it bound, so once each cleanup ran nothing of the 300 is left.
        with server._lock:
            assert server._bound_sessions() == []
        assert server.store.sessions() == []
        assert served.stop()["leaked_sessions"] == []


# ---------------------------------------------------------------------------
# Graceful shutdown: drain in-flight transactions, refuse new ones.


class TestGracefulShutdown:
    def test_drain_lets_open_txn_commit_and_refuses_new_work(self):
        handle = start_in_thread(site="drain-test", drain_timeout=10.0)
        client = TardisClient(port=handle.port, session="worker")
        txn = client.begin()
        txn.put("x", 1)
        assert txn.get("x") == 1  # the request that carries BEGIN + write

        reports = {}
        stopper = threading.Thread(
            target=lambda: reports.update(report=handle.stop())
        )
        stopper.start()
        assert _wait_until(lambda: handle.server._closing)

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
        handle = start_in_thread(site="idle-test", drain_timeout=5.0)
        client = TardisClient(port=handle.port, session="idle")
        try:
            assert client.get("x") is None
            started = time.perf_counter()
            report = handle.stop()
            assert time.perf_counter() - started < 4.0
        finally:
            client.close()
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []
        assert handle.server.store.sessions() == []
        assert _total_pins(handle.server.store) == 0

    def test_drain_timeout_force_closes_and_still_leaks_nothing(self):
        handle = start_in_thread(site="force-test", drain_timeout=0.2)
        client = TardisClient(port=handle.port, session="straggler")
        try:
            straggler = client.begin()
            straggler.put("x", 1)
            assert straggler.get("x") == 1  # on the server, left open on purpose
            report = handle.stop()
        finally:
            client.close()
        assert report["drained_in_time"] is False
        assert report["forced_closes"] >= 1
        assert report["leaked_sessions"] == []
        assert report["disconnect_aborts"] >= 1
        assert handle.server.store.sessions() == []

    def test_the_loop_keeps_turning_while_shutdown_waits_a_slow_handler_out(self):
        handle = start_in_thread(site="join-test", drain_timeout=0.05)
        server, store = handle.server, handle.server.store
        gaps = []

        def tick(last):  # on the loop: how long between two turns of it
            now = time.perf_counter()
            gaps.append(now - last)
            if server.report is None:
                handle.loop.call_later(0.01, tick, now)

        original = TestAbandonedRequest._slow_begin(store, 0.6)
        try:
            with _Raw(handle.port) as raw:
                raw.send({"id": 1, "op": "READ", "begin": {}, "key": "x"})
                assert _wait_until(lambda: server._inflight == 1)
                handle.loop.call_soon_threadsafe(tick, time.perf_counter())
                report = handle.stop()  # waits the slow handler out
        finally:
            store.begin = original
        assert report["drained_in_time"] is False
        assert report["leaked_sessions"] == []
        assert store.sessions() == []
        # The loop kept turning (TIMEOUTs, connection_lost) meanwhile.
        assert len(gaps) > 10 and max(gaps) < 0.3

    def test_new_connections_rejected_while_draining(self):
        handle = start_in_thread(site="reject-test", drain_timeout=5.0)
        client = TardisClient(port=handle.port, session="holder")
        txn = client.begin()
        txn.get("x", default=None)  # the request that carries the BEGIN
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        assert _wait_until(lambda: handle.server._closing)
        with pytest.raises((ServerError, OSError, Exception)):
            TardisClient(port=handle.port, session="late")
        txn.commit()
        client.close()
        stopper.join(timeout=30.0)


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
        store = served.server.store
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
        store = served.server.store
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
    handle = start_in_thread(site="net-shard", shards=4, shard_workers=2)
    yield handle
    if handle.server.report is None:
        handle.stop()


class TestShardedServing:
    def test_wire_script_matches_flat_store(self, served_sharded):
        clients = [
            TardisClient(port=served_sharded.port, session="sess-%d" % i)
            for i in range(4)
        ]
        try:
            wire = _oracle_script(
                lambda i: clients[i].begin(), lambda: clients[0].merge()
            )
        finally:
            for client in clients:
                client.close()

        store = TardisStore("oracle")
        sessions = [store.session("sess-%d" % i) for i in range(4)]
        in_process = _oracle_script(
            lambda i: store.begin(session=sessions[i]),
            lambda: store.begin_merge(session=sessions[0]),
        )
        assert wire == in_process

        report = served_sharded.stop()
        assert report["leaked_sessions"] == []
        assert report["leaked_workers"] == 0

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
        store = served_sharded.server.store
        client = TardisClient(port=served_sharded.port, session="dropper")
        txn = client.begin()
        txn.put("doomed", 1)
        client._sock.close()  # hard drop: no BYE, mid-transaction

        assert _wait_until(
            lambda: not any(s.name == "dropper" for s in store.sessions())
        ), "session leaked after disconnect"
        with TardisClient(port=served_sharded.port, session="observer") as obs:
            assert obs.get("doomed", default=None) is None

        report = served_sharded.stop()
        assert report["leaked_sessions"] == []
        assert report["leaked_workers"] == 0
        assert report["exit_code"] if "exit_code" in report else True

    def test_dead_worker_surfaces_as_typed_wire_error(self, served_sharded):
        with TardisClient(port=served_sharded.port, session="chaos") as client:
            txn = client.begin()
            for i in range(16):
                txn.put("key-%03d" % i, i)
            txn.commit()
            with served_sharded.server.store._lock:
                served_sharded.server.store.versions.kill_worker(1)
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
        store = served.server.store
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
            assert store.dag.descendant_check(
                _state_named(store, read_at), _state_named(store, later.read_state)
            )
            later.commit()
        finally:
            a.close()
            b.close()

    def test_a_with_block_read_anchors_the_next_begin(self, served):
        store = served.server.store
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
        store = served.server.store
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
        store = served.server.store
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
        store = served.server.store
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
        assert _total_pins(served.server.store) == 0

    def test_every_deferred_close_is_delivered_by_a_clean_shutdown(self):
        handle = start_in_thread(site="deliver-test", drain_timeout=2.0)
        store = handle.server.store
        clients = [TardisClient(port=handle.port, session="s%d" % i) for i in range(3)]
        try:
            clients[0].put("x", 1)
            for n, client in enumerate(clients, start=1):
                for _ in range(n):
                    assert client.get("x") == 1
        finally:
            for client in clients:
                client.close()
        report = handle.stop()
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
        handle = start_in_thread(site="timeout-test", request_timeout=0.1)
        store = handle.server.store
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
            report = handle.stop(drain_timeout=1.0)
            client.close()
        assert report["drained_in_time"] is True
        assert report["leaked_sessions"] == []

    def test_a_late_answer_is_dropped_and_the_next_request_keeps_its_id(self):
        handle = start_in_thread(site="late-test", request_timeout=0.1)
        store = handle.server.store
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
            report = handle.stop(drain_timeout=1.0)
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
# callback transport with raw sockets.


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
        assert _wait_until(lambda: served.server.store.sessions() == [])

    def test_a_peer_that_never_reads_stalls_only_itself(self, served):
        server = served.server
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
                high_water = conn.transport.get_write_buffer_limits()[1]
                assert conn.transport.get_write_buffer_size() <= high_water + MAX_FRAME + 4
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
        server, store = served.server, served.server.store
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
        handle = start_in_thread(site="cap-test", max_connections=1)
        try:
            with TardisClient(port=handle.port, session="holder") as holder:
                with _Raw(handle.port, hello=False) as extra:
                    refusal = extra.frame()
                    assert refusal["error"]["code"] == "SERVER_BUSY"
                    assert extra.frame() is None
                assert holder.stats()["connections_rejected"] == 1
            assert _wait_until(lambda: not handle.server._conns)
            with _Raw(handle.port, hello=False) as raw:
                raw.sock.sendall(HEADER.pack(MAX_FRAME + 1))
                assert raw.frame()["error"]["code"] == "FRAME_TOO_LARGE"
                assert raw.frame() is None
        finally:
            handle.stop()
