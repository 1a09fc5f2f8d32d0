"""Request rows in the store's recorder (docs/internals.md §14.1).

While the metrics registry is enabled the server splits each request
into four rows at the point that times it for its per-op histogram,
and numbers them in its store's recorder; a request whose handler
outran its op's threshold, and every GC cycle, is kept there, and
``OBS_SNAPSHOT`` ships those rows as ``slow``, which ``tardis top``
renders. With the registry off nothing is recorded and a request reads
the clock as often as it does to time itself.
"""

import socket
import threading
import time

import pytest

from repro.client import TardisClient
from repro.obs.tracing import ROW_COLUMNS
from repro.server import handlers
from repro.server import server as server_module
from repro.server.handlers import WireSession
from repro.server.server import SLOW_EVERY, SPANS, TardisServer, _Connection
from repro.tools.top import render_snapshot


@pytest.fixture
def registry_on(request):
    """Turn on the registry of the store the test's server serves."""
    if "sansio" in request.fixturenames:
        server = request.getfixturevalue("sansio").server
    else:
        server = request.getfixturevalue("served")
    server.store.registry.enabled = True


@pytest.fixture
def served():
    handle = TardisServer(site="rows").start()
    yield handle
    if handle.report is None:
        handle.shutdown()


@pytest.fixture
def sansio():
    """An unstarted server and one connection over a socketpair: ``run``
    hands a request to ``TardisServer._run`` the way the store thread
    does after ``_io`` read it in a round."""
    server = TardisServer(site="rows")
    ours, theirs = socket.socketpair()
    theirs.setblocking(False)
    conn = _Connection(ours, WireSession(server, 1))

    def run(request):
        round_clocks = (time.perf_counter(), time.thread_time())
        conn.arrived = round_clocks if server.store.registry.enabled else None
        server._run(conn, dict(request))
        try:
            theirs.recv(1 << 20)  # the answer; keeps the socket drainable
        except BlockingIOError:
            pass

    run.server = server
    run({"op": "HELLO", "session": "rows"})
    yield run
    ours.close()
    theirs.close()


@pytest.fixture
def every_request_slow(monkeypatch):
    """Each op reads its threshold at once, and the threshold is zero."""
    monkeypatch.setattr(server_module, "SLOW_EVERY", 1)
    monkeypatch.setattr(server_module, "SLOW_FACTOR", 0.0)


class _CountingTime:
    """The ``time`` module, counting the clock reads of the server."""

    def __init__(self):
        self.reads = {"perf_counter": 0, "thread_time": 0}

    def perf_counter(self):
        self.reads["perf_counter"] += 1
        return time.perf_counter()

    def thread_time(self):
        self.reads["thread_time"] += 1
        return time.thread_time()

    def __getattr__(self, name):
        return getattr(time, name)


class TestRegistryOff:
    def test_nothing_is_recorded_and_every_request_still_counts(self, served):
        client = TardisClient(port=served.port)
        for i in range(20):
            client.put("k%d" % (i % 4), i)
            client.get("k1")
        snapshot = client.obs_snapshot(tail=0)
        stats = client.stats()
        client.close()
        assert served.store.recorder.seq == 0 and len(served.store.recorder) == 0
        assert snapshot["slow"] == []
        assert snapshot["latency_ms"]["COMMIT"]["count"] == 20
        assert snapshot["latency_ms"]["READ"]["count"] == 20
        assert snapshot["latency_ms"]["HELLO"]["count"] == 1
        # the HELLO, 40 requests, the snapshot and this STATS
        assert stats["requests_total"] == 43

    def test_a_request_reads_the_clock_twice_as_before(
        self, sansio, every_request_slow, monkeypatch
    ):
        clock = _CountingTime()
        monkeypatch.setattr(server_module, "time", clock)
        sansio({"op": "READ", "begin": {}, "key": "x"})
        # ``since`` and the handler's return, the histogram's two reads
        assert clock.reads == {"perf_counter": 2, "thread_time": 0}
        recorder = sansio.server.store.recorder
        assert recorder.seq == 0 and len(recorder) == 0


class TestRegistryOn:
    def test_spans_tile_the_request_and_handle_is_the_histogram_sample(
        self, sansio, registry_on, every_request_slow, monkeypatch
    ):
        samples = []
        observe = sansio.server._observe
        monkeypatch.setattr(
            sansio.server, "_observe", lambda op, ms: samples.append(ms) or observe(op, ms)
        )
        read = {"op": "READ", "begin": {}, "key": "x"}
        for i in range(5):
            sansio(read)
            sansio({"op": "COMMIT", "txn": i + 1, "writes": [{"key": "x", "value": i}]})
        kept = sansio.server._slow_rows()  # the HELLO ran with the registry off
        assert len(kept) == 10 == len(samples)
        assert [row["seq"] for row in kept] == list(range(0, 40, 4))
        assert sansio.server.store.recorder.seq == 40 == len(sansio.server.store.recorder)
        for row, sample in zip(kept, samples):
            assert set(row) == set(ROW_COLUMNS) | {"seq", "spans"}
            assert row["layer"] == "server.request" and row["parent"] == -1
            assert row["name"] in ("READ", "COMMIT")
            spans = [row["spans"][layer] for layer in SPANS]
            assert list(row["spans"]) == list(SPANS)
            # the spans share their boundary clock reads
            assert spans[0][0] == row["t_start"] and spans[-1][1] == row["t_end"]
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert sum(cpu for _, _, cpu in spans) == pytest.approx(row["cpu"])
            start, end, _ = row["spans"]["server.handle"]
            assert (end - start) * 1000.0 == sample
        assert [row["txn"] for row in kept] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_a_fast_request_reads_thread_time_twice_a_slow_one_three_times(
        self, sansio, registry_on, monkeypatch
    ):
        clock = _CountingTime()
        monkeypatch.setattr(server_module, "time", clock)
        sansio({"op": "READ", "begin": {}, "key": "x"})
        assert sansio.server._slow_rows() == []  # no threshold yet: not slow
        assert clock.reads == {"perf_counter": 2, "thread_time": 2}
        monkeypatch.setattr(server_module, "SLOW_EVERY", 1)
        monkeypatch.setattr(server_module, "SLOW_FACTOR", 0.0)
        sansio({"op": "COMMIT", "txn": 1, "writes": []})
        assert len(sansio.server._slow_rows()) == 1
        # plus the end of the reply's write, read for a slow request only
        assert clock.reads == {"perf_counter": 5, "thread_time": 5}

    def test_the_kept_rows_stop_at_the_recorders_capacity(self, sansio, registry_on):
        server = sansio.server
        recorder = server.store.recorder
        for _ in range(8):
            sansio({"op": "READ", "begin": {}, "key": "x"})
        assert recorder.seq == 32 and server._slow_rows() == []
        for _ in range(recorder.capacity + 3):
            server._gc_at = 0  # every call runs a cycle
            server._collect_if_grown()
        kept = server._slow_rows()
        assert len(kept) == recorder.capacity == len(recorder) and recorder.dropped == 3
        assert all(row["layer"] == "gc.cycle" for row in kept)
        assert kept[-1]["seq"] == recorder.seq - 1 == 32 + recorder.capacity + 2


class TestSlowRing:
    def test_a_planted_slow_read_lands_in_slow_and_in_top(
        self, served, registry_on, monkeypatch
    ):
        read = handlers.HANDLERS["READ"]

        def slow_read(server, session, request):
            if request.get("key") == "slow":
                time.sleep(0.05)
            return read(server, session, request)

        monkeypatch.setitem(handlers.HANDLERS, "READ", slow_read)
        client = TardisClient(port=served.port)
        for _ in range(SLOW_EVERY):  # an op has no threshold before these
            client.get("fast")
        client.get("slow")
        snapshot = client.obs_snapshot(tail=0)
        client.close()
        (planted,) = [
            row for row in snapshot["slow"]
            if row["name"] == "READ" and row["t_end"] - row["t_start"] >= 0.05
        ]
        start, end, cpu = planted["spans"]["server.handle"]
        assert end - start >= 0.05 and cpu < 0.05  # the sleep is wall, not cpu
        text = render_snapshot(snapshot)
        assert "-- slow requests and gc cycles (ms)" in text
        panel = text.split("-- slow requests and gc cycles (ms)")[1].splitlines()[2:]
        reads = [line.split() for line in panel if line.split()[1:2] == ["READ"]]
        (fields,) = [f for f in reads if float(f[2]) >= 50.0]
        wall, cpu, wait, handle, reply = map(float, fields[2:7])
        assert handle >= 50.0 and cpu < wall
        assert wait + handle + reply == pytest.approx(wall, abs=0.02)

    def test_a_gc_cycle_lands_in_slow(self, served, registry_on):
        client = TardisClient(port=served.port)
        i = 0
        while client.stats()["store"]["gc"]["cycles"] == 0:
            client.put("k%d" % (i % 8), i)
            i += 1
        snapshot = client.obs_snapshot(tail=0)
        client.close()
        (cycle,) = [row for row in snapshot["slow"] if row["layer"] == "gc.cycle"]
        assert cycle["parent"] == -1 and cycle["txn"] == -1
        assert cycle["n"] == served.store.gc.states_removed > 0
        assert cycle["t_end"] > cycle["t_start"]
        text = render_snapshot(snapshot)
        assert "gc.cycle" in text and "removed=%d" % cycle["n"] in text

    def test_queueing_does_not_make_a_request_slow(self, served, registry_on):
        """Eight clients at once: their requests wait behind each other,
        but only a handler span is held against the threshold, so the
        recorder still holds the first GC cycle after more requests than
        it has room for (a kept request takes four rows)."""
        clients = [TardisClient(port=served.port) for _ in range(8)]

        def drive(client, n):
            for i in range(n):
                client.put("k%d" % (i % 16), i)

        def wave(n):
            threads = [threading.Thread(target=drive, args=(c, n)) for c in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        while served.store.gc.cycles == 0:
            wave(25)
        recorder = served.store.recorder
        after = recorder.seq
        wave(recorder.capacity // 16)  # two rings' worth of requests
        snapshot = clients[0].obs_snapshot(tail=0)
        for client in clients:
            client.close()
        assert (recorder.seq - after) // 4 >= 2 * (recorder.capacity // 4)
        cycles = [row for row in snapshot["slow"] if row["layer"] == "gc.cycle"]
        assert cycles and cycles[0]["seq"] < after
