"""A served store collects its garbage (docs/internals.md §3, §12.4).

Every commit a wire session makes places the session's GC ceiling at its
new anchor, the request that grows the DAG to ``server._gc_at`` states is
followed by a cycle on the store thread, and an idle connection's
transactions stay open however long it idles. Mostly sans-IO over
``WireSession.handle``; the idle connection and the oracle run over
sockets.
"""

import math
import random
import time

from repro import TardisStore
from repro.client import TardisClient
from repro.core.ids import ROOT_ID
from repro.server import handlers, server as server_module
from repro.server.handlers import WireSession
from repro.server.server import GC_GROWTH, TardisServer
from tests.test_server import _oracle_script

HOT_KEYS = ["hot-%d" % i for i in range(8)]


def _served_sessions(*names):
    server = TardisServer(TardisStore("gc"))
    sessions = []
    for n, name in enumerate(names, start=1):
        session = WireSession(server, n)
        assert session.handle({"op": "HELLO", "session": name})["ok"]
        sessions.append(session)
    return server, sessions


def _ok(session, request):
    answer = session.handle(request)
    session.server._collect_if_grown()  # what the store thread runs after each request
    assert answer["ok"], answer
    return answer


def _increment(session, key):
    """A read-modify-write transaction: two frames, as the client sends it."""
    read = _ok(session, {"op": "READ", "begin": {}, "key": key})
    writes = [{"key": key, "value": (read["value"] or 0) + 1}]
    return _ok(session, {"op": "COMMIT", "txn": read["txn"], "writes": writes})


def _store_stats(session):
    return _ok(session, {"op": "STATS"})["stats"]["store"]


class TestGrowthTrigger:
    def test_the_wire_conflict_script_keeps_the_dag_bounded(self):
        # Two sessions in lock-step on 8 hot keys, read-then-write, a merge
        # every 16th round: the shape of the benchmark's wire_conflict.
        server, (a, b) = _served_sessions("A", "B")
        rng = random.Random(7)
        peak = 0
        for r in range(2000):
            if r % 16 == 0:
                merger = (a, b)[(r // 16) & 1]
                merge = _ok(merger, {"op": "MERGE"})
                writes = [{"key": c["key"], "value": max(c["values"])} for c in merge["conflicts"]]
                _ok(merger, {"op": "COMMIT", "txn": merge["txn"], "writes": writes})
            key_a, key_b = rng.choice(HOT_KEYS), rng.choice(HOT_KEYS)
            read_a = _ok(a, {"op": "READ", "begin": {}, "key": key_a})
            read_b = _ok(b, {"op": "READ", "begin": {}, "key": key_b})
            for session, key, read in ((a, key_a, read_a), (b, key_b, read_b)):
                writes = [{"key": key, "value": (read["value"] or 0) + 1}]
                _ok(session, {"op": "COMMIT", "txn": read["txn"], "writes": writes})
            peak = max(peak, len(server.store.dag))
        store = _store_stats(a)
        assert peak <= 2 * GC_GROWTH
        assert store["states"] <= 2 * GC_GROWTH
        gc = store["gc"]
        assert set(gc) == set(handlers.GC_FIELDS)
        # 4 125 commits, a cycle each time the DAG reaches ~530 states: the
        # growth trigger fires after the same op on every run.
        assert (gc["cycles"], gc["states_removed"]) == (7, 3600)
        assert 0.0 < gc["pause_ms_last"] <= gc["pause_ms_max"]
        # Only the two sessions' anchors and ceilings can still hold a
        # collected id; the promotion table keeps nothing else.
        assert store["promotions"] == server.store.dag.promotion_table_size <= 2
        # The next trigger is twice what the last cycle left plus GC_GROWTH.
        assert GC_GROWTH < server._gc_at <= 2 * store["states"] + GC_GROWTH
        # The GC fields moved into store.gc; nothing else of STATS changed.
        assert not [name for name in _ok(a, {"op": "STATS"})["stats"] if name.startswith("gc")]

    def test_a_session_that_only_reads_does_not_block_collection(self):
        server, (writer, reader) = _served_sessions("W", "R")
        closed = []
        for i in range(1500):
            _increment(writer, HOT_KEYS[i % 8])
            # An autocommit read: its close rides on the reader's next frame.
            request = {"op": "READ", "begin": {"read_only": True}, "key": HOT_KEYS[0]}
            if closed:
                request["closed"] = closed
            closed = [_ok(reader, request)["txn"]]
        store = _store_stats(reader)
        assert "R" in server.store.gc.ceilings
        assert store["states"] <= 2 * GC_GROWTH
        assert store["gc"]["states_removed"] >= 1500 - 2 * GC_GROWTH

    def test_a_session_that_never_committed_places_no_ceiling(self):
        server, (writer, idle) = _served_sessions("W", "I")
        for i in range(1500):
            _increment(writer, HOT_KEYS[i % 8])
        ceilings = server.store.gc.ceilings
        assert "I" not in ceilings and "W" in ceilings
        store = _store_stats(idle)
        assert store["states"] <= 2 * GC_GROWTH
        assert store["gc"]["cycles"] >= 2 and store["gc"]["states_removed"] > 0
        # I's anchor is the collected root: its entry is kept, W's
        # anchor and ceiling are live, and nothing else is held.
        dag = server.store.dag
        assert store["promotions"] == dag.promotion_table_size == 1
        assert dag.get(ROOT_ID) is None and dag.resolve(ROOT_ID) is dag.root

    def test_a_stuck_collector_stays_linear(self):
        server, (writer,) = _served_sessions("W")
        # A stale in-process ceiling at the root: nothing is ever marked.
        server.store.session("stale").place_ceiling()
        commits = 4096
        for i in range(commits):
            _ok(writer, {"op": "COMMIT", "begin": {}, "writes": [{"key": i % 64, "value": i}]})
        store = _store_stats(writer)
        assert store["states"] == commits + 1
        assert store["gc"]["states_removed"] == 0
        # Cycles at 512, 1536, 3584 states: geometric, not every 512.
        assert 1 <= store["gc"]["cycles"] <= math.ceil(math.log2(commits / GC_GROWTH)) + 1
        assert store["gc"]["cycles"] == 3


class TestIdleConnections:
    def test_a_txn_that_read_then_idled_still_commits_its_write(self):
        # ``request_timeout`` bounds one request, not a transaction: a
        # transaction may idle between its read and its buffered write.
        handle = TardisServer(site="idle", request_timeout=0.2).start()
        store = handle.store
        try:
            with TardisClient(port=handle.port, session="idler") as client:
                client.put("x", 1)
                txn = client.begin()
                value = txn.get("x")
                time.sleep(0.5)
                txn.put("x", value + 1)
                txn.commit()
                assert txn.status == "committed"
                assert client.get("x") == 2
                # Its commit placed the ceiling at the new anchor.
                assert "idler" in store.gc.ceilings
            report = handle.shutdown()
        finally:
            if handle.report is None:
                handle.shutdown()
        assert report["leaked_sessions"] == [] and report["disconnect_aborts"] == 0
        assert report["gc_cycles"] == 0


def _forked_round(begin, n):
    """Four sessions begin before any of them commits, so the commits
    fork; returns what each read of the last merge's answer."""
    txns = [begin(i) for i in range(4)]
    seen = [txn.get("round", default=None) for txn in txns]
    for i, txn in enumerate(txns):
        txn.put("round", 10 * n + i)
        txn.commit()
    return seen


class TestReadsAcrossCycles:
    def test_every_read_matches_a_store_that_never_collects(self, monkeypatch):
        # A cycle every few states, so the rounds run across many.
        monkeypatch.setattr(server_module, "GC_GROWTH", 8)
        handle = TardisServer(site="gc-oracle").start()
        handle._gc_at = 8
        clients = [TardisClient(port=handle.port, session="sess-%d" % i) for i in range(4)]
        oracle = TardisStore("oracle")
        sessions = [oracle.session("sess-%d" % i) for i in range(4)]
        try:
            for n in range(40):
                wire_begin = lambda i: clients[i].begin()  # noqa: E731
                oracle_begin = lambda i: oracle.begin(session=sessions[i])  # noqa: E731
                assert _forked_round(wire_begin, n) == _forked_round(oracle_begin, n)
                wire = _oracle_script(wire_begin, lambda: clients[0].merge())
                in_process = _oracle_script(
                    oracle_begin, lambda: oracle.begin_merge(session=sessions[0])
                )
                assert wire == in_process
            gc = clients[0].stats()["store"]["gc"]
        finally:
            for client in clients:
                client.close()
            handle.shutdown()
        assert gc["cycles"] >= 10 and gc["states_removed"] > 100
        assert len(oracle.dag) == 40 * 9 + 1  # the oracle kept everything


class TestCycleAfterTheAnswer:
    def test_the_commit_that_grows_the_dag_is_answered_before_the_cycle(self, monkeypatch):
        store = TardisStore("gc-after")
        collect = store.collect_garbage
        cycles_ended = []

        def slow_collect():
            time.sleep(0.3)
            stats = collect()
            cycles_ended.append(time.perf_counter())
            return stats

        monkeypatch.setattr(store, "collect_garbage", slow_collect)
        monkeypatch.setattr(server_module, "GC_GROWTH", 8)
        handle = TardisServer(store).start()
        handle._gc_at = 8
        try:
            with TardisClient(port=handle.port, session="writer") as client:
                for i in range(6):
                    client.put("k", i)  # one state each: the DAG holds 7
                assert len(store.dag) == 7 and not cycles_ended
                started = time.perf_counter()
                client.put("k", 6)  # the DAG reaches 8: a cycle follows this COMMIT
                answered = time.perf_counter()
                gc = client.stats()["store"]["gc"]  # the connection's next request
        finally:
            handle.shutdown()
        assert answered - started < 0.15
        (cycle_ended,) = cycles_ended
        assert answered < cycle_ended
        # The cycle ran before the next request: its STATS counts it.
        assert gc["cycles"] == 1
