"""Live ops plane: sampler, the OBS_SNAPSHOT wire op, `tardis top`.

Covers docs/internals.md §14 end to end — the ObsSampler snapshot
schema, worker health, snapshots over a real socket, the rule that a
watcher polls and the server writes nothing unasked, the sampler-off
oracle-equivalence guard, and the dashboard renderer.
"""

import json
import re
import socket
import struct
import time

import pytest

from repro import TardisStore
from repro.client import TardisClient
from repro.errors import ServerError
from repro.obs.sampler import OBS_SCHEMA_VERSION, ObsSampler
from repro.server import TardisServer
from repro.server.protocol import HEADER, PROTOCOL_VERSION, FrameDecoder, encode_frame
from repro.tools.cli import main as cli_main


def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def served_live():
    """A server with the sampler on a fast cadence."""
    handle = TardisServer(site="obs-test", obs_sample_interval=0.05).start()
    yield handle
    if handle.report is None:
        handle.shutdown()


@pytest.fixture
def served_cold():
    """A server with no sampler task (OBS_SNAPSHOT still works)."""
    handle = TardisServer(site="obs-cold").start()
    yield handle
    if handle.report is None:
        handle.shutdown()


# ---------------------------------------------------------------------------
# ObsSampler unit: schema, series, triggers — no server involved.


class TestObsSampler:
    def test_snapshot_schema_and_seq(self):
        store = TardisStore("A")
        store.put("x", 1)
        sampler = ObsSampler(store, site="A")
        first = sampler.sample()
        second = sampler.sample()
        assert first["obs_schema"] == OBS_SCHEMA_VERSION
        assert (first["seq"], second["seq"]) == (1, 2)
        assert second["t_ms"] >= first["t_ms"]
        for key in ("branch_count", "dag_width", "dag_depth", "merge_debt",
                    "staleness_ms", "states"):
            assert key in second["gauges"]
        assert second["counters"]["store_commits"] == store.metrics.commits
        assert second["shards"] is None  # flat store: no shard section
        assert "tardis_branch_count@A" in second["series"]
        assert sampler.latest is second
        # Snapshots must survive the wire codec untouched.
        assert json.loads(json.dumps(second)) == second

    def test_branch_count_tracks_forks(self):
        store = TardisStore("A")
        alice, bruno = store.session("alice"), store.session("bruno")
        store.put("x", 0, session=alice)
        t1 = store.begin(session=alice)
        t2 = store.begin(session=bruno)
        # Read-modify-write on the same key: the second commit fails the
        # end constraint and branches instead of rippling down.
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 10)
        t1.commit()
        t2.commit()
        sampler = ObsSampler(store, site="A")
        assert sampler.sample()["gauges"]["branch_count"] == 2

    def test_trim_views(self):
        store = TardisStore("A")
        sampler = ObsSampler(store, site="A")
        for _ in range(5):
            snapshot = sampler.sample()
        assert "series" not in ObsSampler.trim(snapshot, 0)
        cut = ObsSampler.trim(snapshot, 2)
        assert all(len(s) <= 2 for s in cut["series"].values())
        assert ObsSampler.trim(snapshot, None) is snapshot
        # trim never mutates its input
        assert len(snapshot["series"]["tardis_branch_count@A"]) == 5

    def test_alert_fires_on_held_excursion(self):
        store = TardisStore("A")
        clock = {"t": 0.0}
        sampler = ObsSampler(store, site="A", clock=lambda: clock["t"])
        sampler.arm("tardis_branch_count", 1.0, hold_ms=50.0)
        store.put("x", 0)
        txns = [store.begin(session=store.session("s%d" % i)) for i in range(3)]
        for i, txn in enumerate(txns):  # conflicting RMWs -> 3 leaves > 1
            txn.put("x", txn.get("x") + i + 1)
        for txn in txns:
            txn.commit()
        for _ in range(4):  # hold the excursion past hold_ms
            clock["t"] += 0.030
            snapshot = sampler.sample()
        assert snapshot["alerts_total"] >= 1
        alert = snapshot["alerts"][0]
        assert alert["series"] == "tardis_branch_count@A"
        assert alert["value"] > 1.0
        assert "flight_dumps" not in snapshot

    def test_the_server_callable_feeds_series(self):
        store = TardisStore("A")
        slow = [{"seq": 0, "t_start": 1.0, "t_end": 2.0, "cpu": 0.5, "layer": "gc.cycle",
                 "name": "collect_garbage", "parent": -1, "txn": -1, "n": 9}]
        sampler = ObsSampler(
            store,
            site="A",
            server_fn=lambda: {
                "counters": {"requests_total": 7, "commits": 3},
                "gauges": {"sessions": 2, "inflight": 1, "connections": 4},
                "latency_ms": {"READ": {"count": 1, "mean": 0.5, "p50": 0.5,
                                        "p90": 0.5, "p99": 0.5, "max": 0.5}},
                "slow": slow,
            },
        )
        snapshot = sampler.sample()
        assert snapshot["gauges"]["sessions"] == 2
        assert snapshot["counters"]["requests_total"] == 7
        assert snapshot["latency_ms"]["READ"]["count"] == 1
        assert snapshot["slow"] == slow
        assert snapshot["series"]["tardis_net_requests@A"][-1][1] == 7
        assert snapshot["series"]["tardis_net_sessions@A"][-1][1] == 2
        assert ObsSampler(store).sample()["slow"] == []


# ---------------------------------------------------------------------------
# Shard-plane health (satellite 2).


class TestWorkerHealth:
    def test_health_lists_every_worker_with_ping(self):
        store = TardisStore("A", shards=4, shard_workers=2)
        try:
            store.put("x", 1)
            health = store.shard_health()
            assert health["n_shards"] == 4
            assert health["n_workers"] == 2
            assert health["workers_alive"] == 2
            assert health["workers_dead"] == []
            assert health["leaked_workers"] == 0
            assert len(health["accesses"]) == 4
            for worker in health["workers"]:
                assert worker["alive"] is True
                assert worker["queue_depth"] == 0
                assert worker["ping_ms"] >= 0.0
        finally:
            store.close()

    def test_dead_worker_is_visible(self):
        store = TardisStore("A", shards=2, shard_workers=2)
        try:
            store.put("x", 1)
            with store._lock:
                store.versions.kill_worker(0)
            health = store.shard_health()
            assert health["workers_alive"] == 1
            assert health["workers_dead"] == [0]
        finally:
            store.close()

    def test_flat_store_has_no_shard_section(self):
        store = TardisStore("A")
        assert store.shard_health() is None

    def test_in_process_sharded_reports_accesses_only(self):
        store = TardisStore("A", shards=4)
        store.put("x", 1)
        health = store.shard_health()
        assert health["n_shards"] == 4
        assert "workers" not in health

    def test_sampler_feeds_shard_series(self):
        store = TardisStore("A", shards=2, shard_workers=2)
        try:
            store.put("x", 1)
            sampler = ObsSampler(store, site="A")
            snapshot = sampler.sample()
            assert snapshot["shards"]["n_workers"] == 2
            assert "tardis_shard_accesses@s0" in snapshot["series"]
            assert "tardis_shard_queue_depth@w0" in snapshot["series"]
            assert snapshot["series"]["tardis_shard_workers_alive@A"][-1][1] == 2
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Wire ops: OBS_SNAPSHOT / STATS obs section.


class TestObsSnapshotOp:
    def test_snapshot_on_demand_without_sampler(self, served_cold):
        with TardisClient(port=served_cold.port) as client:
            client.put("x", 1)
            snapshot = client.obs_snapshot()
            assert snapshot["obs_schema"] == OBS_SCHEMA_VERSION
            assert snapshot["gauges"]["connections"] == 1
            assert snapshot["counters"]["requests_total"] > 0
            # The request's own op shows up in the latency table (the
            # put rode on its COMMIT frame).
            assert "COMMIT" in snapshot["latency_ms"]
            assert snapshot["latency_ms"]["COMMIT"]["p99"] >= 0.0

    def test_tail_trims_series(self, served_cold):
        with TardisClient(port=served_cold.port) as client:
            for _ in range(4):
                client.obs_snapshot()
            cut = client.obs_snapshot(tail=2)
            assert all(len(s) <= 2 for s in cut["series"].values())
            assert "series" not in client.obs_snapshot(tail=0)

    def test_bad_tail_type_is_rejected(self, served_cold):
        with TardisClient(port=served_cold.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.obs_snapshot(tail="many")
            assert excinfo.value.code == "BAD_REQUEST"

    def test_stats_carries_obs_section(self, served_live):
        with TardisClient(port=served_live.port) as client:
            stats = client.stats()
            assert stats["obs"]["sampler"] is True
            assert stats["obs"]["interval_s"] == pytest.approx(0.05)
            # the counts are STATS's own top level, not a sampled copy
            assert set(stats["obs"]) == {"sampler", "interval_s"}

    def test_obs_snapshot_is_fresh_without_sampler(self, served_cold):
        with TardisClient(port=served_cold.port) as client:
            first = client.obs_snapshot(tail=0)["latency_ms"]
            for i in range(100):
                client.put("x", i)
            second = client.obs_snapshot(tail=0)["latency_ms"]
            before = first.get("COMMIT", {"count": 0})["count"]
            assert second["COMMIT"]["count"] - before == 100

    def test_stats_does_not_sample(self, served_cold):
        series = "tardis_branch_count@obs-cold"
        with TardisClient(port=served_cold.port) as client:
            client.put("x", 1)
            first = client.obs_snapshot()
            for _ in range(20):
                client.stats()
            second = client.obs_snapshot()
        # only the two OBS_SNAPSHOTs sampled: one seq step, one point per series
        assert second["seq"] == first["seq"] + 1
        assert len(second["series"][series]) == len(first["series"][series]) + 1
        assert served_cold.obs.seq == second["seq"]

    def test_sampler_ticks_accumulate(self, served_live):
        with TardisClient(port=served_live.port) as client:
            assert _wait_until(lambda: client.stats()["obs_samples"] >= 2)


# ---------------------------------------------------------------------------
# A watcher polls: the server writes a frame only to answer a request.


class TestNoPushStream:
    def test_no_frame_arrives_unasked(self, served_live):
        sock = socket.create_connection(("127.0.0.1", served_live.port), timeout=5.0)
        decoder = FrameDecoder()

        def ask(request):
            sock.sendall(encode_frame(request))
            while True:
                frame = decoder.next_frame()
                if frame is not None:
                    return frame
                decoder.feed(sock.recv(65536))

        try:
            assert ask({"id": 1, "op": "HELLO"})["ok"]
            subscribe = ask({"id": 2, "op": "OBS_SUBSCRIBE"})
            assert subscribe["error"]["code"] == "UNKNOWN_OP"
            # Several sampler ticks go by; nothing is written meanwhile.
            stats = served_live._stats
            ticks = stats["obs_samples"]
            assert _wait_until(lambda: stats["obs_samples"] >= ticks + 3)
            sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                sock.recv(65536)
            sock.settimeout(5.0)
            # The next frame is the answer to the next request.
            assert ask({"id": 3, "op": "OBS_SNAPSHOT", "tail": 0})["id"] == 3
        finally:
            sock.close()

    def test_stats_and_report_keep_no_push_accounting(self, served_live):
        with TardisClient(port=served_live.port) as client:
            stats = client.stats()
        assert not [name for name in stats if name.startswith("obs_frames")]
        assert set(stats["obs"]) == {"sampler", "interval_s"}
        assert _wait_until(lambda: served_live._stats["obs_samples"] > 0)
        report = served_live.shutdown()
        assert report["obs_samples"] > 0
        assert not [name for name in report if name.startswith("obs_frames")]


# ---------------------------------------------------------------------------
# Oracle-equivalence guard: the sampler must not change the protocol.


class TestSamplerOffEquivalence:
    SCRIPT = [
        {"op": "HELLO", "session": "oracle", "protocol": PROTOCOL_VERSION},
        {"op": "WRITE", "begin": {}, "key": "x", "value": 41},
        {"op": "COMMIT", "txn": 1},
        {"op": "READ", "begin": {"read_only": True}, "key": "x"},
        {"op": "READ_MANY", "txn": 2, "keys": ["x", "missing"]},
        # txn 2's close rides on the frame that begins txn 3
        {"op": "READ", "begin": {"read_only": True}, "closed": [2], "key": "x"},
        {"op": "COMMIT", "txn": 3},
        {"op": "BYE"},
    ]

    @staticmethod
    def _run_script(port):
        """Drive the script over a raw socket; returns the reply bytes."""
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        replies = []
        try:
            for i, fields in enumerate(TestSamplerOffEquivalence.SCRIPT, start=1):
                request = dict(fields)
                request["id"] = i
                payload = json.dumps(
                    request, separators=(",", ":"), sort_keys=True
                ).encode()
                sock.sendall(HEADER.pack(len(payload)) + payload)
                header = b""
                while len(header) < 4:
                    header += sock.recv(4 - len(header))
                (length,) = struct.unpack(">I", header)
                body = b""
                while len(body) < length:
                    body += sock.recv(length - len(body))
                replies.append(body)
        finally:
            sock.close()
        return replies

    def test_responses_byte_identical_with_and_without_sampler(self):
        cold = TardisServer(site="oracle").start()
        hot = TardisServer(site="oracle", obs_sample_interval=0.02).start()
        try:
            baseline = self._run_script(cold.port)
            live = self._run_script(hot.port)
        finally:
            cold.shutdown()
            hot.shutdown()
        assert baseline == live


# ---------------------------------------------------------------------------
# Servers with shard workers expose worker health over the wire.


class TestShardedObsOverWire:
    def test_snapshot_has_shard_section_and_sees_dead_worker(self):
        handle = TardisServer(
            site="shard-obs",
            shards=4,
            shard_workers=2,
            obs_sample_interval=0.05,
        ).start()
        try:
            with TardisClient(port=handle.port) as client:
                client.put("x", 1)
                snapshot = client.obs_snapshot()
                shards = snapshot["shards"]
                assert shards["n_shards"] == 4
                assert shards["workers_alive"] == 2
                assert shards["leaked_workers"] == 0
                with handle.store._lock:
                    handle.store.versions.kill_worker(0)
                assert _wait_until(
                    lambda: client.obs_snapshot()["shards"]["workers_dead"] == [0]
                )
        finally:
            handle.shutdown()


# ---------------------------------------------------------------------------
# `tardis top` (CLI).


class TestTardisTop:
    def test_one_shot_table(self, served_cold, capsys):
        with TardisClient(port=served_cold.port) as client:
            client.put("x", 1)
        rc = cli_main(["top", "--port", str(served_cold.port)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tardis top — site=obs-cold" in out
        assert "branches=" in out
        assert "gc cycles=0  removed=0" in out  # one commit: no cycle yet
        assert "p99" in out  # latency table rendered

    def test_the_gc_row_renders_the_server_counters(self):
        from repro.tools.top import render_snapshot

        counters = {
            "gc_cycles": 3, "gc_states_removed": 1500,
            "gc_pause_ms_last": 2.5, "gc_pause_ms_max": 12.25,
        }
        text = render_snapshot({"counters": counters})
        assert "gc cycles=3  removed=1500  pause_ms=2.50  pause_ms_max=12.2" in text

    def test_live_frames_against_streaming_server(self, served_live, capsys):
        with TardisClient(port=served_live.port) as client:
            for i in range(5):
                client.put("k%d" % i, i)
        rc = cli_main(
            ["top", "--port", str(served_live.port), "--live", "--frames", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("tardis top — site=obs-test") == 2
        assert "COMMIT" in out  # per-op latency row made it through

    def test_live_falls_back_to_polling_without_sampler(self, served_cold, capsys):
        rc = cli_main(
            ["top", "--port", str(served_cold.port), "--live", "--frames", "2",
             "--interval", "0.05"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("tardis top — site=obs-cold") == 2

    @pytest.mark.parametrize("sampler", [0.05, None], ids=["sampler-on", "sampler-off"])
    def test_live_polls_a_fresh_snapshot_per_frame(self, sampler, capsys):
        # Polls spaced by more than the sampler's cadence each find a
        # newer sample; with the sampler off each poll samples itself.
        handle = TardisServer(site="obs-poll", obs_sample_interval=sampler).start()
        try:
            rc = cli_main(
                ["top", "--port", str(handle.port), "--live", "--frames", "3",
                 "--interval", "0.15"]
            )
        finally:
            handle.shutdown()
        out = capsys.readouterr().out
        assert rc == 0
        seqs = [int(seq) for seq in re.findall(r"site=obs-poll  seq=(\d+)", out)]
        assert len(seqs) == 3
        assert seqs[0] < seqs[1] < seqs[2]

    def test_sparkline_shapes(self):
        from repro.tools.top import sparkline

        assert sparkline([], width=4) == "    "
        assert sparkline([0, 0, 0], width=3) == "▁▁▁"
        line = sparkline([0, 5, 10], width=3)
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=10)) == 10
