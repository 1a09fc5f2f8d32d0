"""The per-layer numbers of a traced pass.

``per_layer`` turns the spans, server histograms and store counters of one
traced pass into the per-layer metrics ``BENCHMARK.json`` names; a layer a
workload never enters reports 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

from harness import metric_units
from tracewrap import Row, SpanTable

SERVER_OPS = ["BEGIN", "READ", "READ_MANY", "WRITE", "COMMIT", "MERGE"]

_CLIENT_CALLS = ["begin", "merge", "get", "get_many", "put", "commit"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _op_totals(snapshot: Dict[str, Any]) -> Dict[str, Tuple[int, float]]:
    """``op -> (count, total ms)`` from a snapshot's per-op histograms."""
    return {
        op: (entry["count"], entry["mean"] * entry["count"])
        for op, entry in snapshot.get("latency_ms", {}).items()
    }


def _store_metrics(table: SpanTable, keys_read: int) -> Dict[str, float]:
    """The layers below the server: same spans embedded and server-side."""
    out: Dict[str, float] = {}
    begin = ("core.store", "begin")
    out["store.begin_ms"] = table.mean(*begin) * 1e3
    out["store.begin_cache_hit_ratio"] = _ratio(
        sum(table.notes.get(begin, [])), table.count.get(begin, 0)
    )
    reads = [("core.transaction", "get"), ("core.transaction", "get_many")]
    out["store.read_ms"] = 1e3 * _ratio(
        sum(table.total.get(k, 0.0) for k in reads),
        sum(table.count.get(k, 0) for k in reads),
    )
    commit = ("core.transaction", "commit")
    out["store.commit_ms"] = table.mean(*commit) * 1e3
    out["versions.vis_cache_hit_ratio"] = _ratio(sum(table.notes.get(commit, [])), keys_read)
    pipeline = ("core.commit", "pipeline")
    out["commit.pipeline_ms"] = table.mean(*pipeline) * 1e3
    out["commit.self_ms"] = 1e3 * _ratio(
        table.self_time.get(pipeline, 0.0), table.count.get(pipeline, 0)
    )
    out["dag.find_read_state_us"] = table.mean("core.state_dag", "find_read_state") * 1e6
    out["dag.create_state_us"] = table.mean("core.state_dag", "create_state") * 1e6
    out["versions.read_visible_us"] = table.mean("core.versions", "read_visible") * 1e6
    out["merge.begin_merge_ms"] = table.mean("core.merge", "begin_merge") * 1e3
    out["merge.find_conflicts_ms"] = table.mean("core.merge", "find_conflict_writes") * 1e3
    out["merge.commit_ms"] = table.mean("core.merge", "commit") * 1e3
    return out


def _forks_and_leaves(rows: List[Optional[Row]], t_from: float, t_to: float) -> Tuple[int, int]:
    """Forks = times the leaf count rose across a ``create_state``."""
    forks = leaves_max = 0
    previous = 1
    for row in rows:
        if row is None or row[2] != "core.state_dag" or row[3] != "create_state":
            continue
        leaves = row[6]
        if t_from <= row[0] and row[1] <= t_to:
            if leaves > previous:
                forks += 1
            leaves_max = max(leaves_max, leaves)
        previous = leaves
    return forks, leaves_max


def per_layer(
    wire: bool,
    gen_rows: List[Optional[Row]],
    server_rows: List[Optional[Row]],
    window: Tuple[float, float],
    txns: int,
    txn_time: float,
    segment_wall: float,
    keys_read: int,
    obs_before: Optional[Dict[str, Any]],
    obs_after: Optional[Dict[str, Any]],
    counts: Dict[str, Any],
    gc_stats: List[Any],
    recovery: Dict[str, Any],
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics of one traced pass and its self-time table.

    The table's rows (layer, seconds) add up to the time the generator saw
    inside its calls into the system; ``trace.residual_pct`` is what the
    generator measured per txn beyond that (its own loop).
    """
    out: Dict[str, float] = {name: 0.0 for name, _unit in metric_units("per_layer")}
    named = set(out)
    t_from, t_to = window
    gen = SpanTable(gen_rows, t_from, t_to)
    table: List[Tuple[str, float]] = []

    if wire:
        assert obs_before is not None and obs_after is not None
        server = SpanTable(server_rows, t_from, t_to)
        calls = [("client", name) for name in _CLIENT_CALLS]
        n_calls = sum(gen.count.get(k, 0) for k in calls)
        durations = [d for k in calls for d in gen.durations.get(k, [])]
        t_client = sum(gen.total.get(k, 0.0) for k in calls)
        client_codec = gen.layer_total("client.codec")
        server_codec = server.layer_total("server.protocol")
        before, after = _op_totals(obs_before), _op_totals(obs_after)
        t_server = 0.0
        requests = 0
        for op in SERVER_OPS:
            count = after.get(op, (0, 0.0))[0] - before.get(op, (0, 0.0))[0]
            total_ms = after.get(op, (0, 0.0))[1] - before.get(op, (0, 0.0))[1]
            out["server.request_ms.%s" % op] = _ratio(total_ms, count)
            t_server += total_ms / 1e3
            requests += count
        # codec spans run on the event loop, never inside another span
        store_top = server.top_level_total - server_codec
        encode = ("server.protocol", "encode_frame")
        decode = ("server.protocol", "next_frame")
        out["client.calls_per_txn"] = _ratio(n_calls, txns)
        out["client.call_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
        out["client.codec_ms_per_txn"] = 1e3 * _ratio(client_codec, txns)
        out["client.wire_self_ms_per_txn"] = 1e3 * _ratio(t_client - t_server, txns)
        out["wire.txn_share"] = _ratio(t_client - store_top, t_client)
        out["protocol.encode_us_per_frame"] = server.mean(*encode) * 1e6
        out["protocol.decode_us_per_frame"] = 1e6 * _ratio(
            server.total.get(decode, 0.0), sum(server.notes.get(decode, []))
        )
        out["protocol.bytes_per_txn"] = _ratio(
            sum(gen.notes.get(("client.codec", "encode_frame"), []))
            + sum(gen.notes.get(("client.codec", "feed"), [])),
            txns,
        )
        out["server.requests_per_txn"] = _ratio(requests, txns)
        out["server.self_ms_per_txn"] = 1e3 * _ratio(t_server - store_top, txns)
        out.update(_store_metrics(server, keys_read))
        forks, leaves_max = _forks_and_leaves(server_rows, t_from, t_to)
        out["dag.forks"] = forks
        out["dag.leaves_max"] = leaves_max
        called = t_client
        table.append(("client.codec", client_codec))
        table.append(("server.protocol", server_codec))
        table.append(
            ("client+sockets+loop", t_client - client_codec - server_codec - t_server)
        )
        table.append(("server.server", t_server - store_top))
        for layer in server.layers():
            if layer != "server.protocol":
                table.append((layer, server.layer_self(layer)))
    else:
        out.update(_store_metrics(gen, keys_read))
        out["dag.forks"] = counts.get("dag.forks", 0)
        out["dag.leaves_max"] = _forks_and_leaves(gen_rows, t_from, t_to)[1]
        gc = ("core.gc", "collect_garbage")
        gc_time = gen.total.get(gc, 0.0)
        out["gc.cycle_ms"] = gen.mean(*gc) * 1e3
        out["gc.wall_share"] = _ratio(gc_time, segment_wall)
        out["gc.states_removed_per_cycle"] = _ratio(
            sum(s.states_removed for s in gc_stats), len(gc_stats)
        )
        out["gc.records_promoted_per_cycle"] = _ratio(
            sum(s.records_promoted for s in gc_stats), len(gc_stats)
        )
        append = ("storage.wal", "append_commit")
        flush = ("storage.wal", "flush")
        commits = gen.count.get(append, 0)
        flushes = gen.durations.get(flush, [])
        out["wal.append_us_per_commit"] = gen.mean(*append) * 1e6
        out["wal.flush_ms"] = statistics.median(flushes) * 1e3 if flushes else 0.0
        out["wal.flushes_per_kcommit"] = 1e3 * _ratio(len(flushes), commits)
        out["wal.bytes_per_commit"] = _ratio(
            recovery.get("wal_bytes", 0), recovery.get("replayed", 0)
        )
        out["wal.wall_share"] = _ratio(gen.layer_total("storage.wal"), segment_wall)
        out["recovery.replay_s"] = recovery.get("replay_s", 0.0)
        out["recovery.replayed"] = recovery.get("replayed", 0)
        out["recovery.discarded"] = recovery.get("discarded", 0)
        rpcs = gen.count.get(("partitioning.rpc", "request"), 0)
        workers_time = gen.layer_total("partitioning.workers")
        out["router.plan_us"] = 1e6 * _ratio(gen.layer_total("partitioning.router"), txns)
        out["workers.rpcs_per_txn"] = _ratio(rpcs, txns)
        out["workers.rpc_ms"] = 1e3 * _ratio(gen.layer_total("partitioning.rpc"), rpcs)
        out["workers.prepare_ms"] = gen.mean("partitioning.workers", "prepare_commit") * 1e3
        out["workers.install_ms"] = gen.mean("partitioning.workers", "install_commit") * 1e3
        out["workers.wall_share"] = _ratio(workers_time, segment_wall)
        out["partitioning.txn_share"] = _ratio(workers_time, txn_time)
        # GC runs between txns: its spans are in the wall, not in a txn.
        called = gen.top_level_total - gc_time
        for layer in gen.layers():
            if layer != "core.gc":
                table.append((layer, gen.layer_self(layer)))

    out["dag.live_states_end"] = counts.get("dag.live_states_end", 0)
    out["versions.records_end"] = counts.get("versions.records_end", 0)
    out["merge.conflict_keys_per_merge"] = _ratio(
        counts.get("merge.conflict_keys", 0), counts.get("merge.merges", 0)
    )
    out["trace.residual_pct"] = 100.0 * _ratio(txn_time - called, txn_time)
    out["trace.txns"] = txns
    if set(out) != named:
        raise ValueError("metrics BENCHMARK.json does not name: %s" % sorted(set(out) - named))
    return out, table
