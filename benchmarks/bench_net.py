"""bench_net: real wall-clock throughput/latency against a live server.

Every other benchmark in this directory reports *simulated* tps from the
discrete-event cost model. This one measures reality: it starts (or
connects to) a ``tardis serve`` process, fans out ``--clients``
OS processes each holding one TCP connection/session, and drives a
read/write/merge mix through the wire protocol, timing every operation
end-to-end (client-side, including framing and the network round trip).

Results go to ``BENCH_net.json`` (same schema as the simulated
figures, so the two are directly comparable side by side) with:

* ``throughput_tps`` — committed client operations per wall-clock second,
* ``p50/p95/p99_latency_ms`` — client-observed per-op latency,
* ``commits/aborts/merges/errors`` — outcome counters,
* ``leaked_sessions`` — sessions still open at the server after every
  client disconnected (must be 0; the CI smoke job asserts it),
* the server's own ``TARDIS_SERVE_REPORT`` when this script spawned it.

Usage::

    python benchmarks/bench_net.py            # 32 clients, full run
    python benchmarks/bench_net.py --smoke    # CI: 32 clients, short
    python benchmarks/bench_net.py --smoke --shard-workers 2   # shard plane
    python benchmarks/bench_net.py --connect 127.0.0.1:7145

``--smoke`` exits nonzero unless commits > 0, leaked_sessions == 0 and
(when the spawned server ran shard workers) leaked_workers == 0.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
for _path in (BENCH_DIR, SRC_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from common import write_bench_json  # noqa: E402
from repro.client import TardisClient  # noqa: E402
from repro.errors import NetworkError, TardisError, TransactionAborted  # noqa: E402


def _worker(
    worker_id: int,
    host: str,
    port: int,
    ops: int,
    n_keys: int,
    read_fraction: float,
    merge_every: int,
    seed: int,
    queue,
) -> None:
    """One client process: a read/write/merge loop with per-op timing."""
    rng = random.Random(seed * 1000003 + worker_id)
    out = {
        "worker": worker_id,
        "ok": False,
        "commits": 0,
        "aborts": 0,
        "merges": 0,
        "errors": 0,
        "latencies_ms": [],
    }
    try:
        client = TardisClient(host=host, port=port, session="bench-%d" % worker_id)
    except (OSError, TardisError) as exc:
        out["error"] = repr(exc)
        queue.put(out)
        return
    keys = ["key-%03d" % i for i in range(n_keys)]
    latencies = out["latencies_ms"]
    for i in range(ops):
        key = keys[rng.randrange(n_keys)]
        start = time.perf_counter()
        try:
            if merge_every and i and i % merge_every == 0:
                merge = client.merge()
                for conflict in merge.conflicts:
                    numeric = [
                        v for v in conflict["values"] if isinstance(v, (int, float))
                    ]
                    merge.put(conflict["key"], max(numeric) if numeric else None)
                merge.commit()
                out["merges"] += 1
                out["commits"] += 1
            elif rng.random() < read_fraction:
                client.get(key)
                out["commits"] += 1
            else:
                txn = client.begin()
                value = txn.get(key, default=0)
                txn.put(key, (value if isinstance(value, int) else 0) + 1)
                txn.commit()
                out["commits"] += 1
        except TransactionAborted:
            out["aborts"] += 1
        except (NetworkError, TardisError):
            out["errors"] += 1
        latencies.append((time.perf_counter() - start) * 1000.0)
    try:
        client.close()
    except (OSError, TardisError):
        pass
    out["ok"] = True
    queue.put(out)


def _spawn_server(args) -> tuple:
    """Start ``tardis serve`` as a subprocess; returns (proc, port)."""
    port_file = os.path.join(
        tempfile.mkdtemp(prefix="tardis-bench-net-"), "port.txt"
    )
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.tools.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--port-file",
            port_file,
            "--max-connections",
            str(args.clients + 8),
            "--request-timeout",
            str(args.request_timeout),
            "--drain-timeout",
            "5.0",
        ]
        + (["--shards", str(args.shards)] if args.shards else [])
        + (
            ["--shard-workers", str(args.shard_workers)]
            if args.shard_workers
            else []
        ),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.time() + 20.0
    while time.time() < deadline:
        if proc.poll() is not None:
            output = proc.stdout.read() if proc.stdout else ""
            raise RuntimeError("tardis serve died during startup:\n" + output)
        if os.path.exists(port_file):
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return proc, int(text)
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("tardis serve did not report a port within 20s")


def _stop_server(proc) -> dict:
    """SIGINT the server, wait, and parse its TARDIS_SERVE_REPORT line."""
    proc.send_signal(signal.SIGINT)
    try:
        output, _ = proc.communicate(timeout=30.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
    report = {}
    for line in (output or "").splitlines():
        if line.startswith("TARDIS_SERVE_REPORT "):
            report = json.loads(line[len("TARDIS_SERVE_REPORT ") :])
    report["exit_code"] = proc.returncode
    return report


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_bench(args) -> int:
    server_proc = None
    if args.connect:
        host, _, port_text = args.connect.partition(":")
        host, port = host or "127.0.0.1", int(port_text)
    else:
        server_proc, port = _spawn_server(args)
        host = "127.0.0.1"
    print(
        "bench_net: %d client processes x %d ops against %s:%d"
        % (args.clients, args.ops, host, port)
    )

    exit_code = 0
    control = TardisClient(host=host, port=port, session="bench-control")
    try:
        # Preload the key space so readers never miss.
        for i in range(args.keys):
            control.put("key-%03d" % i, 0)

        ctx = multiprocessing.get_context()
        queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_worker,
                args=(
                    worker_id,
                    host,
                    port,
                    args.ops,
                    args.keys,
                    args.read_fraction,
                    args.merge_every,
                    args.seed,
                    queue,
                ),
            )
            for worker_id in range(args.clients)
        ]
        wall_start = time.perf_counter()
        for proc in workers:
            proc.start()
        results = [queue.get(timeout=120.0) for _ in workers]
        wall_s = time.perf_counter() - wall_start
        for proc in workers:
            proc.join(timeout=10.0)

        # Let the server finish tearing down the worker connections,
        # then count sessions: only the control session may remain.
        open_sessions = None
        deadline = time.time() + 5.0
        while time.time() < deadline:
            open_sessions = control.stats()["open_sessions"]
            if open_sessions <= 1:
                break
            time.sleep(0.05)
        leaked_sessions = max(0, (open_sessions or 1) - 1)
        stats = control.stats()
    finally:
        control.close()

    commits = sum(r["commits"] for r in results)
    aborts = sum(r["aborts"] for r in results)
    merges = sum(r["merges"] for r in results)
    errors = sum(r["errors"] for r in results)
    connect_failures = sum(1 for r in results if not r["ok"])
    latencies = sorted(
        value for r in results for value in r["latencies_ms"]
    )
    total_ops = len(latencies)

    server_report = {}
    leaked_workers = 0
    if server_proc is not None:
        server_report = _stop_server(server_proc)
        # The authoritative leak count: what the server saw after its
        # own graceful drain (the control session closed above).
        leaked_sessions = len(server_report.get("leaked_sessions", []))
        leaked_workers = int(server_report.get("leaked_workers", 0) or 0)

    metrics = {
        "throughput_tps": total_ops / wall_s if wall_s else 0.0,
        "wall_s": wall_s,
        "p50_latency_ms": _percentile(latencies, 0.50),
        "p95_latency_ms": _percentile(latencies, 0.95),
        "p99_latency_ms": _percentile(latencies, 0.99),
        "mean_latency_ms": (sum(latencies) / total_ops) if total_ops else 0.0,
        "commits": commits,
        "aborts": aborts,
        "merges": merges,
        "errors": errors,
        "connect_failures": connect_failures,
        "leaked_sessions": leaked_sessions,
        "leaked_workers": leaked_workers,
        "open_sessions_after_run": open_sessions,
        "server_requests_total": stats["requests_total"],
        "server_store_states": stats["store"]["states"],
        "server_report": server_report,
    }
    config = {
        "clients": args.clients,
        "ops_per_client": args.ops,
        "keys": args.keys,
        "read_fraction": args.read_fraction,
        "merge_every": args.merge_every,
        "seed": args.seed,
        "smoke": args.smoke,
        "spawned_server": server_proc is not None,
        "shards": args.shards,
        "shard_workers": args.shard_workers,
    }
    path = write_bench_json("net", metrics, config)
    print(
        "bench_net: %.0f ops/s wall, p50=%.2fms p99=%.2fms, "
        "%d commits / %d aborts / %d merges / %d errors, leaked_sessions=%d"
        % (
            metrics["throughput_tps"],
            metrics["p50_latency_ms"],
            metrics["p99_latency_ms"],
            commits,
            aborts,
            merges,
            errors,
            leaked_sessions,
        )
    )
    print("bench_net: wrote %s" % path)

    if args.smoke:
        problems = []
        if commits <= 0:
            problems.append("no committed transactions")
        if leaked_sessions != 0:
            problems.append("%d leaked sessions" % leaked_sessions)
        if leaked_workers != 0:
            problems.append("%d leaked shard workers" % leaked_workers)
        if connect_failures:
            problems.append("%d clients failed to connect" % connect_failures)
        if server_proc is not None and server_report.get("exit_code") != 0:
            problems.append(
                "server exited %r" % (server_report.get("exit_code"),)
            )
        if problems:
            print("bench_net SMOKE FAILED: " + "; ".join(problems))
            exit_code = 1
        else:
            print("bench_net smoke ok")
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=32, help="client processes")
    parser.add_argument("--ops", type=int, default=300, help="ops per client")
    parser.add_argument("--keys", type=int, default=64)
    parser.add_argument("--read-fraction", type=float, default=0.7)
    parser.add_argument(
        "--merge-every", type=int, default=25,
        help="every Nth op per client is a merge (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--request-timeout", type=float, default=10.0)
    parser.add_argument(
        "--shards", type=int, default=None,
        help="spawn the server with --shards N (sharded record store)",
    )
    parser.add_argument(
        "--shard-workers", type=int, default=None,
        help="spawn the server with --shard-workers N (shards in worker processes)",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="benchmark an already-running server instead of spawning one",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="short CI run; exit nonzero unless commits>0 and 0 leaked sessions",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.ops = min(args.ops, 30)
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
