"""bench_shardplane: shard-plane throughput vs worker count.

Measures real wall-clock read/write throughput of the partitioned
storage layer on the Figure 9(a) mix (Read-Heavy, uniform keys): the
in-process shards (``TardisStore(shards=8)``) versus the same shards
in 1/2/4/8 worker processes (``shard_workers=N``), all behind the same
``TardisStore`` transaction API.

The workload is built to exercise the part of the read path the worker
processes actually parallelize: every key carries ``--history`` stacked
versions, read-only transactions pin an *old* read state
(``StateIdConstraint``), so each read is a version walk that skips the
whole newer history, and the six reads of a read-only transaction go
through ``Transaction.get_many`` — one scatter/gather batch across the
shard workers instead of six sequential round trips. The visibility
cache has no off switch: once a key has been walked from the pinned
state, the shard owning it answers repeats from its cache until an
update transaction reads that key at the head, so the arms compare a mix
of walks and cache hits.

Results go to ``BENCH_shardplane.json``: per-arm read/write key
throughput plus ``speedup_vs_inproc`` ratios. Each worker arm also
records ``ping_us``, the median of ``PINGS`` health-ping round trips
(``worker_health(ping=True)``'s ``ping_ms`` × 1000) over the idle
store after its run: the cost of one shard-link message with no
record work behind it. Beside it, every arm records ``read_us``, the
median of ``READS`` one-key ``read_visible`` round trips on the idle
store (a cache hit: the per-RPC budget of a read, framing included),
and each worker arm the byte sizes of that read's request and reply
frames (``read_request_bytes``, ``read_reply_bytes``). ``cpu_count`` and
``cpu_affinity`` are recorded alongside because the ratios only show
parallel speedup when the container actually has cores to run the
workers on; on a single-core host the proc plane pays its IPC overhead
with nothing to overlap against.

Usage::

    python benchmarks/bench_shardplane.py             # full sweep
    python benchmarks/bench_shardplane.py --smoke     # CI-sized
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
for _path in (BENCH_DIR, SRC_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from common import write_bench_json  # noqa: E402
from repro.core.constraints import StateIdConstraint  # noqa: E402
from repro.core.store import TardisStore  # noqa: E402
from repro.workload.mixes import READ_HEAVY, YCSBWorkload  # noqa: E402

N_SHARDS = 8
WORKER_SWEEP = [1, 2, 4, 8]
#: health-ping round trips per worker arm behind ``ping_us``.
PINGS = 200
#: one-key reads per arm behind ``read_us``.
READS = 2000


def _build_store(arm: str, workers: int) -> TardisStore:
    if arm == "inproc":
        return TardisStore("bench", shards=N_SHARDS)
    return TardisStore("bench", shards=N_SHARDS, shard_workers=workers)


def _preload_and_stack(store: TardisStore, n_keys: int, history: int):
    """Load the key space and pile ``history`` versions on every key.

    Returns the state id of the *preload* commit: a read pinned there
    must walk past the whole stacked history for every key it touches.
    """
    keys = ["key%06d" % i for i in range(n_keys)]
    txn = store.begin(session=store.session("loader"))
    for key in keys:
        txn.put(key, 0)
    old_id = txn.commit()
    for round_no in range(1, history + 1):
        txn = store.begin(session=store.session("loader"))
        for key in keys:
            txn.put(key, round_no)
        txn.commit()
    return old_id


def _ping_us(store: TardisStore) -> float:
    """Median health-ping round trip over every worker, in microseconds."""
    pings = []
    for _ in range(PINGS):
        for worker in store.shard_health(ping=True)["workers"]:
            pings.append(worker["ping_ms"])
    return statistics.median(pings) * 1000.0


class _FrameSizes:
    """Wraps a shard link's socket and keeps the size of the last frame
    sent and the last reply received (one ``recv_into`` each)."""

    def __init__(self, sock):
        self.sock = sock
        self.sent = self.received = 0

    def sendall(self, data):
        self.sent = len(data)
        return self.sock.sendall(data)

    def recv_into(self, into):
        self.received = self.sock.recv_into(into)
        return self.received

    def __getattr__(self, name):
        return getattr(self.sock, name)


def _read_budget(store: TardisStore, key: str) -> dict:
    """``read_us``: the median one-key ``read_visible`` round trip on the
    idle store; on a worker arm, the sizes of that read's two frames."""
    versions, dag = store.versions, store.dag
    sent = received = None
    with store._lock:
        state = dag.leaves()[0]
        times = []
        for _ in range(READS):
            started = time.perf_counter()
            versions.read_visible(key, state, dag)
            times.append(time.perf_counter() - started)
        if versions.n_workers:
            handle = versions._links[versions.shard_index(key) % versions.n_workers]
            handle.sock = sizes = _FrameSizes(handle.sock)
            try:
                versions.read_visible(key, state, dag)
            finally:
                handle.sock = sizes.sock
            sent, received = sizes.sent, sizes.received
    return {
        "read_us": statistics.median(times) * 1e6,
        "read_request_bytes": sent,
        "read_reply_bytes": received,
    }


def _run_arm(arm: str, workers: int, args) -> dict:
    store = _build_store(arm, workers)
    label = arm if arm == "inproc" else "proc-%dw" % workers
    try:
        old_id = _preload_and_stack(store, args.keys, args.history)
        workload = YCSBWorkload(
            mix=READ_HEAVY, n_keys=args.keys, pattern="uniform"
        )
        rng = random.Random(args.seed)
        session = store.session("bench-client")
        specs = [workload.next_txn(rng) for _ in range(args.txns)]

        reads = writes = commits = 0
        wall_start = time.perf_counter()
        for spec in specs:
            if spec.read_only:
                # Deep-walk reads: pin the pre-history state and batch
                # the whole read set into one scatter/gather.
                txn = store.begin(
                    begin_constraint=StateIdConstraint([old_id]),
                    session=session,
                    read_only=True,
                )
                keys = [op[1] for op in spec.ops]
                txn.get_many(keys, default=None)
                txn.commit()
                reads += len(keys)
            else:
                txn = store.begin(session=session)
                read_keys = [op[1] for op in spec.ops if op[0] == "r"]
                if read_keys:
                    txn.get_many(read_keys, default=None)
                for op in spec.ops:
                    if op[0] == "w":
                        txn.put(op[1], op[2])
                        writes += 1
                txn.commit()
                reads += len(read_keys)
            commits += 1
        wall_s = time.perf_counter() - wall_start
        ping_us = None if arm == "inproc" else _ping_us(store)
        budget = _read_budget(store, specs[0].ops[0][1])
    finally:
        store.close()
    result = {
        "arm": label,
        "workers": workers if arm != "inproc" else 0,
        "wall_s": wall_s,
        "txns": commits,
        "txn_per_s": commits / wall_s if wall_s else 0.0,
        "read_keys_per_s": reads / wall_s if wall_s else 0.0,
        "write_keys_per_s": writes / wall_s if wall_s else 0.0,
        "reads": reads,
        "writes": writes,
        "leaked_workers": store.leaked_workers,
        "ping_us": ping_us,
        **budget,
    }
    print(
        "bench_shardplane: %-8s %6.2fs wall, %7.0f reads/s, %6.0f writes/s, read %.1f us%s"
        % (
            label, wall_s, result["read_keys_per_s"], result["write_keys_per_s"],
            budget["read_us"],
            "" if ping_us is None else ", ping %.1f us (frames %d/%d B)"
            % (ping_us, budget["read_request_bytes"], budget["read_reply_bytes"]),
        )
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=512)
    parser.add_argument(
        "--history", type=int, default=40,
        help="stacked versions per key (walk depth for pinned reads)",
    )
    parser.add_argument("--txns", type=int, default=400, help="txns per arm")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run; also gates on commits>0 and zero worker leaks",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.txns = min(args.txns, 60)
        args.history = min(args.history, 10)
        args.keys = min(args.keys, 128)

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count() or 1

    arms = [_run_arm("inproc", 0, args)]
    arms += [_run_arm("proc", n, args) for n in WORKER_SWEEP]

    base = arms[0]["read_keys_per_s"] or 1.0
    speedups = {
        arm["arm"]: arm["read_keys_per_s"] / base for arm in arms[1:]
    }
    metrics = {
        "arms": arms,
        "speedup_vs_inproc": speedups,
        "speedup_4_workers": speedups.get("proc-4w", 0.0),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
    }
    config = {
        "mix": "fig9a-read-heavy",
        "n_shards": N_SHARDS,
        "worker_sweep": WORKER_SWEEP,
        "keys": args.keys,
        "history": args.history,
        "txns_per_arm": args.txns,
        "seed": args.seed,
        "smoke": args.smoke,
        "pings_per_arm": PINGS,
        "reads_per_arm": READS,
    }
    path = write_bench_json("shardplane", metrics, config)
    print(
        "bench_shardplane: 4-worker speedup vs in-process = %.2fx "
        "(on %d usable core(s))"
        % (metrics["speedup_4_workers"], affinity)
    )
    print("bench_shardplane: wrote %s" % path)

    if args.smoke:
        problems = []
        if any(arm["txns"] <= 0 for arm in arms):
            problems.append("an arm committed no transactions")
        if any(arm["leaked_workers"] for arm in arms):
            problems.append("leaked shard workers")
        if problems:
            print("bench_shardplane SMOKE FAILED: " + "; ".join(problems))
            return 1
        print("bench_shardplane smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
