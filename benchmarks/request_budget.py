"""request_budget: where one wire transaction's CPU goes, per process.

The end-to-end benchmark (``benchmarks/e2e/run.py``) reads throughput;
this script splits it into the budget a change to the request path is
sized against, on the ``wire_read`` mix (90 % ``get_many`` of 4 keys,
10 % single-key read-modify-writes, two sessions taking turns):

* **served** — ``tardis serve`` in a subprocess on the same CPU as this
  process, as ``run.py`` runs them: the server's CPU per transaction (all
  its threads, from ``/proc/<pid>/task/*/schedstat``), this process's
  CPU per transaction (client library plus the driving loop), and the
  server's handler time per transaction (its per-op histograms, read
  with ``OBS_SNAPSHOT``);
* **hot loop** — in this process, one ``WireSession.handle`` of an
  autocommit read (``closed`` + piggy-backed ``begin`` + ``READ_MANY``)
  against a preloaded store, the store work alone (begin, ``get_many``,
  read-only commit, ``place_ceiling``), and ``encode_frame`` /
  ``FrameDecoder`` per frame of that request and its answer;
* **echo floor** — a bare ``selectors`` + ``json`` echo server with the
  same framing: the server CPU per round trip no request path can go
  under.

Usage (Linux: it reads schedstat and pins CPUs)::

    python benchmarks/request_budget.py [--txns 8000] [--repeat 3]

It measures the checkout it sits in; compare two trees by running each
checkout's copy in turn. Prints one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.join(HERE, "e2e"))

import harness  # noqa: E402  (the e2e harness: server process, pinning, env)
import workloads as wl  # noqa: E402  (and its op generator)

from repro.client import TardisClient  # noqa: E402
from repro.core.store import TardisStore  # noqa: E402
from repro.server.handlers import WireSession  # noqa: E402
from repro.server.protocol import FrameDecoder, encode_frame  # noqa: E402
from repro.server.server import TardisServer  # noqa: E402

KEYS = wl.SPECS["wire_read"].keys

ECHO = r"""
import json, selectors, socket, struct, sys
H = struct.Struct(">I")
listener = socket.create_server(("127.0.0.1", 0))
listener.setblocking(False)
with open(sys.argv[1], "w") as handle:
    handle.write(str(listener.getsockname()[1]))
selector = selectors.DefaultSelector()
selector.register(listener, selectors.EVENT_READ, None)
buffers = {}
while True:
    for key, _events in selector.select():
        if key.data is None:
            sock, _ = listener.accept()
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            buffers[sock] = bytearray()
            selector.register(sock, selectors.EVENT_READ, sock)
            continue
        sock = key.data
        data = sock.recv(65536)
        if not data:
            sys.exit(0)
        buffer = buffers[sock]
        buffer += data
        while len(buffer) >= 4:
            (length,) = H.unpack_from(buffer)
            if len(buffer) < 4 + length:
                break
            request = json.loads(buffer[4 : 4 + length])
            del buffer[: 4 + length]
            answer = json.dumps(
                {"found": [True] * 4, "values": [0] * 4, "txn": 1,
                 "read_state": "s1@net", "id": request["id"], "ok": True},
                separators=(",", ":"),
            ).encode()
            sock.send(H.pack(len(answer)) + answer)
"""


def _task_cpu_us(pid: int) -> float:
    """CPU time of every thread of ``pid``, in microseconds."""
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as handle:
                total += int(handle.read().split()[0])
        except OSError:
            pass  # the thread exited
    return total / 1e3


def _start_echo(port_file: str, cpu: int) -> "tuple[subprocess.Popen, int]":
    proc = subprocess.Popen(
        [sys.executable, "-c", ECHO, port_file], env=harness.child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    while True:
        if proc.poll() is not None:
            raise RuntimeError("the echo server exited at start-up")
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                break
        except OSError:
            pass
        time.sleep(0.005)
    harness.pin_all_tasks(proc.pid, cpu)
    return proc, int(text)


def _ops(txns: int, seed: int) -> List[tuple]:
    ops: List[tuple] = []
    segment = 0
    while len(ops) < txns:
        ops.extend(wl.segment_ops("wire_read", seed, segment))
        segment += 1
    return ops[:txns]


def _drive(clients: List[TardisClient], ops: List[tuple]) -> None:
    for i, (kind, keys) in enumerate(ops):
        client = clients[i & 1]
        if kind == wl.READ:
            txn = client.begin(read_only=True)
            txn.get_many(list(keys))
            txn.commit()
        else:
            txn = client.begin()
            values = [txn.get(key) for key in keys]
            for key, value in zip(keys, values):
                txn.put(key, value + 1)
            txn.commit()


def _handler_ms(client: TardisClient) -> float:
    """Total handler milliseconds the server's per-op histograms hold."""
    latency = client.obs_snapshot(tail=0)["latency_ms"]
    return sum(entry["count"] * entry["mean"] for entry in latency.values())


def served(txns: int, repeat: int, cpu: int, tmp: str) -> List[Dict[str, float]]:
    server = harness.ServerProcess(tmp, cpu)  # ``tardis serve``, as run.py starts it
    server.start()
    rows = []
    try:
        clients = [TardisClient(port=server.port, session=name, timeout=30.0) for name in ("A", "B")]
        keys = [wl.key_name(i) for i in range(KEYS)]
        for base in range(0, KEYS, wl.PRELOAD_BATCH):
            txn = clients[0].begin()
            for key in keys[base : base + wl.PRELOAD_BATCH]:
                txn.put(key, 0)
            txn.commit()
        _drive(clients, _ops(2000, seed=3))  # warm-up
        ops = _ops(txns, seed=7)
        for _ in range(repeat):
            handled = _handler_ms(clients[0])
            server_us, client_s, wall = _task_cpu_us(server.pid), time.process_time(), time.perf_counter()
            _drive(clients, ops)
            server_us = _task_cpu_us(server.pid) - server_us
            client_s, wall = time.process_time() - client_s, time.perf_counter() - wall
            handled = _handler_ms(clients[0]) - handled
            rows.append({
                "txn_per_s": txns / wall,
                "server_us_per_txn": server_us / txns,
                "client_us_per_txn": client_s * 1e6 / txns,
                "handler_us_per_txn": handled * 1e3 / txns,
            })
        for client in clients:
            client.close()
        server.stop()
    finally:
        server.kill()
    return rows


def hot_loop(n: int) -> Dict[str, float]:
    store = TardisStore("hot")
    with store.begin() as txn:
        for i in range(KEYS):
            txn.put(wl.key_name(i), 0)
    session = WireSession(TardisServer(store), 1)
    session.handle({"id": 0, "op": "HELLO", "session": "A"})
    rng = random.Random(1)
    batches = [[wl.key_name(rng.randrange(KEYS)) for _ in range(4)] for _ in range(n)]
    previous = None
    start = time.process_time()
    for i, keys in enumerate(batches, start=1):
        request = {"id": i, "op": "READ_MANY", "begin": {"read_only": True}, "keys": keys}
        if previous is not None:
            request["closed"] = [previous]
        previous = session.handle(request)["txn"]
    handle_us = (time.process_time() - start) * 1e6 / n
    bound = session.bound
    start = time.process_time()
    for keys in batches:
        txn = store.begin(session=bound, read_only=True)
        txn.get_many(keys)
        txn.commit()
        bound.place_ceiling()
    store_us = (time.process_time() - start) * 1e6 / n
    request = {"id": n + 1, "op": "READ_MANY", "begin": {"read_only": True},
               "keys": batches[0], "closed": [previous]}
    answer = session.handle(dict(request))
    messages = [request, answer]
    frames = [encode_frame(message) for message in messages]
    start = time.process_time()
    for _ in range(n):
        for message in messages:
            encode_frame(message)
    encode_us = (time.process_time() - start) * 1e6 / (2 * n)
    decoder = FrameDecoder()
    start = time.process_time()
    for _ in range(n):
        for frame in frames:
            decoder.feed(frame)
            decoder.next_frame()
    decode_us = (time.process_time() - start) * 1e6 / (2 * n)
    return {
        "handle_us_per_request": handle_us,
        "store_us_per_request": store_us,
        "encode_us_per_frame": encode_us,
        "decode_us_per_frame": decode_us,
        "request_bytes": len(frames[0]),
        "answer_bytes": len(frames[1]),
    }


def echo_floor(round_trips: int, repeat: int, cpu: int, tmp: str) -> List[float]:
    proc, port = _start_echo(os.path.join(tmp, "echo-port"), cpu)
    payload = json.dumps(
        {"id": 1, "op": "READ_MANY", "begin": {"read_only": True},
         "keys": [wl.key_name(i) for i in range(4)], "closed": [3]},
        separators=(",", ":"),
    ).encode()
    frame = struct.pack(">I", len(payload)) + payload
    rows = []
    try:
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for _ in range(repeat):
                before = _task_cpu_us(proc.pid)
                for _ in range(round_trips):
                    sock.sendall(frame)
                    sock.recv(65536)
                rows.append((_task_cpu_us(proc.pid) - before) / round_trips)
    finally:
        proc.kill()
        proc.wait()
    return rows


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--txns", type=int, default=8000, help="transactions per served sample")
    parser.add_argument("--repeat", type=int, default=3, help="served and echo samples")
    args = parser.parse_args(argv)
    cpu = harness.pin_to_one_cpu()
    with tempfile.TemporaryDirectory() as tmp:
        rows = served(args.txns, args.repeat, cpu, tmp)
        echo = echo_floor(args.txns, args.repeat, cpu, tmp)
    out: Dict[str, Any] = {
        "served": {key: statistics.median(row[key] for row in rows) for key in rows[0]},
        "served_samples": rows,
        "hot_loop": hot_loop(20000),
        "echo_server_us_per_round_trip": statistics.median(echo),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
