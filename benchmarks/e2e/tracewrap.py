"""Span wrappers around each layer's public functions, and their analysis.

The benchmark records spans from its own files: ``install`` replaces a
fixed table of functions in ``repro`` with timing wrappers, ``uninstall``
puts the originals back. Spans stay in memory and are written at exit as
flat rows, one JSONL file per process (the layer-tagged row idiom of the
DryBox runner in SNIPPETS.md)::

    [t_start, t_end, side, layer, name, parent, txn, n]

``parent`` is the row index of the enclosing span on the same thread (-1
at top level), ``txn`` the transaction the span belongs to (-1 when
unknown), ``n`` a count sampled at the same boundary (what it counts
depends on the span; see ``TARGETS``). Times are ``time.perf_counter``
seconds, which on Linux is CLOCK_MONOTONIC and so comparable between the
generator and the server.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.client.client as client_mod
import repro.server.server as server_mod
from repro.client.client import TardisClient, _BaseClientTransaction
from repro.core.commit import CommitPipeline
from repro.core.merge import MergeTransaction
from repro.core.state_dag import StateDAG
from repro.core.store import TardisStore
from repro.core.transaction import BaseTransaction, Transaction
from repro.core.versions import VersionedRecordStore
from repro.partitioning.router import ShardRouter
from repro.partitioning.workers import ProcShardedRecordStore, _WorkerHandle
from repro.server.protocol import FrameDecoder
from repro.storage.wal import WriteAheadLog

COLUMNS = ["t_start", "t_end", "side", "layer", "name", "parent", "txn", "n"]

Row = Tuple[float, float, str, str, int, int, int]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, side: str) -> None:
        self.side = side
        #: (t_start, t_end, layer, name, parent, txn, n); a slot is
        #: reserved at entry so row order is start order.
        self.rows: List[Optional[Row]] = []
        #: the transaction the generator is running; server-side spans
        #: look theirs up by transaction object instead.
        self.txn = -1
        self._stacks: Dict[int, List[Tuple[int, int]]] = {}
        self._txn_of: Dict[int, int] = {}
        self._begun = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        post: Optional[Callable[[tuple, Any], int]] = None,
        role: str = "",
    ) -> Callable[..., Any]:
        rows = self.rows
        stacks = self._stacks
        txn_of = self._txn_of
        get_ident = threading.get_ident
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks[get_ident()] = []
            if stack:
                parent, txn = stack[-1]
            else:
                parent, txn = -1, self.txn
            if role == "txn" and txn < 0:
                txn = txn_of.get(id(args[0]), -1)
            index = len(rows)
            rows.append(None)
            stack.append((index, txn))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # a span that raised keeps its time, with n = 0
                rows[index] = (start, clock(), layer, name, parent, txn, 0)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            if role == "begin":
                if txn < 0:
                    txn = self._begun
                self._begun += 1
                txn_of[id(result)] = txn
            n = post(args, result) if post is not None else 0
            rows[index] = (start, end, layer, name, parent, txn, n)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, targets: Iterable[tuple]) -> None:
        for owner, attr, layer, name, post, role in targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, layer, name, post, role))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> int:
        """Write the header and one JSON array per span; returns the count."""
        side = self.side
        with open(path, "w") as handle:
            handle.write(
                json.dumps({"columns": COLUMNS, "side": side, "pid": os.getpid()}) + "\n"
            )
            count = 0
            for row in self.rows:
                if row is None:
                    # keep row indices (= parent references) aligned
                    handle.write("null\n")
                    continue
                handle.write(
                    '[%r,%r,"%s","%s","%s",%d,%d,%d]\n'
                    % (row[0], row[1], side, row[2], row[3], row[4], row[5], row[6])
                )
                count += 1
        return count


def load_rows(path: str) -> List[Optional[Row]]:
    """Read a span file back into ``Tracer.rows`` form (side dropped)."""
    rows: List[Optional[Row]] = []
    with open(path) as handle:
        header = json.loads(handle.readline())
        if header.get("columns") != COLUMNS:
            raise ValueError("%s: unexpected span columns" % path)
        for line in handle:
            item = json.loads(line)
            if item is None:
                rows.append(None)
            else:
                rows.append(
                    (item[0], item[1], item[3], item[4], item[5], item[6], item[7])
                )
    return rows


# -- what gets wrapped ----------------------------------------------------------


def _frame_done(args: tuple, result: Any) -> int:
    return 0 if result is None else 1  # None: the frame is still incomplete


def _begin_cached(args: tuple, result: Any) -> int:
    return 1 if result.trace.begin_cached else 0


def _leaves_after(args: tuple, result: Any) -> int:
    return len(args[0].leaves())


def _txn_vis_hits(args: tuple, result: Any) -> int:
    return args[0].trace.vis_hits  # reads of this txn the visibility cache answered


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


def _bytes_fed(args: tuple, result: Any) -> int:
    return len(args[1])


_CLIENT = [
    (TardisClient, "begin", "client", "begin", None, ""),
    (TardisClient, "merge", "client", "merge", None, ""),
    (_BaseClientTransaction, "get", "client", "get", None, ""),
    (_BaseClientTransaction, "get_many", "client", "get_many", None, ""),
    (_BaseClientTransaction, "put", "client", "put", None, ""),
    (_BaseClientTransaction, "commit", "client", "commit", None, ""),
    # client.py binds encode_frame by name at import: patch the name
    # where it is looked up, not where it is defined.
    (client_mod, "encode_frame", "client.codec", "encode_frame", _result_len, ""),
    (FrameDecoder, "next_frame", "client.codec", "next_frame", _frame_done, ""),
    (FrameDecoder, "feed", "client.codec", "feed", _bytes_fed, ""),
]

_SERVER_CODEC = [
    (server_mod, "encode_frame", "server.protocol", "encode_frame", None, ""),
    (FrameDecoder, "next_frame", "server.protocol", "next_frame", _frame_done, ""),
]

_STORE = [
    (TardisStore, "begin", "core.store", "begin", _begin_cached, "begin"),
    (TardisStore, "begin_merge", "core.merge", "begin_merge", None, "begin"),
    (TardisStore, "collect_garbage", "core.gc", "collect_garbage", None, ""),
    (Transaction, "get", "core.transaction", "get", None, "txn"),
    (Transaction, "get_many", "core.transaction", "get_many", None, "txn"),
    (BaseTransaction, "put", "core.transaction", "put", None, "txn"),
    (Transaction, "commit", "core.transaction", "commit", _txn_vis_hits, "txn"),
    (MergeTransaction, "get_all", "core.merge", "get_all", None, "txn"),
    (MergeTransaction, "get_for_id", "core.merge", "get_for_id", None, "txn"),
    (MergeTransaction, "find_fork_points", "core.merge", "find_fork_points", None, "txn"),
    (MergeTransaction, "find_conflict_writes", "core.merge", "find_conflict_writes", _result_len, "txn"),
    (MergeTransaction, "commit", "core.merge", "commit", None, "txn"),
    (CommitPipeline, "commit", "core.commit", "pipeline", None, ""),
    (StateDAG, "find_read_state", "core.state_dag", "find_read_state", None, ""),
    (StateDAG, "create_state", "core.state_dag", "create_state", _leaves_after, ""),
    (VersionedRecordStore, "read_visible", "core.versions", "read_visible", None, ""),
    (VersionedRecordStore, "write", "core.versions", "write", None, ""),
    (WriteAheadLog, "append_commit", "storage.wal", "append_commit", None, ""),
    (WriteAheadLog, "flush", "storage.wal", "flush", None, ""),
]

# The proc-sharded plane: its record-store entry points, the router, and
# the pipe RPC itself. ``_WorkerHandle`` is private, but request/collect
# is the only place an RPC can be counted and timed from outside.
_SHARDS = [
    (ProcShardedRecordStore, "read_visible", "partitioning.workers", "read_visible", None, ""),
    (ProcShardedRecordStore, "read_visible_many", "partitioning.workers", "read_visible_many", None, ""),
    (ProcShardedRecordStore, "prepare_commit", "partitioning.workers", "prepare_commit", None, ""),
    (ProcShardedRecordStore, "install_commit", "partitioning.workers", "install_commit", None, ""),
    (ShardRouter, "plan", "partitioning.router", "plan", None, ""),
    (ShardRouter, "shard_of", "partitioning.router", "shard_of", None, ""),
    (_WorkerHandle, "request", "partitioning.rpc", "request", None, ""),
    (_WorkerHandle, "collect", "partitioning.rpc", "collect", None, ""),
]

TARGETS = {
    "client": _CLIENT,
    "server": _SERVER_CODEC + _STORE,
    "embedded": _STORE + _SHARDS,
}


def all_targets() -> List[tuple]:
    """Every (owner, attr) any side patches, once each."""
    seen = set()
    out = []
    for group in TARGETS.values():
        for target in group:
            key = (id(target[0]), target[1])
            if key not in seen:
                seen.add(key)
                out.append(target)
    return out


# -- analysis ---------------------------------------------------------------------


class SpanTable:
    """Totals per (layer, name) over a time window of one process's rows."""

    def __init__(self, rows: List[Optional[Row]], t_from: float, t_to: float) -> None:
        child_time = [0.0] * len(rows)
        for row in rows:
            if row is not None and row[4] >= 0:
                child_time[row[4]] += row[1] - row[0]
        self.total: Dict[Tuple[str, str], float] = {}
        self.self_time: Dict[Tuple[str, str], float] = {}
        self.count: Dict[Tuple[str, str], int] = {}
        self.durations: Dict[Tuple[str, str], List[float]] = {}
        self.notes: Dict[Tuple[str, str], List[int]] = {}
        self.top_level_total = 0.0
        for index, row in enumerate(rows):
            if row is None or row[0] < t_from or row[1] > t_to:
                continue
            key = (row[2], row[3])
            duration = row[1] - row[0]
            self.total[key] = self.total.get(key, 0.0) + duration
            self.self_time[key] = (
                self.self_time.get(key, 0.0) + duration - child_time[index]
            )
            self.count[key] = self.count.get(key, 0) + 1
            self.durations.setdefault(key, []).append(duration)
            self.notes.setdefault(key, []).append(row[6])
            if row[4] < 0:
                self.top_level_total += duration

    def layer_self(self, layer: str) -> float:
        return sum(v for (l, _n), v in self.self_time.items() if l == layer)

    def layer_total(self, layer: str) -> float:
        """Sum over the layer's spans (a layer nested in itself counts twice)."""
        return sum(v for (l, _n), v in self.total.items() if l == layer)

    def layers(self) -> List[str]:
        return sorted({l for (l, _n) in self.self_time})

    def mean(self, layer: str, name: str) -> float:
        count = self.count.get((layer, name), 0)
        return self.total.get((layer, name), 0.0) / count if count else 0.0
