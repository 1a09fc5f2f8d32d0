"""TARDiS-as-a-service: the asyncio TCP front-end.

One :class:`TardisServer` wraps one :class:`~repro.core.store.TardisStore`
and speaks the length-prefixed JSON protocol of
:mod:`repro.server.protocol`. Each accepted connection is bound (by the
HELLO handshake) to one :class:`~repro.core.store.ClientSession`, so the
paper's session guarantees — Ancestor begin anchored at the client's
last commit — hold per connection exactly as they do in-process.

Concurrency model: the asyncio event loop multiplexes socket I/O across
every connection; the store operations themselves run on a dedicated
single worker thread (``_executor``), which serializes them — the store
is lock-protected, but its read path is optimized for the one-writer
discrete-event harness, and a single worker keeps the wall-clock
behaviour honest while still letting the loop time out stuck requests
(``asyncio.wait_for`` around the executor hop) and keep accepting,
parsing, and answering frames meanwhile.

Production plumbing:

* **Backpressure** — at most ``max_connections`` live connections (the
  excess gets a ``SERVER_BUSY`` error frame and an immediate close);
  requests on one connection are processed strictly in order, so a
  pipelining client is throttled by its own unanswered frames; responses
  go through ``writer.drain()`` so a slow reader blocks its own
  connection only.
* **Per-request timeouts** — a request that exceeds ``request_timeout``
  is answered with a ``TIMEOUT`` error; the connection survives.
* **Graceful shutdown** — :meth:`TardisServer.shutdown` stops accepting,
  refuses new transactions (``SHUTTING_DOWN``) while letting open ones
  run to COMMIT/ABORT for up to ``drain_timeout`` seconds, then closes
  the stragglers; disconnect cleanup aborts their transactions and
  closes their sessions, so a drained server leaks nothing.
* **Disconnect cleanup** — a dropped connection aborts its open
  transactions and closes its session via the (idempotent)
  ``TardisStore.close_session``, releasing read-state pins and GC
  ceilings.

Observability: the ``tardis_net_server_*`` counters/gauges/histograms
are recorded against the default metrics registry (catalogued in
``METRIC_NAMES``, so the metric-drift rule covers them), and a plain
stats dict — independent of whether the registry is enabled — feeds the
STATS command and the shutdown report.

Live ops plane (docs/internals.md §14): with ``obs_sample_interval``
set, an :class:`~repro.obs.sampler.ObsSampler` task samples the store's
divergence series, the server gauges, per-op latency percentiles, and
the shard plane's worker health on a wall-clock cadence (each sample
runs on the store executor, serialized with request handlers), and runs
the flight-recorder triggers live so threshold trips become alerts.
Snapshots are served one-shot via ``OBS_SNAPSHOT`` and streamed to
``OBS_SUBSCRIBE``-ed connections as push frames. Slow-consumer policy:
each subscription buffers at most ``obs_queue_frames`` snapshots; when
the subscriber's socket cannot keep up, new snapshots are *dropped*
(never buffered unboundedly, never blocking the sampler), counted per
subscription, and the next delivered frame carries the cumulative
``dropped`` count so the gap is visible downstream.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.constraints import (
    AncestorConstraint,
    AnyConstraint,
    Constraint,
    ParentConstraint,
    ReadCommittedConstraint,
    SerializabilityConstraint,
    SnapshotIsolationConstraint,
)
from repro.core.merge import MergeTransaction
from repro.core.store import TardisStore
from repro.core.transaction import ACTIVE, COMMITTED, BaseTransaction
from repro.errors import (
    BeginError,
    FrameTooLarge,
    MultipleValuesError,
    ProtocolError,
    ReadOnlyViolation,
    ShardUnavailableError,
    TardisError,
    TransactionAborted,
    TransactionClosed,
)
from repro.obs import metrics as _met
from repro.obs.sampler import ObsSampler
from repro.server.protocol import (
    MAX_FRAME,
    OPS,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
    error_response,
    ok_response,
)

__all__ = ["TardisServer", "ServerThread", "start_in_thread", "run_server"]

#: begin-constraint names accepted by BEGIN (Table 1 of the paper).
BEGIN_CONSTRAINTS: Dict[str, Callable[[], Constraint]] = {
    "ancestor": AncestorConstraint,
    "any": AnyConstraint,
    "parent": ParentConstraint,
}

#: end-constraint names accepted by COMMIT.
END_CONSTRAINTS: Dict[str, Callable[[], Constraint]] = {
    "serializability": SerializabilityConstraint,
    "snapshot-isolation": SnapshotIsolationConstraint,
    "read-committed": ReadCommittedConstraint,
    "any": AnyConstraint,
}

#: sentinel distinguishing "key absent" from an explicit None value.
_MISSING = object()


class _RequestError(Exception):
    """Raised by a handler to produce a typed wire error response."""

    def __init__(self, code: str, message: str = "") -> None:
        super().__init__(code)
        self.code = code
        self.message = message


class _Connection:
    """Per-connection state: the session binding and open transactions.

    Everything here is mutated only on the store executor thread (the
    handlers) or after the connection's request loop has exited (the
    cleanup, also dispatched to the executor), never concurrently.
    """

    _GUARDED_BY = {
        "txns": "external:store-executor",
        "session_name": "external:store-executor",
    }

    __slots__ = (
        "id",
        "peer",
        "writer",
        "session_name",
        "txns",
        "next_txn_id",
        "hello_done",
    )

    def __init__(self, conn_id: int, peer: str, writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.peer = peer
        self.writer = writer
        self.session_name: Optional[str] = None
        #: txn wire id -> open BaseTransaction.
        self.txns: Dict[int, BaseTransaction] = {}
        self.next_txn_id = 1
        self.hello_done = False


class _ObsSubscription:
    """One OBS_SUBSCRIBE stream: a bounded snapshot queue + writer task.

    The drop policy lives here: ``offer`` never blocks and never buffers
    more than ``capacity`` snapshots — when the writer task (throttled
    by the subscriber's socket) falls behind, the *new* snapshot is
    dropped and counted, and the next frame that does go out carries the
    cumulative ``dropped`` total. ``offer`` runs on the event loop only
    (like the writer task), so the counters need no lock; the
    unsubscribe handler merely reads them for its accounting reply.
    """

    __slots__ = ("conn_id", "writer", "capacity", "queue", "sent", "dropped", "task")

    def __init__(
        self, conn_id: int, writer: asyncio.StreamWriter, capacity: int
    ) -> None:
        self.conn_id = conn_id
        self.writer = writer
        self.capacity = capacity
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        self.sent = 0
        self.dropped = 0
        self.task: Optional[asyncio.Task] = None

    def offer(self, snapshot: Dict[str, Any]) -> bool:
        """Enqueue for delivery; False (and counted) when full."""
        try:
            self.queue.put_nowait(snapshot)
            return True
        except asyncio.QueueFull:
            self.dropped += 1
            return False


class TardisServer:
    """An asyncio TCP server exposing one TardisStore over the wire."""

    _GUARDED_BY = {
        "_conns": "self._lock",
        "_session_names": "self._lock",
        "_owned_sessions": "self._lock",
        "_stats": "self._lock",
        "_inflight": "self._lock",
        "_obs_subs": "self._lock",
    }

    def __init__(
        self,
        store: Optional[TardisStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        site: str = "net",
        engine: Optional[str] = None,
        shards: Optional[int] = None,
        shard_workers: Optional[int] = None,
        max_connections: int = 128,
        request_timeout: float = 5.0,
        drain_timeout: float = 5.0,
        max_frame: int = MAX_FRAME,
        obs_sample_interval: Optional[float] = None,
        obs_tail: int = 60,
        obs_queue_frames: int = 4,
    ) -> None:
        #: the server owns (and closes at shutdown) only a store it built.
        self._owns_store = store is None
        self.store = (
            store
            if store is not None
            else TardisStore(
                site, engine=engine, shards=shards, shard_workers=shard_workers
            )
        )
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.max_connections = max_connections
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.max_frame = max_frame
        self._server: Optional[asyncio.AbstractServer] = None
        #: single worker: store calls are serialized here so the loop can
        #: time them out and keep servicing sockets (module docstring).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tardis-store"
        )
        self._lock = threading.Lock()
        self._conns: Dict[int, _Connection] = {}
        self._session_names: Set[str] = set()
        #: every session name this server ever bound; the shutdown report
        #: counts the ones still present in the store as leaks.
        self._owned_sessions: Set[str] = set()
        self._next_conn_id = 1
        self._inflight = 0
        self._closing = False
        self._stats: Dict[str, int] = {
            "connections_total": 0,
            "connections_rejected": 0,
            "requests_total": 0,
            "errors_total": 0,
            "timeouts_total": 0,
            "commits": 0,
            "aborts": 0,
            "merges": 0,
            "disconnect_aborts": 0,
            "bytes_in": 0,
            "bytes_out": 0,
            "obs_samples": 0,
            "obs_frames_total": 0,
            "obs_frames_dropped": 0,
        }
        self._tasks: Set[asyncio.Task] = set()
        self.report: Optional[Dict[str, Any]] = None
        # -- live ops plane (docs/internals.md §14) ------------------------
        #: wall seconds between sampler ticks; None leaves the sampler
        #: task off (OBS_SNAPSHOT still works — it samples on demand).
        self.obs_sample_interval = obs_sample_interval
        self.obs_tail = obs_tail
        self.obs_queue_frames = obs_queue_frames
        self.obs = ObsSampler(
            self.store,
            site=self.store.site,
            tail=obs_tail,
            counters_fn=self._obs_counters,
            gauges_fn=self._obs_gauges,
            latency_fn=self._obs_latency,
        )
        #: per-op request-latency histograms (wire op -> Histogram);
        #: created/updated on the event loop thread only, snapshotted by
        #: the sampler via _obs_latency.
        self._op_latency: Dict[str, _met.Histogram] = {}
        self._obs_subs: Dict[int, _ObsSubscription] = {}
        self._obs_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "TardisServer":
        """Bind and start accepting; ``self.port`` holds the real port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._loop = asyncio.get_running_loop()
        if self.obs_sample_interval is not None and self.obs_sample_interval > 0:
            self._obs_task = self._loop.create_task(self._obs_loop())
        return self

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    async def shutdown(self, drain_timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful stop: drain in-flight work, close every session.

        1. Stop accepting (the listening socket closes); new BEGIN/MERGE
           requests on live connections get ``SHUTTING_DOWN``.
        2. Wait up to ``drain_timeout`` for in-flight requests and open
           transactions to finish.
        3. Force-close surviving connections; their cleanup aborts open
           transactions and closes their sessions.

        Returns (and stores in ``self.report``) a summary including the
        sessions the server leaked — an empty list on a clean drain.
        """
        if self.report is not None:
            return self.report
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Stop the live ops plane first: the sampler must not hop onto
        # the executor after it shuts down, and subscriber writer tasks
        # must not race the force-close below.
        obs_tasks: List[asyncio.Task] = []
        if self._obs_task is not None:
            self._obs_task.cancel()
            obs_tasks.append(self._obs_task)
            self._obs_task = None
        with self._lock:
            subs = list(self._obs_subs.values())
            self._obs_subs.clear()
        for sub in subs:
            if sub.task is not None:
                sub.task.cancel()
                obs_tasks.append(sub.task)
        if obs_tasks:
            await asyncio.wait(obs_tasks, timeout=2.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + (
            self.drain_timeout if drain_timeout is None else drain_timeout
        )
        drained = False
        while True:
            with self._lock:
                busy = self._inflight > 0 or any(
                    conn.txns for conn in self._conns.values()
                )
            if not busy:
                drained = True
                break
            if loop.time() >= deadline:
                break
            await asyncio.sleep(0.01)
        with self._lock:
            survivors = list(self._conns.values())
        for conn in survivors:
            conn.writer.close()
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=5.0)
        self._executor.shutdown(wait=True)
        with self._lock:
            leaked = sorted(
                name
                for name in self._owned_sessions
                # Executor already drained (shutdown(wait=True) above): the
                # store is quiesced, there is no serialization to bypass.
                if any(s.name == name for s in self.store.sessions())  # tardis: ignore[async-discipline]
            )
            report: Dict[str, Any] = dict(self._stats)
        report["drained_in_time"] = drained
        report["forced_closes"] = len(survivors)
        report["leaked_sessions"] = leaked
        report["open_states"] = len(self.store.dag)
        # A server that built its own store tears it down too; with
        # shard workers that reaps the worker processes, and
        # any that had to be force-killed count as leaks in the report.
        leaked_workers = 0
        if self._owns_store:
            # Executor drained above: teardown is single-threaded by now.
            self.store.close()  # tardis: ignore[async-discipline]
            leaked_workers = self.store.leaked_workers
        report["leaked_workers"] = leaked_workers
        self.report = report
        return report

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        finally:
            if task is not None:
                self._tasks.discard(task)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = "%s:%s" % peername[:2] if peername else "?"
        m = _met.DEFAULT
        with self._lock:
            rejected = self._closing or len(self._conns) >= self.max_connections
            if rejected:
                self._stats["connections_rejected"] += 1
            else:
                conn = _Connection(self._next_conn_id, peer, writer)
                self._next_conn_id += 1
                self._conns[conn.id] = conn
                self._stats["connections_total"] += 1
                active = len(self._conns)
        if rejected:
            code = "SHUTTING_DOWN" if self._closing else "SERVER_BUSY"
            await self._send(None, writer, error_response(None, code))
            writer.close()
            return
        if m.enabled:
            m.inc("tardis_net_server_connections_total")
            m.set_gauge("tardis_net_server_connections_active", active)
        decoder = FrameDecoder(self.max_frame)
        try:
            while True:
                message = None
                try:
                    message = decoder.next_frame()
                except FrameTooLarge as exc:
                    await self._send(
                        conn, writer, error_response(None, "FRAME_TOO_LARGE", str(exc))
                    )
                    break
                except ProtocolError as exc:
                    await self._send(
                        conn, writer, error_response(None, "BAD_FRAME", str(exc))
                    )
                    break
                if message is None:
                    data = await reader.read(65536)
                    if not data:
                        break  # EOF
                    with self._lock:
                        self._stats["bytes_in"] += len(data)
                    if m.enabled:
                        m.inc("tardis_net_server_bytes_in_total", len(data))
                    decoder.feed(data)
                    continue
                response = await self._dispatch(conn, message)
                await self._send(conn, writer, response)
                if message.get("op") == "BYE":
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        except OSError:
            pass
        finally:
            await self._teardown_connection(conn, writer)

    async def _send(
        self,
        conn: Optional[_Connection],
        writer: asyncio.StreamWriter,
        response: Dict[str, Any],
    ) -> None:
        try:
            frame = encode_frame(response, self.max_frame)
        except (TypeError, ValueError, FrameTooLarge):
            # A stored value was not JSON-serializable (possible when the
            # store is shared with in-process writers) or the response
            # outgrew the frame cap: degrade to a typed error.
            frame = encode_frame(
                error_response(
                    response.get("id"), "INTERNAL", "response not serializable"
                )
            )
        m = _met.DEFAULT
        with self._lock:
            self._stats["bytes_out"] += len(frame)
            if not response.get("ok", False):
                self._stats["errors_total"] += 1
        if m.enabled:
            m.inc("tardis_net_server_bytes_out_total", len(frame))
            if not response.get("ok", False):
                m.inc("tardis_net_server_errors_total")
        try:
            writer.write(frame)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _teardown_connection(
        self, conn: _Connection, writer: asyncio.StreamWriter
    ) -> None:
        # Cleanup runs on the store executor like every other store
        # access, so it serializes behind any still-running handler for
        # this connection instead of racing it.
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._executor, self._cleanup_sync, conn)
        except RuntimeError:
            # Executor already shut down (server stopped underneath us):
            # clean up inline — the worker is gone, nothing races.
            self._cleanup_sync(conn)
        try:
            writer.close()
        except OSError:
            pass
        m = _met.DEFAULT
        with self._lock:
            active = len(self._conns)
        if m.enabled:
            m.set_gauge("tardis_net_server_connections_active", active)

    def _cleanup_sync(self, conn: _Connection) -> None:
        open_txns = [t for t in conn.txns.values() if t.status == ACTIVE]
        conn.txns.clear()
        if conn.session_name is not None:
            # close_session aborts whatever is still ACTIVE on the
            # session (including txns above) and is idempotent, so a
            # polite BYE racing a socket drop stays safe.
            self.store.close_session(conn.session_name)
        m = _met.DEFAULT
        with self._lock:
            self._conns.pop(conn.id, None)
            if conn.session_name is not None:
                self._session_names.discard(conn.session_name)
            if open_txns:
                self._stats["disconnect_aborts"] += len(open_txns)
            sub = self._obs_subs.pop(conn.id, None)
        if sub is not None and self._loop is not None:
            # A subscriber that disconnected (politely or not) must not
            # leak its writer task; the cancel hops to the loop thread.
            try:
                self._loop.call_soon_threadsafe(self._cancel_sub_writer, sub)
            except RuntimeError:
                pass  # loop already closed (server stopping)
        if open_txns and m.enabled:
            m.inc("tardis_net_server_disconnect_aborts_total", len(open_txns))

    # -- live ops plane (sampler task + push streams) ----------------------

    def _obs_counters(self) -> Dict[str, Any]:
        """Cumulative server counters for the sampler (executor thread)."""
        with self._lock:
            return dict(self._stats)

    def _obs_gauges(self) -> Dict[str, Any]:
        """Instantaneous server gauges for the sampler (executor thread)."""
        sessions = len(self.store.sessions())
        with self._lock:
            return {
                "sessions": sessions,
                "inflight": self._inflight,
                "connections": len(self._conns),
            }

    def _obs_latency(self) -> Dict[str, Dict[str, Any]]:
        """Per-op latency summaries from the request histograms."""
        out: Dict[str, Dict[str, Any]] = {}
        for op, hist in list(self._op_latency.items()):
            if not hist.count:
                continue
            out[op] = {
                "count": hist.count,
                "mean": hist.mean,
                "p50": hist.quantile(0.5),
                "p90": hist.quantile(0.9),
                "p99": hist.quantile(0.99),
                "max": hist.max,
            }
        return out

    async def _obs_loop(self) -> None:
        """The sampler task: sample on the executor, publish, sleep.

        Each sample runs on the store executor, serialized with request
        handlers — a sampler tick can delay one request by its own cost
        (small: a DAG walk plus counter reads), never race it.
        """
        assert self.obs_sample_interval is not None
        loop = asyncio.get_running_loop()
        try:
            while not self._closing:
                started = loop.time()
                try:
                    snapshot = await loop.run_in_executor(
                        self._executor, self.obs.sample
                    )
                except RuntimeError:
                    break  # executor shut down underneath us
                except Exception:  # tardis: ignore[bare-except] — a failed sample must not kill the server
                    snapshot = None
                if snapshot is not None:
                    self._publish_obs(snapshot)
                delay = self.obs_sample_interval - (loop.time() - started)
                await asyncio.sleep(max(0.0, delay))
        except asyncio.CancelledError:
            pass

    def _publish_obs(self, snapshot: Dict[str, Any]) -> None:
        """Offer one snapshot to every subscription (event loop thread)."""
        m = _met.DEFAULT
        with self._lock:
            self._stats["obs_samples"] += 1
            subs = list(self._obs_subs.values())
        dropped = 0
        for sub in subs:
            if not sub.offer(snapshot):
                dropped += 1
        if dropped:
            with self._lock:
                self._stats["obs_frames_dropped"] += dropped
        if m.enabled:
            m.inc("tardis_net_server_obs_samples_total")
            m.set_gauge("tardis_net_server_obs_subscribers", len(subs))
            if dropped:
                m.inc("tardis_net_server_obs_dropped_total", dropped)

    def _ensure_sub_writer(self, sub: _ObsSubscription) -> None:
        """Start the writer task for ``sub`` (event loop thread)."""
        with self._lock:
            current = self._obs_subs.get(sub.conn_id)
        if current is not sub:
            return  # unsubscribed/disconnected before the task started
        if sub.task is None and self._loop is not None:
            sub.task = self._loop.create_task(self._sub_writer(sub))

    def _cancel_sub_writer(self, sub: _ObsSubscription) -> None:
        if sub.task is not None:
            sub.task.cancel()

    async def _sub_writer(self, sub: _ObsSubscription) -> None:
        """Drain one subscription's queue onto its socket.

        The socket (via ``drain``) throttles this task; the queue bound
        plus drop counting in ``offer`` is what keeps a slow consumer
        from buffering the server into the ground.
        """
        m = _met.DEFAULT
        try:
            while True:
                snapshot = await sub.queue.get()
                frame = {
                    "push": "obs",
                    "seq": snapshot["seq"],
                    "dropped": sub.dropped,
                    "snapshot": snapshot,
                }
                data = encode_frame(frame, self.max_frame)
                sub.writer.write(data)
                await sub.writer.drain()
                sub.sent += 1
                with self._lock:
                    self._stats["obs_frames_total"] += 1
                    self._stats["bytes_out"] += len(data)
                if m.enabled:
                    m.inc("tardis_net_server_obs_frames_total")
                    m.inc("tardis_net_server_bytes_out_total", len(data))
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, OSError, FrameTooLarge):
            # Socket gone (the connection teardown does the accounting)
            # or a snapshot outgrew the frame cap: stop the stream, keep
            # the connection's request/response framing intact.
            pass

    # -- request dispatch --------------------------------------------------

    async def _dispatch(
        self, conn: _Connection, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        request_id = request.get("id")
        op = request.get("op")
        m = _met.DEFAULT
        with self._lock:
            self._stats["requests_total"] += 1
            self._inflight += 1
        if m.enabled:
            m.inc("tardis_net_server_requests_total")
        start = time.perf_counter()
        try:
            if not isinstance(op, str) or op not in OPS:
                return error_response(request_id, "UNKNOWN_OP", "op=%r" % (op,))
            loop = asyncio.get_running_loop()
            try:
                return await asyncio.wait_for(
                    loop.run_in_executor(self._executor, self._execute, conn, request),
                    self.request_timeout,
                )
            except asyncio.TimeoutError:
                with self._lock:
                    self._stats["timeouts_total"] += 1
                if m.enabled:
                    m.inc("tardis_net_server_timeouts_total")
                return error_response(
                    request_id,
                    "TIMEOUT",
                    "request exceeded %.3fs" % self.request_timeout,
                )
        finally:
            with self._lock:
                self._inflight -= 1
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            if isinstance(op, str) and op in OPS:
                hist = self._op_latency.get(op)
                if hist is None:
                    hist = self._op_latency[op] = _met.Histogram(
                        "tardis_net_server_request_ms@op=%s" % op
                    )
                hist.record(elapsed_ms)
            if m.enabled:
                m.observe("tardis_net_server_request_ms", elapsed_ms)
                if isinstance(op, str) and op in OPS:
                    m.observe("tardis_net_server_request_ms@op=%s" % op, elapsed_ms)

    def _execute(self, conn: _Connection, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run one request on the store executor; always returns a response."""
        request_id = request.get("id")
        op = request["op"]
        try:
            handler = getattr(self, "_op_%s" % op.lower())
            if op != "HELLO" and not conn.hello_done:
                raise _RequestError("NO_HELLO", "say HELLO first")
            return handler(conn, request_id, request)
        except _RequestError as exc:
            return error_response(request_id, exc.code, exc.message)
        except TransactionAborted as exc:
            return error_response(request_id, "TXN_ABORTED", str(exc))
        except TransactionClosed as exc:
            return error_response(request_id, "TXN_CLOSED", str(exc))
        except ReadOnlyViolation as exc:
            return error_response(request_id, "READ_ONLY", str(exc))
        except MultipleValuesError as exc:
            return error_response(request_id, "KEY_CONFLICT", str(exc))
        except BeginError as exc:
            return error_response(request_id, "BEGIN_FAILED", str(exc))
        except ShardUnavailableError as exc:
            # Before TardisError: a dead shard worker is a typed,
            # retryable condition, not an opaque INTERNAL.
            return error_response(request_id, "SHARD_UNAVAILABLE", str(exc))
        except TardisError as exc:
            return error_response(request_id, "INTERNAL", repr(exc))
        except Exception as exc:  # tardis: ignore[bare-except] — one bad request must not kill the connection loop
            return error_response(request_id, "INTERNAL", repr(exc))

    # -- op handlers (store executor thread) -------------------------------

    def _op_hello(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if conn.hello_done:
            raise _RequestError("ALREADY_HELLO", "connection is bound to %r" % conn.session_name)
        version = request.get("protocol", PROTOCOL_VERSION)
        if version != PROTOCOL_VERSION:
            raise _RequestError(
                "BAD_VERSION",
                "server speaks protocol %d, client sent %r" % (PROTOCOL_VERSION, version),
            )
        name = request.get("session")
        if name is not None and not isinstance(name, str):
            raise _RequestError("BAD_REQUEST", "session must be a string")
        with self._lock:
            if name is not None and name in self._session_names:
                raise _RequestError("SESSION_IN_USE", name)
        session = self.store.session(name)
        with self._lock:
            self._session_names.add(session.name)
            self._owned_sessions.add(session.name)
        conn.session_name = session.name
        conn.hello_done = True
        return ok_response(
            request_id,
            session=session.name,
            site=self.store.site,
            protocol=PROTOCOL_VERSION,
        )

    def _session(self, conn: _Connection) -> Any:
        assert conn.session_name is not None
        return self.store.session(conn.session_name)

    def _txn_of(self, conn: _Connection, request: Dict[str, Any]) -> BaseTransaction:
        txn_id = request.get("txn")
        txn = conn.txns.get(txn_id) if isinstance(txn_id, int) else None
        if txn is None:
            raise _RequestError("UNKNOWN_TXN", "txn=%r" % (txn_id,))
        return txn

    def _op_begin(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._closing:
            raise _RequestError("SHUTTING_DOWN", "no new transactions while draining")
        constraint = None
        name = request.get("constraint")
        if name is not None:
            factory = BEGIN_CONSTRAINTS.get(name)
            if factory is None:
                raise _RequestError(
                    "BAD_CONSTRAINT",
                    "%r (begin constraints: %s)" % (name, sorted(BEGIN_CONSTRAINTS)),
                )
            constraint = factory()
        txn = self.store.begin(
            begin_constraint=constraint,
            session=self._session(conn),
            read_only=bool(request.get("read_only", False)),
        )
        txn_id = conn.next_txn_id
        conn.next_txn_id += 1
        conn.txns[txn_id] = txn
        return ok_response(request_id, txn=txn_id, read_state=repr(txn.read_state.id))

    def _op_merge(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._closing:
            raise _RequestError("SHUTTING_DOWN", "no new transactions while draining")
        merge = self.store.begin_merge(session=self._session(conn))
        txn_id = conn.next_txn_id
        conn.next_txn_id += 1
        conn.txns[txn_id] = merge
        fork_points = merge.find_fork_points()
        conflicts: List[Dict[str, Any]] = []
        for key in merge.find_conflict_writes():
            base = (
                merge.get_for_id(key, fork_points[0], default=None)
                if fork_points
                else None
            )
            conflicts.append(
                {"key": key, "base": base, "values": merge.get_all(key)}
            )
        with self._lock:
            self._stats["merges"] += 1
        return ok_response(
            request_id,
            txn=txn_id,
            parents=[repr(p) for p in merge.parents],
            fork_points=[repr(f) for f in fork_points],
            conflicts=conflicts,
        )

    def _op_read(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if "key" not in request:
            raise _RequestError("BAD_REQUEST", "READ needs a key")
        txn = self._txn_of(conn, request)
        value = txn.get(request["key"], default=_MISSING)
        if value is _MISSING:
            return ok_response(request_id, found=False, value=None)
        return ok_response(request_id, found=True, value=value)

    def _op_read_many(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        keys = request.get("keys")
        if not isinstance(keys, list):
            raise _RequestError("BAD_REQUEST", "READ_MANY needs a keys list")
        txn = self._txn_of(conn, request)
        values = txn.get_many(keys, default=_MISSING)
        return ok_response(
            request_id,
            found=[value is not _MISSING for value in values],
            values=[None if value is _MISSING else value for value in values],
        )

    def _op_write(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if "key" not in request:
            raise _RequestError("BAD_REQUEST", "WRITE needs a key")
        txn = self._txn_of(conn, request)
        if request.get("delete", False):
            txn.delete(request["key"])
        else:
            if "value" not in request:
                raise _RequestError("BAD_REQUEST", "WRITE needs a value (or delete)")
            txn.put(request["key"], request["value"])
        return ok_response(request_id)

    def _op_commit(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        txn = self._txn_of(conn, request)
        constraint = None
        name = request.get("constraint")
        if name is not None:
            factory = END_CONSTRAINTS.get(name)
            if factory is None:
                raise _RequestError(
                    "BAD_CONSTRAINT",
                    "%r (end constraints: %s)" % (name, sorted(END_CONSTRAINTS)),
                )
            constraint = factory()
        try:
            commit_id = txn.commit(constraint)
        finally:
            if txn.status != ACTIVE:
                conn.txns.pop(request.get("txn"), None)
                with self._lock:
                    if txn.status == COMMITTED:
                        self._stats["commits"] += 1
                    else:
                        self._stats["aborts"] += 1
        return ok_response(
            request_id,
            commit_state=repr(commit_id),
            merge=isinstance(txn, MergeTransaction),
        )

    def _op_abort(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        txn = self._txn_of(conn, request)
        txn.abort()
        conn.txns.pop(request.get("txn"), None)
        with self._lock:
            self._stats["aborts"] += 1
        return ok_response(request_id)

    def _op_stats(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        with self._lock:
            stats: Dict[str, Any] = dict(self._stats)
            stats["connections_active"] = len(self._conns)
            stats["inflight"] = self._inflight
        stats["draining"] = self._closing
        stats["open_sessions"] = len(self.store.sessions())
        stats["open_txns"] = sum(
            1
            for sess in self.store.sessions()
            for txn in list(sess._active_txns)
            if txn.status == ACTIVE
        )
        stats["store"] = {
            "site": self.store.site,
            "states": len(self.store.dag),
            "leaves": len(self.store.dag.leaves()),
            "commits": self.store.metrics.commits,
            "merges": self.store.metrics.merges,
            "records": self.store.versions.num_records(),
        }
        shards = self.store.shard_health(ping=False)
        if shards is not None and "workers" in shards:
            stats["store"]["shard_workers"] = shards["n_workers"]
            stats["store"]["shard_workers_alive"] = shards["workers_alive"]
        with self._lock:
            subscribers = len(self._obs_subs)
        stats["obs"] = {
            "sampler": self._obs_task is not None,
            "interval_s": self.obs_sample_interval,
            "subscribers": subscribers,
            # The light form: gauges/counters/latency/shards, no series.
            "snapshot": ObsSampler.trim(self._current_obs_snapshot(), 0),
        }
        return ok_response(request_id, stats=stats)

    def _current_obs_snapshot(self) -> Dict[str, Any]:
        """The snapshot STATS and OBS_SNAPSHOT answer with.

        With the sampler running, its latest snapshot (cheap, at most one
        interval stale); without it nothing refreshes ``latest``, so
        sample on demand — handlers run on the store executor, so this
        is race-free.
        """
        if self._obs_task is not None:
            return self.obs.latest_or_sample()
        return self.obs.sample()

    def _op_obs_snapshot(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        tail = request.get("tail")
        if tail is not None and not isinstance(tail, int):
            raise _RequestError("BAD_REQUEST", "tail must be an integer")
        snapshot = self._current_obs_snapshot()
        return ok_response(request_id, snapshot=ObsSampler.trim(snapshot, tail))

    def _op_obs_subscribe(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._obs_task is None or self._closing:
            raise _RequestError("OBS_UNAVAILABLE")
        with self._lock:
            sub = self._obs_subs.get(conn.id)
            resumed = sub is not None
            if sub is None:
                sub = _ObsSubscription(conn.id, conn.writer, self.obs_queue_frames)
                self._obs_subs[conn.id] = sub
        # The writer task must be created on the event loop thread; this
        # handler runs on the store executor.
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._ensure_sub_writer, sub)
        return ok_response(
            request_id,
            interval_s=self.obs_sample_interval,
            tail=self.obs_tail,
            resumed=resumed,
        )

    def _op_obs_unsubscribe(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        with self._lock:
            sub = self._obs_subs.pop(conn.id, None)
        if sub is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(self._cancel_sub_writer, sub)
        # Idempotent: unsubscribing while not subscribed just reports so.
        return ok_response(
            request_id,
            subscribed=sub is not None,
            frames=sub.sent if sub is not None else 0,
            dropped=sub.dropped if sub is not None else 0,
        )

    def _op_bye(
        self, conn: _Connection, request_id: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        # The response is sent first; the connection loop closes after.
        return ok_response(request_id)


# ---------------------------------------------------------------------------
# Running a server in the foreground (``tardis serve``).


def run_server(
    server: TardisServer,
    port_file: Optional[str] = None,
    announce: Callable[[str], None] = lambda line: print(line, flush=True),
) -> Dict[str, Any]:
    """Run ``server`` until SIGINT/SIGTERM, then drain; returns the report.

    ``port_file`` (written once the socket is bound, containing the real
    port) is how ``bench_net.py`` and the CI smoke job discover an
    ephemeral ``--port 0`` allocation.
    """

    async def _main() -> Dict[str, Any]:
        await server.start()
        announce(
            "tardis serve: listening on %s (site=%s, max_connections=%d)"
            % (server.address, server.store.site, server.max_connections)
        )
        loop = asyncio.get_running_loop()
        if port_file:

            def _write_port() -> None:
                with open(port_file, "w") as handle:
                    handle.write("%d\n" % server.port)

            await loop.run_in_executor(None, _write_port)
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, ValueError):
                pass  # platform without signal support on loops
        try:
            await stop.wait()
        finally:
            await server.shutdown()
        assert server.report is not None
        return server.report

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:
        # Signal handlers unavailable: best effort — the loop is gone,
        # so report whatever was gathered before the interrupt.
        return server.report or {"interrupted": True, "leaked_sessions": []}


# ---------------------------------------------------------------------------
# Running a server on a background thread (tests, in-process demos).


class ServerThread:
    """A TardisServer running its own event loop on a daemon thread."""

    def __init__(
        self, server: TardisServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread
    ) -> None:
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, drain_timeout: Optional[float] = None) -> Dict[str, Any]:
        """Gracefully shut the server down; returns the shutdown report."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain_timeout), self.loop
        )
        report = future.result(timeout=30.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        return report


def start_in_thread(
    store: Optional[TardisStore] = None, **server_kwargs: Any
) -> ServerThread:
    """Start a TardisServer on a fresh event loop in a daemon thread.

    Blocks until the server is listening (``handle.port`` is bound);
    ``handle.stop()`` drains and returns the shutdown report.
    """
    server = TardisServer(store=store, **server_kwargs)
    started = threading.Event()
    boot: Dict[str, Any] = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        boot["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except OSError as exc:
            boot["error"] = exc
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=_run, name="tardis-server", daemon=True)
    thread.start()
    started.wait(timeout=10.0)
    if "error" in boot:
        raise boot["error"]
    return ServerThread(server, boot["loop"], thread)
