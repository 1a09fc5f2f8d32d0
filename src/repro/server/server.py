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
parsing, and answering frames meanwhile. The module boundary is that
thread boundary: this module is what runs on the loop (accepting,
limits, timeouts, the read loop, counters, obs fan-out, shutdown);
:mod:`repro.server.handlers` is what runs on the executor, and nothing
in a coroutine here touches the store except through
``WireSession.handle`` / ``WireSession.close``.

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
``OBS_SUBSCRIBE``-ed connections as push frames, at most
``OBS_QUEUE_FRAMES`` buffered per stream (the slow-consumer drop policy
is :class:`_ObsSubscription`'s).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.store import TardisStore
from repro.errors import FrameTooLarge, ProtocolError
from repro.obs import metrics as _met
from repro.obs.sampler import ObsSampler
from repro.server.handlers import WireSession
from repro.server.protocol import OPS, FrameDecoder, encode_frame, error_response

__all__ = ["TardisServer", "ServerThread", "start_in_thread", "run_server"]

#: snapshots one OBS_SUBSCRIBE stream buffers before it drops new ones.
OBS_QUEUE_FRAMES = 4


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
        obs_sample_interval: Optional[float] = None,
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
        self._server: Optional[asyncio.AbstractServer] = None
        #: single worker: store calls are serialized here so the loop can
        #: time them out and keep servicing sockets (module docstring).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="tardis-store"
        )
        self._lock = threading.Lock()
        #: connection id -> its protocol state and its socket.
        self._conns: Dict[int, Tuple[WireSession, asyncio.StreamWriter]] = {}
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
        self.obs = ObsSampler(
            self.store,
            site=self.store.site,
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
                    session.txns for session, _writer in self._conns.values()
                )
            if not busy:
                drained = True
                break
            if loop.time() >= deadline:
                break
            await asyncio.sleep(0.01)
        with self._lock:
            survivors = list(self._conns.values())
        for _session, writer in survivors:
            writer.close()
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
        assert task is not None
        self._tasks.add(task)  # shutdown waits for these
        task.add_done_callback(self._tasks.discard)
        with self._lock:
            rejected = self._closing or len(self._conns) >= self.max_connections
            if not rejected:
                session = WireSession(self, self._next_conn_id)
                self._next_conn_id += 1
                self._conns[session.id] = (session, writer)
        if rejected:
            self._count(None, "connections_rejected")
            code = "SHUTTING_DOWN" if self._closing else "SERVER_BUSY"
            await self._send(writer, error_response(None, code))
            writer.close()
            return
        self._count("tardis_net_server_connections_total", "connections_total")
        self._gauge_connections()
        # The server's one read loop; the frame cap is checked by the
        # decoder before a payload is buffered.
        decoder = FrameDecoder()
        try:
            while True:
                message = None
                try:
                    message = decoder.next_frame()
                except ProtocolError as exc:
                    # Framing is lost: answer once, then drop the link.
                    too_large = isinstance(exc, FrameTooLarge)
                    code = "FRAME_TOO_LARGE" if too_large else "BAD_FRAME"
                    await self._send(writer, error_response(None, code, str(exc)))
                    break
                if message is None:
                    data = await reader.read(65536)
                    if not data:
                        break  # EOF
                    self._count("tardis_net_server_bytes_in_total", "bytes_in", len(data))
                    decoder.feed(data)
                    continue
                await self._send(writer, await self._dispatch(session, message))
                if message.get("op") == "BYE":
                    break
        except (asyncio.CancelledError, OSError):
            pass  # peer reset / broken pipe, or the server is stopping
        finally:
            await self._teardown_connection(session, writer)

    def _count(self, metric: Optional[str], stat: str, n: int = 1) -> None:
        """Count ``n`` events in the stats dict (always on: STATS and the
        shutdown report read it) and, under ``metric``, in the registry
        (when enabled; None for a stat with no registry counterpart)."""
        with self._lock:
            self._stats[stat] += n
        m = _met.DEFAULT
        if metric is not None and m.enabled:
            m.inc(metric, n)

    def _gauge_connections(self) -> None:
        m = _met.DEFAULT
        if m.enabled:
            with self._lock:
                active = len(self._conns)
            m.set_gauge("tardis_net_server_connections_active", active)

    async def _send(
        self, writer: asyncio.StreamWriter, response: Dict[str, Any]
    ) -> None:
        try:
            frame = encode_frame(response)
        except (TypeError, ValueError, FrameTooLarge):
            # A stored value was not JSON-serializable (possible when the
            # store is shared with in-process writers) or the response
            # outgrew the frame cap: degrade to a typed error.
            frame = encode_frame(
                error_response(
                    response.get("id"), "INTERNAL", "response not serializable"
                )
            )
        self._count("tardis_net_server_bytes_out_total", "bytes_out", len(frame))
        if not response.get("ok", False):
            self._count("tardis_net_server_errors_total", "errors_total")
        try:
            writer.write(frame)
            await writer.drain()
        except OSError:
            pass  # peer reset / broken pipe: the read loop sees the EOF

    async def _teardown_connection(
        self, session: WireSession, writer: asyncio.StreamWriter
    ) -> None:
        # Cleanup runs on the store executor like every other store
        # access, so it serializes behind any still-running handler for
        # this connection instead of racing it.
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(self._executor, self._cleanup_sync, session)
        except RuntimeError:
            # Executor already shut down (server stopped underneath us):
            # clean up inline — the worker is gone, nothing races.
            self._cleanup_sync(session)
        try:
            writer.close()
        except OSError:
            pass
        self._gauge_connections()

    def _cleanup_sync(self, session: WireSession) -> None:
        """Disconnect cleanup (executor thread): abort, close, forget."""
        aborted = session.close()
        with self._lock:
            self._conns.pop(session.id, None)
            if session.session_name is not None:
                self._session_names.discard(session.session_name)
        # A subscriber that disconnected (politely or not) must not
        # leak its writer task.
        self._unsubscribe_obs(session.id)
        if aborted:
            self._count(
                "tardis_net_server_disconnect_aborts_total", "disconnect_aborts", aborted
            )

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
        self._count("tardis_net_server_obs_samples_total", "obs_samples")
        with self._lock:
            subs = list(self._obs_subs.values())
        dropped = sum(1 for sub in subs if not sub.offer(snapshot))
        if dropped:
            self._count(
                "tardis_net_server_obs_dropped_total", "obs_frames_dropped", dropped
            )
        m = _met.DEFAULT
        if m.enabled:
            m.set_gauge("tardis_net_server_obs_subscribers", len(subs))

    def _subscribe_obs(self, conn_id: int) -> bool:
        """OBS_SUBSCRIBE's transport half (called on the store executor):
        register the stream; True when one was already running."""
        with self._lock:
            sub = self._obs_subs.get(conn_id)
            resumed = sub is not None
            if sub is None:
                writer = self._conns[conn_id][1]
                sub = _ObsSubscription(conn_id, writer, OBS_QUEUE_FRAMES)
                self._obs_subs[conn_id] = sub
        # The writer task must be created on the event loop thread.
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._ensure_sub_writer, sub)
        return resumed

    def _unsubscribe_obs(self, conn_id: int) -> Optional[_ObsSubscription]:
        """Drop ``conn_id``'s stream, if any (executor thread); returns
        it for the accounting reply."""
        with self._lock:
            sub = self._obs_subs.pop(conn_id, None)
        if sub is not None and self._loop is not None:
            try:  # the cancel hops to the loop thread
                self._loop.call_soon_threadsafe(self._cancel_sub_writer, sub)
            except RuntimeError:
                pass  # loop already closed (server stopping)
        return sub

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
        try:
            while True:
                snapshot = await sub.queue.get()
                frame = {
                    "push": "obs",
                    "seq": snapshot["seq"],
                    "dropped": sub.dropped,
                    "snapshot": snapshot,
                }
                data = encode_frame(frame)
                sub.writer.write(data)
                await sub.writer.drain()
                sub.sent += 1
                self._count("tardis_net_server_obs_frames_total", "obs_frames_total")
                self._count("tardis_net_server_bytes_out_total", "bytes_out", len(data))
        except asyncio.CancelledError:
            pass
        except (OSError, FrameTooLarge):
            # Socket gone (the connection teardown does the accounting)
            # or a snapshot outgrew the frame cap: stop the stream, keep
            # the connection's request/response framing intact.
            pass

    # -- request dispatch --------------------------------------------------

    async def _dispatch(
        self, session: WireSession, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One request: hop to the store executor, under the timeout."""
        op = request.get("op")
        if not isinstance(op, str) or op not in OPS:
            op = None  # answered UNKNOWN_OP; no per-op histogram
        self._count("tardis_net_server_requests_total", "requests_total")
        with self._lock:
            self._inflight += 1
        start = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(self._executor, session.handle, request),
                self.request_timeout,
            )
        except asyncio.TimeoutError:
            self._count("tardis_net_server_timeouts_total", "timeouts_total")
            # The handler may still be running, or yet to run. If it
            # begins a transaction, nobody will learn its id: undo that
            # behind it on the executor (serially, before this
            # connection's next request).
            try:
                self._executor.submit(session.undo, request)
            except RuntimeError:
                pass  # executor shut down: disconnect cleanup covers it
            message = "request exceeded %.3fs" % self.request_timeout
            return error_response(request.get("id"), "TIMEOUT", message)
        finally:
            with self._lock:
                self._inflight -= 1
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            if op is not None:
                hist = self._op_latency.get(op)
                if hist is None:
                    hist = self._op_latency[op] = _met.Histogram(
                        "tardis_net_server_request_ms@op=%s" % op
                    )
                hist.record(elapsed_ms)
            m = _met.DEFAULT
            if m.enabled:
                m.observe("tardis_net_server_request_ms", elapsed_ms)
                if op is not None:
                    m.observe("tardis_net_server_request_ms@op=%s" % op, elapsed_ms)


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
