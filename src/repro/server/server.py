"""TARDiS-as-a-service: the asyncio TCP front-end.

One :class:`TardisServer` wraps one :class:`~repro.core.store.TardisStore`
and speaks the length-prefixed JSON protocol of
:mod:`repro.server.protocol`. Each accepted connection is bound (by the
HELLO handshake) to one :class:`~repro.core.store.ClientSession`, so the
paper's session guarantees — Ancestor begin anchored at the client's
last commit — hold per connection exactly as they do in-process.

Concurrency model: the asyncio event loop multiplexes socket I/O across
every connection, one callback-driven :class:`_Connection` per socket;
the store operations themselves run on a dedicated single worker thread
(``_executor``), which serializes them — the store is lock-protected,
but its read path is optimized for the one-writer discrete-event
harness, and a single worker keeps the wall-clock behaviour honest while
still letting the loop time out stuck requests and keep accepting,
parsing, and answering frames meanwhile. A request costs the loop two
turns: the read that decodes and submits it, and the one
``call_soon_threadsafe`` callback that brings the handler's answer back.
The module boundary is that thread boundary: this module is what runs on
the loop (accepting, limits, timeouts, framing, counters, the obs sampler
task, shutdown); :mod:`repro.server.handlers` is what runs on the
executor, and nothing on the loop here touches the store except through
``WireSession.handle`` / ``WireSession.close``.

Production plumbing:

* **Backpressure** — at most ``max_connections`` live connections (the
  excess gets a ``SERVER_BUSY`` error frame and an immediate close);
  requests on one connection are processed strictly in order, so a
  pipelining client is throttled by its own unanswered frames; between
  the transport's ``pause_writing`` and ``resume_writing`` (the peer is
  not reading) a connection starts no request, so a slow reader blocks
  its own connection only, one response past the high-water mark.
* **Per-request timeouts** — a request not answered ``request_timeout``
  seconds after it was submitted (one ``loop.call_later`` timer each,
  cancelled by the answer) is answered with a ``TIMEOUT`` error; the
  connection survives and the late answer is dropped.
* **Graceful shutdown** — :meth:`TardisServer.shutdown` stops accepting,
  refuses new transactions (``SHUTTING_DOWN``) while letting open ones
  run to COMMIT/ABORT for up to ``drain_timeout`` seconds, then closes
  the stragglers; disconnect cleanup aborts their transactions and
  closes their sessions, so a drained server leaks nothing.
* **Disconnect cleanup** — a dropped connection aborts its open
  transactions and closes its session via the (idempotent)
  ``TardisStore.close_session``, releasing read-state pins, the anchor
  and the GC ceiling. The live connections are the server's one record
  of the sessions it bound: each one's ``WireSession`` keeps its
  ``ClientSession``.

Observability: each server count lives once, in the ``_stats`` dict,
each GC count in the store's collector, and each request latency in the
per-op histograms of ``_op_latency``; STATS, ``OBS_SNAPSHOT`` and the
shutdown report all read those. The server writes nothing to the
metrics registry (the store it serves does).

Live ops plane (docs/internals.md §14): with ``obs_sample_interval``
set, an :class:`~repro.obs.sampler.ObsSampler` task samples the store's
divergence series, the server gauges, per-op latency percentiles, and
the shard plane's worker health on a wall-clock cadence (each sample
runs on the store executor, serialized with request handlers), and runs
the sampler's triggers live so threshold trips become alerts.
Snapshots are served by ``OBS_SNAPSHOT``: a watcher polls, and the server
keeps nothing per watcher. Every frame a connection writes answers one of
its requests.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from repro.core.store import ClientSession, TardisStore
from repro.errors import FrameTooLarge, ProtocolError
from repro.obs import metrics as _met
from repro.obs.sampler import ObsSampler
from repro.server.handlers import GC_FIELDS, GC_GROWTH, WireSession, holds_work
from repro.server.protocol import OPS, FrameDecoder, encode_frame, error_response

__all__ = ["TardisServer", "ServerThread", "start_in_thread", "run_server"]

#: bytes of the one receive buffer a connection reads into, for its life.
RECV_BUFFER = 1 << 16


class _Connection(asyncio.BufferedProtocol):
    """One accepted socket. Everything here runs on the event loop
    thread, as transport callbacks, except ``_run`` (store executor).

    In-order dispatch and back-pressure are one rule, kept by ``_pump``:
    the next frame leaves the decoder only when no request of this
    connection is in flight and the transport is not ``paused``. Bytes
    that arrive while that rule holds the connection back stop the
    reading too, until the decoder runs dry.
    """

    __slots__ = (
        "server", "session", "transport", "decoder", "_view", "_unread",
        "busy", "_since", "_timer", "paused", "eof",
    )

    def __init__(self, server: "TardisServer") -> None:
        self.server = server
        #: None on a connection refused at the cap.
        self.session: Optional[WireSession] = None
        self.decoder = FrameDecoder()
        self._view = memoryview(bytearray(RECV_BUFFER))
        #: bytes received and not yet counted (they are, with the next request).
        self._unread = 0
        #: the request in flight. A handler that answers after ``TIMEOUT``
        #: did finds another request (or none) here and is dropped.
        self.busy: Optional[Dict[str, Any]] = None
        self.paused = False  # the peer is not reading: start nothing
        self.eof = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self.transport = transport
        server = self.server
        with server._lock:
            refused = server._closing or len(server._conns) >= server.max_connections
            if not refused:
                self.session = WireSession(server, server._next_conn_id)
                server._next_conn_id += 1
                server._conns[self.session.id] = self
        if refused:
            server._count("connections_rejected")
            code = "SHUTTING_DOWN" if server._closing else "SERVER_BUSY"
            self.send(error_response(None, code))
            transport.close()
            return
        server._count("connections_total")

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        self._unread += nbytes
        self.decoder.feed(self._view[:nbytes])
        if self.busy is None and not self.paused:
            self._pump()
        else:
            # A pipelining peer: what it sent is buffered (the frame cap
            # was checked), more is not read until ``_pump`` runs dry.
            self.transport.pause_reading()

    def eof_received(self) -> bool:
        self.eof = True
        self._pump()  # what is buffered is still answered, then the close
        return True

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.session is None:
            return
        server = self.server
        if self._unread:
            server._count("bytes_in", self._unread)
        # Cleanup runs on the store executor like every other store
        # access, so it serializes behind a still-running handler of this
        # connection (whose answer ``write`` will then drop) instead of
        # racing it. ``shutdown`` joins the executor only after every
        # connection was lost, so there is one to submit to.
        server._submit(server._cleanup_sync, self.session)

    # -- the request path ----------------------------------------------------

    def _pump(self) -> None:
        """Start the next buffered request, if this connection may."""
        if self.busy is not None or self.paused or self.transport.is_closing():
            return
        try:
            request = self.decoder.next_frame()
        except ProtocolError as exc:
            # Framing is lost: answer once, then drop the link.
            code = "FRAME_TOO_LARGE" if isinstance(exc, FrameTooLarge) else "BAD_FRAME"
            self.send(error_response(None, code, str(exc)))
            self.transport.close()  # once that is flushed
            return
        if request is None:
            if self.eof:
                self.transport.close()
            else:
                self.transport.resume_reading()  # a no-op unless paused above
            return
        server = self.server
        server._started(self._unread)
        self._unread = 0
        self.busy = request
        self._since = time.perf_counter()
        assert server._loop is not None
        self._timer = server._loop.call_later(
            server.request_timeout, self._timed_out, request
        )
        server._executor.submit(self._run, request)

    def _run(self, request: Dict[str, Any]) -> None:
        """Store executor thread: one request, its answer back to the loop."""
        assert self.session is not None and self.server._loop is not None
        response = self.session.handle(request)
        try:
            self.server._loop.call_soon_threadsafe(self._answered, request, response)
        except RuntimeError:
            pass  # loop already closed (server stopping)

    def _answered(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        if self.busy is request:  # else: TIMEOUT was answered in its place
            self._timer.cancel()
            self._finish(request, response)

    def _timed_out(self, request: Dict[str, Any]) -> None:
        server = self.server
        server._count("timeouts_total")
        # The handler may still be running, or yet to run. If it begins a
        # transaction, nobody will learn its id: undo that behind it on
        # the executor (serially, before this connection's next request).
        assert self.session is not None
        try:
            server._submit(self.session.undo, request)
        except RuntimeError:
            pass  # executor shut down: disconnect cleanup covers it
        message = "request exceeded %.3fs" % server.request_timeout
        self._finish(request, error_response(request.get("id"), "TIMEOUT", message))

    def _finish(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        elapsed_ms = (time.perf_counter() - self._since) * 1000.0
        self.busy = None
        op = request.get("op")
        # an op answered UNKNOWN_OP has no per-op histogram
        self.server._observe(op if isinstance(op, str) and op in OPS else None, elapsed_ms)
        self.send(response, answers=True)
        if op == "BYE":
            self.transport.close()
        else:
            self._pump()

    def send(self, response: Dict[str, Any], answers: bool = False) -> None:
        """Encode, count and write one response; ``answers``: it ends the
        request in flight."""
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
        self.server._sent(len(frame), not response.get("ok", False), answers)
        if not self.transport.is_closing():  # else: peer gone, cleanup is on its way
            self.transport.write(frame)


class TardisServer:
    """An asyncio TCP server exposing one TardisStore over the wire."""

    _GUARDED_BY = {
        "_conns": "self._lock",
        "_stats": "self._lock",
        "_inflight": "self._lock",
        "_gc_at": "external:store-executor",
    }

    def __init__(
        self,
        store: Optional[TardisStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        site: str = "net",
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
            else TardisStore(site, shards=shards, shard_workers=shard_workers)
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
        #: connection id -> the live connection (until its cleanup ran).
        self._conns: Dict[int, _Connection] = {}
        self._next_conn_id = 1
        self._inflight = 0
        self._closing = False
        self._stats: Dict[str, float] = {
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
        }
        #: the DAG size at which a COMMIT runs the next GC cycle.
        self._gc_at = GC_GROWTH
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
        self._obs_task: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> "TardisServer":
        """Bind and start accepting; ``self.port`` holds the real port."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.obs_sample_interval is not None and self.obs_sample_interval > 0:
            self._obs_task = self._loop.create_task(self._obs_loop())
        return self

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    async def shutdown(self, drain_timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful stop: drain in-flight work, close every session.

        1. Stop accepting (the listening socket closes); a new ``begin``
           or MERGE on a live connection gets ``SHUTTING_DOWN``.
        2. Wait up to ``drain_timeout`` for in-flight requests and open
           transactions with writes (or merges): a write-free one may be
           closed on an idle client already, and aborting it loses nothing.
        3. Force-close surviving connections; their cleanup aborts open
           transactions and closes their sessions. Wait for every
           connection's cleanup, then join the store executor off-loop.

        Returns (and stores in ``self.report``) a summary including the
        sessions the server leaked — an empty list on a clean drain.
        """
        if self.report is not None:
            return self.report
        self._closing = True
        if self._server is not None:
            self._server.close()
        # Stop the live ops plane first: the sampler must not hop onto
        # the executor after it shuts down.
        if self._obs_task is not None:
            self._obs_task.cancel()
            await asyncio.wait([self._obs_task], timeout=2.0)
            self._obs_task = None
        drained = await self._poll(
            lambda: not self._inflight
            and not any(
                holds_work(txn)  # ``txns`` changes on the executor thread: a snapshot
                for conn in self._conns.values()
                for txn in list(conn.session.txns.values())  # type: ignore[union-attr]
            ),
            self.drain_timeout if drain_timeout is None else drain_timeout,
        )
        with self._lock:
            survivors = list(self._conns.values())
        for conn in survivors:
            conn.transport.abort()  # a peer that is not reading cannot hold the close up
        # Every connection_lost has submitted its cleanup once _conns is
        # empty; a handler slower than this wait is joined below anyway.
        await self._poll(lambda: not self._conns, 5.0)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._executor.shutdown)
        # Executor already joined (above): the store is quiesced, there
        # is no serialization to bypass.
        registered = self.store.sessions()  # tardis: ignore[async-discipline]
        report = self._obs_counters()
        with self._lock:
            # A connection leaves ``_conns`` once its cleanup closed its session.
            leaked = sorted(b.name for b in self._bound_sessions() if b in registered)
        report["drained_in_time"] = drained
        report["forced_closes"] = len(survivors)
        report["leaked_sessions"] = leaked
        report["open_states"] = len(self.store.dag)
        # A server that built its own store tears it down too; with
        # shard workers that reaps the worker processes, and
        # any that had to be force-killed count as leaks in the report.
        leaked_workers = 0
        if self._owns_store:
            # Executor joined above: teardown is single-threaded by now.
            self.store.close()  # tardis: ignore[async-discipline]
            leaked_workers = self.store.leaked_workers
        report["leaked_workers"] = leaked_workers
        self.report = report
        return report

    async def _poll(self, done: Callable[[], bool], timeout: float) -> bool:
        """Wait up to ``timeout`` for ``done()`` (evaluated under the lock)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            with self._lock:
                if done():
                    return True
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.01)

    def _submit(self, job: Callable[..., Any], *args: Any) -> None:
        """Run ``job`` on the store executor with nobody waiting for it;
        should it raise, the loop's exception handler hears of it."""
        loop = self._loop
        assert loop is not None

        def done(future: "Future[Any]") -> None:
            exc = future.exception()
            if exc is not None:
                context = {"message": "store-executor job failed", "exception": exc}
                loop.call_soon_threadsafe(loop.call_exception_handler, context)

        self._executor.submit(job, *args).add_done_callback(done)

    # -- counters (the transport is _Connection, above) ---------------------

    def _count(self, stat: str, n: int = 1) -> None:
        """Count ``n`` events in the stats dict."""
        with self._lock:
            self._stats[stat] += n

    def _started(self, nbytes: int) -> None:
        """A request left the decoder, ``nbytes`` read since the last one."""
        with self._lock:
            self._stats["requests_total"] += 1
            self._stats["bytes_in"] += nbytes
            self._inflight += 1

    def _sent(self, nbytes: int, error: bool, answers: bool) -> None:
        """A response frame is about to be written; ``answers``: the
        request in flight ends with it."""
        with self._lock:
            self._stats["bytes_out"] += nbytes
            if error:
                self._stats["errors_total"] += 1
            if answers:
                self._inflight -= 1

    def _observe(self, op: Optional[str], elapsed_ms: float) -> None:
        """Record one request's latency: from leaving the decoder to its
        answer being ready, before encode/write (event loop thread)."""
        if op is not None:
            hist = self._op_latency.get(op)
            if hist is None:
                hist = self._op_latency[op] = _met.Histogram(op)
            hist.record(elapsed_ms)

    def _cleanup_sync(self, session: WireSession) -> None:
        """Disconnect cleanup (executor thread): abort, close, forget."""
        aborted = session.close()
        with self._lock:
            self._conns.pop(session.id, None)
        if aborted:
            self._count("disconnect_aborts", aborted)

    def _bound_sessions(self) -> List[ClientSession]:
        """The store sessions the live connections bound at HELLO; the
        caller holds ``_lock``."""
        wire = (conn.session for conn in self._conns.values())
        return [s.bound for s in wire if s is not None and s.bound is not None]

    # -- live ops plane (the sampler task) ---------------------------------

    def _obs_counters(self) -> Dict[str, Any]:
        """Cumulative server counters, and the collector's as ``gc_*``,
        for the sampler (executor thread)."""
        gc = self.store.gc
        with self._lock:
            counters: Dict[str, Any] = dict(self._stats)
        counters.update(("gc_" + name, getattr(gc, name)) for name in GC_FIELDS)
        return counters

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
        """The sampler task: sample on the executor, count, sleep.

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
                    await loop.run_in_executor(self._executor, self.obs.sample)
                except RuntimeError:
                    break  # executor shut down underneath us
                except Exception:  # tardis: ignore[bare-except] — a failed sample must not kill the server
                    pass
                else:
                    self._count("obs_samples")
                delay = self.obs_sample_interval - (loop.time() - started)
                await asyncio.sleep(max(0.0, delay))
        except asyncio.CancelledError:
            pass


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
