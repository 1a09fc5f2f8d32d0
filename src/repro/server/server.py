"""TARDiS-as-a-service: the TCP front-end.

One :class:`TardisServer` wraps one :class:`~repro.core.store.TardisStore`
and speaks the length-prefixed JSON protocol of
:mod:`repro.server.protocol`. Each accepted connection is bound (by the
HELLO handshake) to one :class:`~repro.core.store.ClientSession`, so the
paper's session guarantees — Ancestor begin anchored at the client's
last commit — hold per connection exactly as they do in-process.

Concurrency model: the server runs two threads of its own. The
``tardis-store`` thread serves everything: its ``selectors`` loop
accepts (the connection cap and its refusals), reads, decodes, runs the
request (``WireSession.handle``), encodes and sends, one request per
connection per round, so a request is answered on the thread that read
it. The store is lock-protected, but its read path is optimized for the
one-writer discrete-event harness, and one thread keeps the wall-clock
behaviour honest. After each request that thread also runs the GC
trigger, and it ticks the sampler when a tick is due. The
``tardis-watchdog`` thread only answers ``TIMEOUT``. Shutdown runs on
its caller's thread and reaches the store thread through one
socketpair, a bell that wakes its selector: the store thread then
closes the listener, and later stops. The module boundary is the socket
boundary: this module owns sockets, limits, timeouts, framing, counters
and shutdown; :mod:`repro.server.handlers` is what a request runs, and
nothing here touches the store except through ``WireSession.handle`` /
``WireSession.close``.

Production plumbing:

* **Backpressure** — at most ``max_connections`` live connections (the
  excess gets a ``SERVER_BUSY`` error frame and an immediate close);
  requests on one connection are processed strictly in order, so a
  pipelining client is throttled by its own unanswered frames. Answer
  bytes the socket will not take wait in the connection's out-buffer;
  once that holds more than :data:`HIGH_WATER` bytes (the peer is not
  reading) the connection starts no request and reads nothing until the
  buffer is empty, so a slow reader blocks its own connection only, one
  response past the mark.
* **Per-request timeouts** — a request whose handler has run
  ``request_timeout`` seconds is answered with a ``TIMEOUT`` error by
  the watchdog thread, which looks every ``request_timeout / 8``; the
  connection survives and the late answer is dropped.
* **Graceful shutdown** — :meth:`TardisServer.shutdown` stops accepting,
  refuses new transactions (``SHUTTING_DOWN``) while letting open ones
  run to COMMIT/ABORT for up to ``drain_timeout`` seconds, then cuts the
  stragglers' sockets; disconnect cleanup aborts their transactions and
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
set, the store thread ticks an :class:`~repro.obs.sampler.ObsSampler`
on a wall-clock cadence, between requests: it samples the store's
divergence series, the server gauges, per-op latency percentiles, and
the shard plane's worker health, and runs the sampler's triggers live
so threshold trips become alerts.
Snapshots are served by ``OBS_SNAPSHOT``: a watcher polls, and the server
keeps nothing per watcher. Every frame a connection writes answers one of
its requests.
"""

from __future__ import annotations

import math
import selectors
import signal
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.store import ClientSession, TardisStore
from repro.errors import FrameTooLarge, ProtocolError
from repro.obs import metrics as _met
from repro.obs.sampler import ObsSampler
from repro.server.handlers import GC_FIELDS, WireSession, holds_work
from repro.server.protocol import OPS, FrameDecoder, encode_frame, error_response

__all__ = ["TardisServer", "run_server"]

#: bytes of the one receive buffer the store thread reads every socket into.
RECV_BUFFER = 1 << 16

#: out-buffer bytes above which a connection starts no request and reads
#: nothing until the buffer is empty.
HIGH_WATER = 1 << 16

#: states the DAG may grow past twice what the last GC cycle left alive
#: before the next cycle runs (see ``TardisServer._collect_if_grown``).
GC_GROWTH = 512

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Connection:
    """One accepted socket. The store thread serves it: everything here
    runs there, except that the watchdog thread answers ``TIMEOUT`` for
    the request in flight and shutdown cuts the socket.

    Both threads may answer the request in flight, so ``busy`` is written
    only under ``lock``: the store thread sets it while a handler runs and
    clears it to answer; the watchdog clears it to answer ``TIMEOUT``
    instead, and writes that frame before it lets go. So the two never
    write the socket at once: the store thread writes only while ``busy``
    is None, the watchdog only while it holds the lock and takes ``busy``.
    """

    _GUARDED_BY = {
        "busy": "self.lock",
        "deadline": "self.lock",
        "out": "external:store-thread, or the watchdog while it clears busy",
    }

    __slots__ = (
        "sock", "session", "decoder", "out", "lock", "busy", "deadline",
        "unread", "events", "paused", "eof", "closing", "broken",
    )

    def __init__(self, sock: socket.socket, session: WireSession) -> None:
        self.sock = sock
        self.session = session
        self.decoder = FrameDecoder()
        #: answer bytes the socket did not take yet.
        self.out = bytearray()
        self.lock = threading.Lock()
        #: the request whose handler runs, and when it times out.
        self.busy: Optional[Dict[str, Any]] = None
        self.deadline = 0.0
        #: bytes received and not yet counted (they are, with the next request).
        self.unread = 0
        #: the selector events it is registered for (0: none).
        self.events = 0
        #: the peer is not reading: start nothing, read nothing. Set when a
        #: write leaves more than HIGH_WATER bytes waiting, cleared only once
        #: ``out`` is empty, so a slowly draining socket cannot restart it
        #: one answer at a time.
        self.paused = False
        self.eof = False  # the peer half-closed: answer what is buffered
        self.closing = False  # close once ``out`` is flushed
        self.broken = False  # the socket failed or was cut: drop it

    def start(self, request: Dict[str, Any], deadline: float) -> None:
        with self.lock:
            self.busy = request
            self.deadline = deadline

    def finish(self, request: Dict[str, Any]) -> bool:
        """End ``request``; False if ``TIMEOUT`` answered it already."""
        with self.lock:
            if self.busy is not request:
                return False
            self.busy = None
            return True

    def write(self, frame: bytes) -> None:
        """Send ``frame``; what the socket does not take waits in ``out``."""
        self.out += frame
        self.flush()
        if len(self.out) > HIGH_WATER:
            self.paused = True

    def flush(self) -> None:
        try:
            sent = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # the peer is gone
            self.broken = True
            return
        del self.out[:sent]
        if not self.out:
            self.paused = False

    def cut(self) -> None:
        """Shut the socket down both ways (shutdown's thread): a peer
        that is not reading cannot hold the close up."""
        with self.lock:
            self.broken = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed already


class TardisServer:
    """A TCP server exposing one TardisStore over the wire."""

    _GUARDED_BY = {
        "_conns": "self._lock",
        "_stats": "self._lock",
        "_inflight": "self._lock",
        "_gc_at": "external:store-thread",
        "_ready": "external:store-thread",
        "_rearm": "external:store-thread",
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
        self._thread: Optional[threading.Thread] = None  # started by ``start()``
        # -- made by ``start()`` too: the listener, the watchdog thread, and
        # the socketpair whose bell wakes the store thread's selector (its own).
        self._listener: socket.socket
        self._watchdog: threading.Thread
        self._wake: socket.socket
        self._waker: socket.socket
        self._selector: selectors.BaseSelector
        #: when the listener, off the selector after a failed accept, goes
        #: back on; inf while it is on (or closed).
        self._rearm = math.inf
        #: shutdown asks the store thread to stop, then the watchdog.
        self._stopping = False
        self._stopped = threading.Event()
        #: connections that may hold a whole request (an ordered set).
        self._ready: Dict[_Connection, None] = {}
        self._view = memoryview(bytearray(RECV_BUFFER))
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
        #: the DAG size at which the store thread runs the next GC cycle.
        self._gc_at = GC_GROWTH
        self.report: Optional[Dict[str, Any]] = None
        # -- live ops plane (docs/internals.md §14) ------------------------
        #: wall seconds between sampler ticks; None leaves the sampler
        #: off (OBS_SNAPSHOT still works — it samples on demand).
        self.obs_sample_interval = obs_sample_interval
        self.obs = ObsSampler(
            self.store,
            site=self.store.site,
            counters_fn=self._obs_counters,
            gauges_fn=self._obs_gauges,
            latency_fn=self._obs_latency,
        )
        #: per-op request-latency histograms (wire op -> Histogram);
        #: created, updated and snapshotted on the store thread only.
        self._op_latency: Dict[str, _met.Histogram] = {}

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "TardisServer":
        """Bind the listener, then start the store thread and the watchdog
        thread; ``self.port`` holds the real port. A failed bind raises and
        starts nothing."""
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family, backlog=100
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake, self._waker = socket.socketpair()
        self._waker.setblocking(False)  # ``_ring`` never blocks its caller
        self._thread = threading.Thread(target=self._serve, name="tardis-store", daemon=True)
        self._watchdog = threading.Thread(target=self._watch, name="tardis-watchdog", daemon=True)
        self._thread.start()
        self._watchdog.start()
        return self

    @property
    def sampling(self) -> bool:
        """Whether the store thread ticks the sampler."""
        return self.obs_sample_interval is not None and self.obs_sample_interval > 0

    @property
    def address(self) -> str:
        return "%s:%d" % (self.host, self.port)

    def _watch(self) -> None:
        """The ``TIMEOUT`` watchdog (the ``tardis-watchdog`` thread): every
        ``request_timeout / 8`` until shutdown stops it, answer ``TIMEOUT``
        for each request whose handler has run ``request_timeout``, so it
        is answered within ``[request_timeout, 1.125 × request_timeout]``."""
        message = "request exceeded %.3fs" % self.request_timeout
        while not self._stopped.wait(self.request_timeout / 8):
            now = time.perf_counter()
            with self._lock:
                conns = list(self._conns.values())
            for conn in conns:
                with conn.lock:
                    request = conn.busy
                    if request is None or conn.deadline > now:
                        continue
                    # The store thread drops the handler's answer and
                    # undoes what the request began.
                    conn.busy = None
                    frame = encode_frame(error_response(request.get("id"), "TIMEOUT", message))
                    self._count("timeouts_total")
                    self._sent(len(frame), True, True)
                    conn.write(frame)

    def shutdown(self, drain_timeout: Optional[float] = None) -> Dict[str, Any]:
        """Graceful stop: drain in-flight work, close every session. It
        runs on the caller's thread, which must not be the store thread.

        1. Stop accepting (the store thread closes the listener); a new
           ``begin`` or MERGE on a live connection gets ``SHUTTING_DOWN``.
        2. Wait up to ``drain_timeout`` for in-flight requests and open
           transactions with writes (or merges): a write-free one may be
           closed on an idle client already, and aborting it loses nothing.
        3. Cut surviving connections (``SHUT_RDWR``); their cleanup aborts
           open transactions and closes their sessions. Wait for every
           connection's cleanup, then stop and join the store thread, and
           then the watchdog.

        Returns (and stores in ``self.report``) a summary including the
        sessions the server leaked — an empty list on a clean drain.
        """
        if self.report is not None:
            return self.report
        self._closing = True
        if self._thread is not None:
            self._ring()  # the store thread closes the listener
        drained = self._poll(
            lambda: not self._inflight
            and not any(
                holds_work(txn)  # ``txns`` changes on the store thread: a snapshot
                for conn in self._conns.values()
                for txn in list(conn.session.txns.values())
            ),
            self.drain_timeout if drain_timeout is None else drain_timeout,
        )
        with self._lock:
            survivors = list(self._conns.values())
        for conn in survivors:
            conn.cut()
        # The store thread drops a cut connection as soon as it is not in
        # a handler; a handler slower than this wait is joined below anyway.
        self._poll(lambda: not self._conns, 5.0)
        if self._thread is not None:
            self._stopping = True
            self._ring()
            self._thread.join()
            self._stopped.set()  # TIMEOUTs are answered until the join
            self._watchdog.join()
            for sock in (self._listener, self._wake, self._waker):
                sock.close()
        # Store thread joined (above): the store is quiesced.
        registered = self.store.sessions()
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
            self.store.close()
            leaked_workers = self.store.leaked_workers
        report["leaked_workers"] = leaked_workers
        self.report = report
        return report

    def _poll(self, done: Callable[[], bool], timeout: float) -> bool:
        """Wait up to ``timeout`` for ``done()`` (evaluated under the lock)."""
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if done():
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)

    # -- the store thread ----------------------------------------------------

    def _ring(self) -> None:
        """Wake the store thread's selector (shutdown's thread)."""
        try:
            self._waker.send(b"\0")
        except BlockingIOError:
            pass  # bytes already wait: the thread wakes anyway

    def _serve(self) -> None:
        """The store thread: a ``selectors`` loop over the listener and
        every connection. Each round accepts and reads what arrived, then
        starts one request of each connection that holds one and, after
        each, runs the GC growth trigger; a sampler tick runs whenever one
        is due (an idle ``select`` times out at the next one, or when the
        listener goes back on after a failed accept)."""
        selector = self._selector = selectors.DefaultSelector()
        wake, listener = self._wake, self._listener
        selector.register(wake, _READ, None)  # a byte rung before this still wakes it
        selector.register(listener, _READ, None)
        ready = self._ready
        interval = self.obs_sample_interval if self.sampling else math.inf
        tick = time.monotonic() if self.sampling else math.inf
        try:
            while True:
                due = min(tick, self._rearm)
                if ready:
                    timeout: Optional[float] = 0.0
                elif due == math.inf:
                    timeout = None
                else:
                    timeout = max(0.0, due - time.monotonic())
                for key, events in selector.select(timeout):
                    conn = key.data
                    if conn is None:  # the bell or the listener
                        if key.fileobj is listener:
                            self._call(self._accept)
                        elif not self._woken():
                            return  # shutdown asked it to stop
                    elif not self._call(self._io, conn, events):
                        self._call(self._drop, conn)
                for conn in list(ready):
                    if not self._call(self._step, conn):
                        self._call(self._drop, conn)
                    self._call(self._collect_if_grown)
                if due == math.inf:
                    continue  # no tick and no re-arm is pending
                now = time.monotonic()
                if now >= self._rearm:
                    self._rearm = math.inf
                    selector.register(listener, _READ, None)
                if now >= tick:
                    tick = now + interval
                    if self._call(self.obs.sample):
                        self._count("obs_samples")
        finally:
            with self._lock:
                left = list(self._conns.values())  # what shutdown's wait did not see go
            for conn in left:
                self._drop(conn)
            selector.close()

    def _woken(self) -> bool:
        """The bell rang: once shutdown began, take the listener off and
        close it; False once shutdown asks the thread to stop."""
        self._wake.recv(4096)
        listener = self._listener
        if self._closing and listener.fileno() != -1:
            if self._rearm == math.inf:  # on the selector, not backing off
                self._selector.unregister(listener)
            self._rearm = math.inf
            listener.close()
        return not self._stopping

    def _accept(self) -> None:
        """Accept every connection that waits, and register it, or refuse
        it at the cap or while draining. Any other accept failure (no
        descriptors left) takes the listener off the selector for 10 ms,
        so it cannot spin the thread."""
        while True:
            try:
                sock, _peer = self._listener.accept()
            except BlockingIOError:
                return  # none left
            except OSError:  # the peer reset before the accept, or no descriptors left
                self._selector.unregister(self._listener)
                self._rearm = time.monotonic() + 0.01
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                refused = self._closing or len(self._conns) >= self.max_connections
                if not refused:
                    conn = _Connection(sock, WireSession(self, self._next_conn_id))
                    self._next_conn_id += 1
                    self._conns[conn.session.id] = conn
            if not refused:
                self._count("connections_total")
                self._settle(conn)  # registers it with the selector
                continue
            self._count("connections_rejected")
            code = "SHUTTING_DOWN" if self._closing else "SERVER_BUSY"
            frame = encode_frame(error_response(None, code))
            self._sent(len(frame), True, False)
            try:
                sock.send(frame)  # a fresh socket takes one small frame
            except OSError:
                pass  # the peer is gone already
            sock.close()

    def _call(self, fn: Callable[..., Any], *args: Any) -> bool:
        """Run ``fn(*args)`` on the store thread; returns whether it
        returned. A failure reaches :func:`threading.excepthook` (a failed
        sample only goes uncounted); either way the thread serves on."""
        try:
            fn(*args)
        except Exception as exc:  # tardis: ignore[bare-except] — one failure must not stop the store thread
            if fn != self.obs.sample:
                threading.excepthook(
                    threading.ExceptHookArgs(
                        (type(exc), exc, exc.__traceback__, threading.current_thread())
                    )
                )
            return False
        return True

    def _io(self, conn: _Connection, events: int) -> None:
        """``conn``'s socket is ready: flush what waits, read what arrived."""
        if events & _WRITE and not conn.broken:
            conn.flush()
            if not (conn.paused or conn.closing):
                self._ready[conn] = None  # it may hold frames it held back
        if events & _READ and conn not in self._ready and not conn.broken:
            # A connection still in ``_ready`` reads no more until its
            # buffered frames ran dry: a pipelining peer buffers little.
            try:
                n = conn.sock.recv_into(self._view)
            except (BlockingIOError, InterruptedError):
                n = -1
            except OSError:  # reset
                conn.broken = True
                n = -1
            if n > 0:
                conn.unread += n
                conn.decoder.feed(self._view[:n])
                self._ready[conn] = None
            elif n == 0:
                conn.eof = True
                self._ready[conn] = None
        self._settle(conn)

    def _step(self, conn: _Connection) -> None:
        """Start ``conn``'s next buffered request, if it may."""
        ready = self._ready
        if conn.broken or conn.closing or conn.paused:
            del ready[conn]  # a flush brings a paused one back
            self._settle(conn)
            return
        try:
            request = conn.decoder.next_frame()
        except ProtocolError as exc:
            # Framing is lost: answer once, then drop the link.
            code = "FRAME_TOO_LARGE" if isinstance(exc, FrameTooLarge) else "BAD_FRAME"
            self._answer(conn, error_response(None, code, str(exc)), False)
            conn.closing = True
            request = None
        if request is not None:
            self._run(conn, request)
        if request is None or not conn.decoder.pending():
            del ready[conn]
            conn.closing |= conn.eof  # what was buffered is answered: close
        self._settle(conn)

    def _run(self, conn: _Connection, request: Dict[str, Any]) -> None:
        """One request, from leaving the decoder to its answer's write."""
        self._started(conn.unread)
        conn.unread = 0
        since = time.perf_counter()
        conn.start(request, since + self.request_timeout)
        response = conn.session.handle(request)
        op = request.get("op")
        # an op answered UNKNOWN_OP has no per-op histogram
        self._observe(
            op if isinstance(op, str) and op in OPS else None,
            (time.perf_counter() - since) * 1000.0,
        )
        if not conn.finish(request):
            # TIMEOUT answered in its place: the answer is dropped, and
            # a transaction it began is aborted (nobody learned its id).
            conn.session.undo(request)
        else:
            self._answer(conn, response, True)
            conn.closing |= op == "BYE"

    def _answer(self, conn: _Connection, response: Dict[str, Any], answers: bool) -> None:
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
        self._sent(len(frame), not response.get("ok", False), answers)
        conn.write(frame)

    def _settle(self, conn: _Connection) -> None:
        """Drop ``conn`` if it is done, else register the events it waits for."""
        if conn.broken or (conn.closing and not conn.out):
            self._drop(conn)
            return
        want = 0 if conn.eof or conn.closing or conn.paused else _READ
        if conn.out:
            want |= _WRITE
        if want != conn.events:
            if not conn.events:
                self._selector.register(conn.sock, want, conn)
            elif want:
                self._selector.modify(conn.sock, want, conn)
            else:
                self._selector.unregister(conn.sock)
            conn.events = want

    def _drop(self, conn: _Connection) -> None:
        """Close ``conn`` and run its disconnect cleanup (idempotent)."""
        self._ready.pop(conn, None)
        if conn.events:
            self._selector.unregister(conn.sock)
            conn.events = 0
        with conn.lock:  # not while shutdown cuts it
            conn.sock.close()
        if conn.unread:
            self._count("bytes_in", conn.unread)
            conn.unread = 0
        self._call(self._cleanup_sync, conn.session)

    def _collect_if_grown(self) -> None:
        """The GC growth trigger, run after every request and job: one
        cycle once the DAG holds ``_gc_at`` states. The next trigger is
        twice what it left alive plus :data:`GC_GROWTH`, so a collector
        held back by a ceiling or a pin runs at geometric sizes and its
        total cost stays linear."""
        store = self.store
        if len(store.dag) >= self._gc_at:
            self._gc_at = 2 * store.collect_garbage().live_states + GC_GROWTH

    # -- counters ----------------------------------------------------------

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
        handler's return, before encode/write (store thread)."""
        if op is not None:
            hist = self._op_latency.get(op)
            if hist is None:
                hist = self._op_latency[op] = _met.Histogram(op)
            hist.record(elapsed_ms)

    def _cleanup_sync(self, session: WireSession) -> None:
        """Disconnect cleanup (store thread): abort, close, forget."""
        aborted = session.close()
        with self._lock:
            self._conns.pop(session.id, None)
        if aborted:
            self._count("disconnect_aborts", aborted)

    def _bound_sessions(self) -> List[ClientSession]:
        """The store sessions the live connections bound at HELLO; the
        caller holds ``_lock``."""
        wire = (conn.session for conn in self._conns.values())
        return [s.bound for s in wire if s.bound is not None]

    # -- live ops plane (sampled on the store thread) -----------------------

    def _obs_counters(self) -> Dict[str, Any]:
        """Cumulative server counters, and the collector's as ``gc_*``,
        for the sampler (store thread)."""
        gc = self.store.gc
        with self._lock:
            counters: Dict[str, Any] = dict(self._stats)
        counters.update(("gc_" + name, getattr(gc, name)) for name in GC_FIELDS)
        return counters

    def _obs_gauges(self) -> Dict[str, Any]:
        """Instantaneous server gauges for the sampler (store thread)."""
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
    ephemeral ``--port 0`` allocation. The handlers go in before the port
    file is written, so a signal sent once it exists is never missed; the
    previous handlers are back when this returns.
    """
    stop = threading.Event()

    def _stop(_signum: int, _frame: Any) -> None:
        # The handler runs on the main thread, which may hold the event's
        # lock inside ``wait()`` when a second signal lands: set it once.
        if not stop.is_set():
            stop.set()

    signals = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(sig, _stop) for sig in signals]
    try:
        server.start()
        announce(
            "tardis serve: listening on %s (site=%s, max_connections=%d)"
            % (server.address, server.store.site, server.max_connections)
        )
        if port_file:
            with open(port_file, "w") as handle:
                handle.write("%d\n" % server.port)
        stop.wait()
    finally:
        report = server.shutdown()
        for sig, handler in zip(signals, previous):
            signal.signal(sig, handler)
    return report
