"""The routed record store: N record shards behind shard links (§6.4).

One class, :class:`ShardedRecordStore`, routes every key through a
:class:`~repro.partitioning.router.ShardRouter` to one of N shards.
Each shard is a plain :class:`~repro.core.versions.VersionedRecordStore`
(the per-shard leaf; its own per-key version lists, as a separate
storage node would have). Shards sit behind *shard
links* that all speak one pair of calls::

    link.request(batch_id, sync, cmds)   # send a command batch
    link.collect(timeout)                # the oldest outstanding reply

* :class:`_InlineLink` (``n_workers=0``) runs the batch in-process
  against the store's real State DAG. This is the reference plane: the
  oracle fuzz compares the worker plane against it.
* :class:`_WorkerHandle` (``n_workers=W``) is one end of a stream
  socket pair whose other end a worker *process* holds; the worker owns
  shards ``{i : i % W == w}`` — a worker can own several shards, the
  partial-replication shape. Both ends execute the same
  :func:`_dispatch` command table.

A worker is its own small program (:func:`_spawn_worker`): a fresh
``python -S`` with the coordinator's interpreter flags runs
:data:`_BOOT`, which imports this module and serves the one fd it
inherits. It never re-runs the coordinator's main module, and the lazy
package ``__init__`` modules (``repro._lazy``) keep its imports to the
record-store code it runs: ``core.ids``, ``core.ancestry``,
``core.state_dag``, ``core.versions``, ``errors`` and this package.

The link is framed: each batch and each reply is one ``!I`` length
header followed by the message's pickle, written with one ``sendall``
and read with ``recv_into`` into a per-link buffer
(:class:`_FrameReader`), so a small reply costs one receive call.
A frame carries plain values only: a state id crosses as a plain
``(counter, site)`` tuple, never as a :class:`~repro.core.ids.StateId`,
whose pickle is a class lookup and a ``__getnewargs__`` call per id.
:class:`ShardedRecordStore` turns the ids it reads back into
``StateId`` again (:func:`_state_id`), so its callers see what the flat
store returns.

The hard part of the worker plane is that a worker must answer visibility
questions — *is version state x an ancestor of read state y?* —
without holding the State DAG, which lives (and mutates) in the
coordinator. The worker keeps a :class:`_ShardDagView`: a mask table
mapping every version state id it stores to its resolved ``(live_id,
path_mask)`` pair, enough to run Figure 7's ``descendant_check`` and
the promotion logic verbatim against the real ``VersionedRecordStore``
code. The worker link owns keeping that table honest:

* every write ships the committing state's ``(id, mask)``;
* every read carries the read state's ``(id, mask)`` inline;
* when the DAG's ``(destructive_gen, retro_updates)`` fingerprint
  moves (GC splice-out, fork retirement, retroactive mask widening),
  the link re-resolves every id it shipped to that worker and sends
  the delta — plus a destructive bump so the worker's visibility cache
  drops, mirroring the flat store's epoch rule;
* after a promotion pass every version on the worker is keyed by a
  live id, so both ends forget the entries of collected states and the
  table stays proportional to live states, not to commits ever made.

Failure model: a dead or unresponsive worker surfaces as
:class:`~repro.errors.ShardUnavailableError`, detected on the socket
itself: a dead worker as EPIPE, ECONNRESET or end of stream, a wedged
one as the socket's timeout; nothing polls the process per request.
A commit sends each shard one ``write`` under the new state's id;
when any shard fails, the
CommitPipeline removes the state from the DAG again and raises
:class:`~repro.errors.CrossShardAbort`, so a dead worker never leaves
half a commit visible. A version a live shard already wrote names an id
that no longer resolves: reads skip it and the next promotion pass
drops it. A batch the link cannot pickle raises
:class:`~repro.errors.ShardError` before anything is sent, so its link
stays in step. Every operation goes through one scatter/gather,
:meth:`ShardedRecordStore._gather`, whose drain rule keeps a failed
scatter from leaving a reply unread on a healthy link.
"""

from __future__ import annotations

import itertools
import os
import pickle
import socket
import struct
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.ids import StateId
from repro.core.state_dag import State, StateDAG
from repro.core.versions import VersionedRecordStore
from repro.errors import (
    GarbageCollectedError,
    ShardError,
    ShardUnavailableError,
    TardisError,
)
from repro.partitioning.router import ShardRouter

__all__ = ["ShardedRecordStore"]

#: seconds to wait for one worker reply before declaring the worker
#: dead (covers scheduling noise; real replies are sub-ms).
WORKER_TIMEOUT = 30.0

#: seconds a health ping may take before the worker counts as wedged.
PING_TIMEOUT = 1.0

#: the length header that opens every frame on a shard link.
_HEADER = struct.Struct("!I")

#: bytes each end of a shard link reads into at once; a frame larger
#: than this takes a second, exactly sized read.
RECV_BUFFER = 1 << 16

#: the directory that holds the ``repro`` package: a worker runs
#: without ``site``, so its boot puts this first on ``sys.path``.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: a worker process's whole program, run with ``python -S -c``: it
#: imports this module (and so only the record-store code it runs) and
#: serves its end of the link, the one fd it inherits.
_BOOT = """\
import sys
sys.path.insert(0, %(root)r)
import socket
from repro.partitioning.workers import shard_worker_main
shard_worker_main(socket.socket(fileno=%(fd)d), %(spec)r)
"""

#: one mask-table entry: (live_id, path_mask), or None when the state
#: was collected without an heir.
_Entry = Optional[Tuple[Any, int]]


def _state_id(pair) -> StateId:
    """An id read back from a link, a :class:`StateId` again (without
    NamedTuple's Python-level ``__new__``)."""
    return tuple.__new__(StateId, pair)


def _typed(hit):
    """A version ``(id, value)`` read back from a link, its id typed."""
    return None if hit is None else (tuple.__new__(StateId, hit[0]), hit[1])


class _StateView:
    """The two fields of a State that visibility checks consume."""

    __slots__ = ("id", "path_mask")

    def __init__(self, state_id, path_mask):
        self.id = state_id
        self.path_mask = path_mask


def _plain_rows(masks: Dict[Any, _Entry], extra) -> Dict[Any, _Entry]:
    """Mask rows as they cross the link: every id a plain tuple, one
    tuple per state, and the batch's own ids (``extra``, already plain)
    the very objects its commands name, so the pickle memo sends each
    state once."""
    plain = {sid: sid for sid in extra or ()}

    def pair(sid):
        found = plain.get(sid)
        if found is None:
            found = plain[sid] = tuple(sid)
        return found

    return {
        pair(sid): None if entry is None else (pair(entry[0]), entry[1])
        for sid, entry in masks.items()
    }


def _live_entries(table: Dict[Any, _Entry]) -> Dict[Any, _Entry]:
    """The entries still needed once a promotion pass has run.

    Promotion rewrites every version to its live id and drops orphans,
    so an entry that is ``None`` or an alias (``live_id != sid``) can
    no longer be looked up by any version on the worker. Both ends of
    a link apply this same rule, which keeps them equal without
    shipping the deletions.
    """
    return {
        sid: entry
        for sid, entry in table.items()
        if entry is not None and entry[0] == sid
    }


class _ShardDagView:
    """The worker-side stand-in for the coordinator's StateDAG.

    Implements exactly the surface ``VersionedRecordStore`` touches:
    ``resolve`` (promotion-aware, raising
    :class:`~repro.errors.GarbageCollectedError` for dropped ids),
    ``descendant_check`` (Figure 7 mask-subset test), and the
    destructive generation that gates the visibility cache.
    """

    __slots__ = ("destructive_gen", "table")

    def __init__(self):
        self.destructive_gen = 0
        #: state id -> (live_id, path_mask) | None (GC'd without heir).
        self.table: Dict[Any, _Entry] = {}

    def apply_sync(self, masks, bump) -> None:
        self.table.update(masks)
        if bump:
            self.destructive_gen += 1

    def resolve(self, state_id) -> _StateView:
        entry = self.table.get(state_id)
        if entry is None:
            raise GarbageCollectedError(state_id)
        return _StateView(entry[0], entry[1])

    def descendant_check(self, x, y) -> bool:
        if x.id == y.id:
            return True
        if x.id > y.id:
            return False
        x_mask = x.path_mask
        return x_mask & y.path_mask == x_mask

    def mark_destructive(self) -> None:
        self.destructive_gen += 1


def _build_shards(spec) -> Dict[int, VersionedRecordStore]:
    """The shard stores one link owns, keyed by shard index."""
    return {shard: VersionedRecordStore() for shard in spec["shards"]}


def _counted(store, read, *args):
    """A read reply: ``read(*args)``'s result, then how far it moved
    ``store``'s running read counts (scanned, cache hits, misses and
    invalidations)."""
    scanned, hits = store.scanned, store.vis_hits
    misses, invalidations = store.vis_misses, store.vis_invalidations
    return (
        read(*args),
        store.scanned - scanned,
        store.vis_hits - hits,
        store.vis_misses - misses,
        store.vis_invalidations - invalidations,
    )


def _dispatch(stores, view, cmd):
    """Execute one command tuple against a link's shard stores.

    ``view`` is whatever answers ``resolve``/``descendant_check`` on
    this side of the link: the real StateDAG in-process, a
    :class:`_ShardDagView` in a worker. Reads answer with
    :func:`_counted` replies.
    """
    op = cmd[0]
    if op == "read_many":
        _, shard, keys, rid, rmask = cmd
        store = stores[shard]
        return _counted(store, store.read_visible_many, keys, _StateView(rid, rmask), view)
    if op == "write":
        _, shard, items, sid = cmd
        store = stores[shard]
        for key, value in items:
            store.write(key, sid, value)
        return len(items)
    if op == "read_candidates":
        _, shard, key, states = cmd
        store = stores[shard]
        views = [_StateView(sid, mask) for sid, mask in states]
        return _counted(store, store.read_candidates, key, views, view)
    if op == "promote":
        promoted = dropped = 0
        for store in stores.values():
            p, d = store.promote_and_prune(view)
            promoted += p
            dropped += d
        return promoted, dropped
    if op == "items_at":
        _, shard, sid, mask = cmd
        store = stores[shard]
        state = _StateView(sid, mask)
        return _counted(store, lambda: list(store.items_at(state, view)))
    if op == "num_versions":
        return stores[cmd[1]].num_versions(cmd[2])
    if op == "versions_of":
        return stores[cmd[1]].versions_of(cmd[2])
    if op == "keys":
        return list(stores[cmd[1]].keys())
    if op == "record":
        _, shard, key, sid, default = cmd
        return stores[shard].record(key, sid, default)
    if op == "stats":
        store = stores[cmd[1]]
        return {
            "records": store.num_records(),
            "keys": store.num_keys(),
            "cache": store.cache_info(),
        }
    if op == "ping":
        return "pong"
    raise ValueError("unknown shard command %r" % (op,))


def _frame(message) -> bytes:
    """One frame of a shard link: the ``!I`` length header, then the
    message's pickle. Raises whatever pickling raises."""
    body = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


class _FrameReader:
    """Reads a shard link's frames from a stream socket with ``recv_into``.

    A frame that arrives whole and fits the buffer, the common case,
    costs one ``recv_into``. The read loops only while the header is
    split; a body that is split or larger than the buffer is finished in
    its own exactly sized bytearray. Bytes past the frame (a frame sent
    behind it) stay buffered for the next read.
    """

    __slots__ = ("_view", "_start", "_end")

    def __init__(self, size: int = RECV_BUFFER):
        self._view = memoryview(bytearray(size))
        self._start = self._end = 0

    @staticmethod
    def _fill(source, into) -> int:
        got = source.recv_into(into)
        if not got:
            raise EOFError("shard link closed")
        return got

    def read(self, source) -> Any:
        """The next message on ``source`` (anything with ``recv_into``).
        Raises EOFError when the stream ends, mid-frame or not."""
        view, start, end = self._view, self._start, self._end
        while end - start < _HEADER.size:
            if start:  # a split header: move its first bytes to the front
                view[: end - start] = view[start:end]
                start, end = 0, end - start
            end += self._fill(source, view[end:])
        (size,) = _HEADER.unpack_from(view, start)
        start += _HEADER.size
        have = end - start
        if have >= size:
            body = view[start : start + size]
            start += size
            self._start, self._end = (0, 0) if start == end else (start, end)
            return pickle.loads(body)
        self._start = self._end = 0
        rest = bytearray(size)
        rest[:have] = view[start:end]
        into = memoryview(rest)
        while have < size:
            have += self._fill(source, into[have:])
        return pickle.loads(rest)


def shard_worker_main(sock, spec) -> None:
    """Entry point of one shard worker process.

    The loop reads one batch frame, applies the piggybacked mask sync,
    runs the command batch, and replies ``(batch_id, ok, payload)`` in
    one frame; any exception is marshalled back for the coordinator to
    re-raise typed, because a worker that dies on a bad command would
    turn one poisoned request into a whole dead shard. End of stream is
    the stop signal: the coordinator half-closes its end to stop the
    worker, and a coordinator that dies closes it too.
    """
    view = _ShardDagView()
    stores = _build_shards(spec)
    frames = _FrameReader()
    with sock:
        while True:
            try:
                batch_id, sync, cmds = frames.read(sock)
            except (EOFError, OSError):
                break
            if sync is not None:
                view.apply_sync(sync[0], sync[1])
            ok = True
            payload: Any
            try:
                payload = [_dispatch(stores, view, cmd) for cmd in cmds]
                if cmds[0][0] == "promote":
                    # Every version here is now keyed by a live id; the
                    # coordinator prunes its copy by the same rule.
                    view.table = _live_entries(view.table)
            except GarbageCollectedError as exc:
                ok, payload = False, ("gc", exc.state_id)
            # Marshalled and re-raised typed by the coordinator's collect();
            # swallowing here keeps the shard alive across a poisoned request.
            except Exception as exc:  # tardis: ignore[bare-except]
                ok, payload = False, ("error", "%s: %s" % (type(exc).__name__, exc))
            try:
                sock.sendall(_frame((batch_id, ok, payload)))
            except OSError:
                break


class _InlineLink:
    """The in-process shard link: the command table run on the real DAG.

    ``request`` executes the batch at once and ``collect`` hands the
    stored reply back, so the routed store drives both planes through
    one code path. ``descendant_check`` only reads ``.id`` and
    ``.path_mask``, so the ``_StateView`` read states ``_dispatch``
    builds work against a real :class:`StateDAG` unchanged, and there
    is no mask table to keep in sync.
    """

    __slots__ = ("index", "_stores", "_dag", "_inflight")

    def __init__(self, index, spec, dag: StateDAG):
        self.index = index
        self._stores = _build_shards(spec)
        self._dag = dag
        self._inflight: List[Any] = []

    def sync_for(self, extra=None) -> None:
        return None

    def prune_masks(self) -> None:
        """Nothing to prune: visibility reads the DAG itself."""

    def request(self, batch_id, sync, cmds) -> None:
        try:
            reply: Any = [_dispatch(self._stores, self._dag, cmd) for cmd in cmds]
        except TardisError as exc:
            reply = exc  # raised by collect, where a worker's error surfaces
        self._inflight.append(reply)

    def collect(self, timeout):
        reply = self._inflight.pop(0)
        if isinstance(reply, TardisError):
            raise reply
        return reply

    def shutdown(self) -> bool:
        return False


class _WorkerHandle:
    """Coordinator-side endpoint of one worker: socket, liveness, masks.

    Requests and replies travel strictly in order on one stream socket,
    one frame each; ``request`` sends, ``collect`` receives the oldest
    outstanding reply — the split is what lets scatter/gather sends go
    out to every worker before any reply is awaited. A dead worker shows
    on the socket itself (EPIPE or ECONNRESET on send or receive, or end
    of stream); a wedged one as the socket's timeout. The handle also
    owns the coordinator's copy of the worker's mask table (what was
    shipped, and the DAG fingerprint it was resolved under).
    """

    __slots__ = (
        "index", "shards", "process", "sock", "alive", "_inflight",
        "_frames", "_timeout", "_dag", "_shipped", "_fingerprint",
    )

    # Driven only by the routed store, so it runs under the owning
    # TardisStore's lock too.

    def __init__(self, index, shards, process, sock, dag: StateDAG):
        self.index = index
        self.shards = shards
        self.process = process
        self.sock = sock
        self.alive = True
        self._inflight: List[int] = []
        self._frames = _FrameReader()
        #: the socket's timeout, reset only when a collect asks for another.
        self._timeout = WORKER_TIMEOUT
        sock.settimeout(WORKER_TIMEOUT)
        self._dag = dag
        #: {state_id: entry} exactly as the worker's table holds it.
        self._shipped: Dict[Any, _Entry] = {}
        #: (destructive_gen, retro_updates) at the last sync.
        self._fingerprint: Tuple[int, int] = (0, 0)

    # -- mask synchronization ----------------------------------------------

    def _entry(self, state_id) -> _Entry:
        try:
            live = self._dag.resolve(state_id)
        except GarbageCollectedError:
            return None
        return (live.id, live.path_mask)

    def sync_for(self, extra=None):
        """The piggyback sync payload for one outbound batch, or None.

        ``extra`` names the plain state ids the batch itself introduces
        (the committing state). The expensive part — re-resolving every
        shipped id — only runs when the DAG's destructive/retro
        fingerprint moved since the last batch to this worker, which
        happens at GC/fork-retire/retro rates, not per commit.
        """
        dag = self._dag
        fingerprint = (dag.destructive_gen, dag.retro_updates)
        if not extra and fingerprint == self._fingerprint:
            return None  # the per-read case: nothing moved, nothing new
        shipped = self._shipped
        masks: Dict[Any, _Entry] = {}

        def ship(sid, entry):
            if shipped.get(sid, False) != entry:
                shipped[sid] = masks[sid] = entry
            # Promotion will re-key this id's records under its heir,
            # a state whose own commit may never have touched this
            # worker: the heir must be resolvable there too.
            if entry is not None and entry[0] != sid:
                ship(entry[0], entry)

        bump = False
        if self._fingerprint != fingerprint:
            bump = dag.destructive_gen != self._fingerprint[0]
            for sid in list(shipped):
                ship(sid, self._entry(sid))
            self._fingerprint = fingerprint
        for sid in extra or ():
            entry = self._entry(sid)
            # The table keeps the DAG's own id object, not a copy.
            ship(entry[0] if entry is not None and entry[0] == sid else sid, entry)
        if not masks and not bump:
            return None
        return (_plain_rows(masks, extra), bump)

    def prune_masks(self) -> None:
        """Mirror the worker's post-promotion table pruning."""
        self._shipped = _live_entries(self._shipped)

    def _unship(self, sync) -> None:
        """Forget a sync payload the worker never received: its rows
        and the fingerprint are re-resolved and re-shipped next time."""
        if sync is not None:
            for sid in sync[0]:
                self._shipped[sid] = False  # equal to no entry
            self._fingerprint = (-1, -1)

    # -- the socket ----------------------------------------------------------

    def request(self, batch_id, sync, cmds) -> None:
        """Send one batch as one frame. It is pickled first, so a value
        the link cannot carry raises ShardError with nothing sent."""
        if not self.alive:
            raise ShardUnavailableError(self.index, "worker process is dead")
        try:
            frame = _frame((batch_id, sync, cmds))
        except Exception as exc:  # PicklingError, TypeError, AttributeError, ...
            self._unship(sync)
            raise ShardError(
                "worker %d: batch cannot be pickled: %r" % (self.index, exc)
            ) from exc
        try:
            self.sock.sendall(frame)
        except OSError as exc:
            self.alive = False
            raise ShardUnavailableError(self.index, "send failed: %s" % exc)
        self._inflight.append(batch_id)

    def collect(self, timeout):
        batch_id = self._inflight.pop(0)
        if timeout != self._timeout:
            self.sock.settimeout(timeout)
            self._timeout = timeout
        try:
            reply_id, ok, payload = self._frames.read(self.sock)
        except TimeoutError:
            self.alive = False
            raise ShardUnavailableError(
                self.index, "no reply within %.1fs" % timeout
            )
        except (EOFError, OSError) as exc:
            self.alive = False
            raise ShardUnavailableError(self.index, "worker died: %s" % exc)
        if reply_id != batch_id:
            self.alive = False
            raise ShardUnavailableError(
                self.index, "protocol desync (%r != %r)" % (reply_id, batch_id)
            )
        if not ok:
            kind, detail = payload
            if kind == "gc":
                raise GarbageCollectedError(detail)
            raise ShardError("worker %d: %s" % (self.index, detail))
        return payload

    def shutdown(self, timeout=2.0) -> bool:
        """Stop the worker; True when a live one had to be force-killed.

        Half-closing the socket is the stop signal: the worker answers
        what it has already read, then reads end of stream and exits.
        A link already found dead cannot carry it: its worker is killed
        at once, with no grace to wait out.
        """
        process = self.process
        was_alive = process.poll() is None
        graceful = False
        if self.alive:
            try:
                self.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            graceful = _reaped(process, timeout)
            if not graceful:
                process.terminate()
                _reaped(process, 1.0)
        if process.poll() is None:
            process.kill()
            _reaped(process, 1.0)
        self.sock.close()
        self.alive = False
        return was_alive and not graceful

    def kill(self) -> None:
        """Hard-kill the worker (fault injection for tests)."""
        self.process.kill()
        _reaped(self.process, 2.0)
        self.alive = False


def _reaped(process, timeout) -> bool:
    """Wait up to ``timeout`` seconds for ``process`` to exit; True if it did."""
    # The coordinator's alone: a worker never loads it.
    import subprocess  # tardis: ignore[import-hygiene]

    try:
        process.wait(timeout)
    except subprocess.TimeoutExpired:
        return False
    return True


def _spawn_worker(index, spec, dag: StateDAG) -> _WorkerHandle:
    """Start one worker process on a fresh link.

    The worker is its own program (:data:`_BOOT`), not a fork of the
    coordinator and not ``multiprocessing``'s spawn, which re-runs the
    coordinator's main module in the child and imports the whole
    package there: it starts with the coordinator's interpreter flags
    (``-X dev`` and ``-W`` options reach it), without ``site``, with
    stdin on ``/dev/null``, and of the coordinator's descriptors it
    holds only stdout, stderr and its own end of the link.
    """
    import subprocess  # tardis: ignore[import-hygiene]

    ours, theirs = socket.socketpair()
    fd = theirs.fileno()
    boot = _BOOT % {"root": _PACKAGE_ROOT, "fd": fd, "spec": spec}
    try:
        process = subprocess.Popen(
            [sys.executable, *subprocess._args_from_interpreter_flags(), "-S", "-c", boot],
            stdin=subprocess.DEVNULL,
            pass_fds=(fd,),
        )
    except BaseException:
        ours.close()
        raise
    finally:
        theirs.close()
    return _WorkerHandle(index, spec["shards"], process, ours, dag)


class ShardedRecordStore:
    """N record shards behind the VersionedRecordStore interface.

    ``n_workers=0`` keeps every shard in-process behind one inline
    link; ``n_workers=W`` spreads them over W worker processes. Either
    way all consistency decisions (read-state selection, commit
    rippling, branching, merging, GC marking) stay with the transaction
    manager that owns ``dag``; only record reads, writes and pruning
    fan out. Per-shard access counts (``accesses``) are mirrored by the
    owning store as the ``tardis_shard_access_total`` metric (one
    ``@s<i>`` series per shard) so the data distribution is observable.

    Every method runs under the owning TardisStore's lock, which
    ``python -X dev`` checks (``_LockGuard``); links are
    single-owner, so there is no coordinator-side concurrency to manage
    beyond that.
    """

    def __init__(
        self,
        dag: StateDAG,
        n_shards: int = 4,
        n_workers: int = 0,
        shard_of=None,
    ):
        if n_shards < 1 or n_workers < 0:
            raise ValueError("need at least one shard")
        if n_workers > n_shards:
            raise ValueError(
                "%d workers for %d shards: a worker must own at least one shard"
                % (n_workers, n_shards)
            )
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.router = ShardRouter(n_shards, shard_of=shard_of)
        #: per-shard operation counters (reads + writes), for balance
        #: inspection and the simulation's shard-RPC accounting.
        self.accesses: List[int] = [0] * n_shards
        #: running cost-model and cache counts summed from the shards'
        #: read replies, as the flat store keeps them
        #: (``VersionedRecordStore``).
        self.scanned = 0
        self.vis_hits = 0
        self.vis_misses = 0
        self.vis_invalidations = 0
        self._batch_ids = itertools.count(1)
        n_links = max(n_workers, 1)
        specs = [
            {"shards": [s for s in range(n_shards) if s % n_links == index]}
            for index in range(n_links)
        ]
        make_link = _spawn_worker if n_workers else _InlineLink
        self._links: List[Any] = [
            make_link(index, spec, dag) for index, spec in enumerate(specs)
        ]
        self._closed = False
        self.leaked_workers = 0

    # -- routing and the one scatter/gather --------------------------------

    def shard_index(self, key: Any) -> int:
        return self.router.shard_of(key)

    def _note_access(self, index: int, count: int = 1) -> None:
        self.accesses[index] += count

    def _gather(
        self, batches: Dict[int, List[tuple]], extra=None
    ) -> Dict[int, List[Any]]:
        """Send one command batch per link, then collect every reply.

        ``batches`` maps link index to its commands; the result maps it
        to their results. Sends go out in ascending link order before
        any reply is awaited, so workers run their batches in parallel.

        The drain rule: every batch is attempted and every link that
        was sent to is collected *before* the first failure propagates.
        A link's ``collect`` returns its oldest outstanding reply, so a
        reply abandoned here (because another link failed first) would
        be returned to the next, unrelated request on that link.
        """
        sent, replies, failure = [], {}, None
        for index in sorted(batches):
            link = self._links[index]
            try:
                link.request(
                    next(self._batch_ids), link.sync_for(extra), batches[index]
                )
                sent.append(link)
            except ShardError as exc:
                failure = failure or exc
        for link in sent:
            try:
                replies[link.index] = link.collect(WORKER_TIMEOUT)
            except TardisError as exc:
                failure = failure or exc
        if isinstance(failure, GarbageCollectedError):
            raise GarbageCollectedError(_state_id(failure.state_id)) from failure
        if failure is not None:
            raise failure
        return replies

    def _on_shards(self, cmds: List[tuple], extra=None) -> List[Any]:
        """Run per-shard commands (``cmd[1]`` is the shard), one batch
        per owning link; results align with ``cmds``."""
        n_links = len(self._links)
        owners = [cmd[1] % n_links for cmd in cmds]
        batches: Dict[int, List[tuple]] = {}
        for owner, cmd in zip(owners, cmds):
            batches.setdefault(owner, []).append(cmd)
        replies = self._gather(batches, extra)
        if len(replies) == 1:
            return replies[owners[0]]  # one link: already in cmds order
        cursors = {index: iter(results) for index, results in replies.items()}
        return [next(cursors[owner]) for owner in owners]

    def _call(self, cmd: tuple, extra=None):
        """One command to one shard (``cmd[1]``), synchronously."""
        index = cmd[1] % len(self._links)
        return self._gather({index: [cmd]}, extra)[index][0]

    def _charge(self, reply):
        """Add a read reply's count deltas to the running counts; its result."""
        result, scanned, hits, misses, invalidations = reply
        self.scanned += scanned
        self.vis_hits += hits
        self.vis_misses += misses
        self.vis_invalidations += invalidations
        return result

    # -- VersionedRecordStore interface ------------------------------------
    #
    # Ids go out as plain tuples (``tuple(state.id)``) and come back
    # typed (``_state_id``, ``_typed``).

    def write(self, key: Any, state_id, value: Any) -> None:
        """Single-version install (recovery/replication replay path)."""
        shard = self.shard_index(key)
        self._note_access(shard)
        sid = tuple(state_id)
        self._call(("write", shard, [(key, value)], sid), (sid,))

    def read_visible(self, key, read_state: State, dag: StateDAG):
        shard = self.shard_index(key)
        self._note_access(shard)
        results = self._charge(
            self._call(
                ("read_many", shard, [key], tuple(read_state.id), read_state.path_mask)
            )
        )
        return _typed(results[0])

    def read_visible_many(
        self, keys, read_state: State, dag: StateDAG
    ) -> List[Optional[Tuple[Any, Any]]]:
        """Batched :meth:`read_visible`; results align with ``keys``.

        One scatter/gather: each involved link gets the read batches of
        its shards in one request. Worker processes walk their version
        lists concurrently while the coordinator waits; the in-process
        link gains nothing from batching (same walks, same interpreter).
        """
        keys = list(keys)
        plan = self.router.plan(keys)
        for shard, batch in plan.items():
            self._note_access(shard, len(batch))
        rid, rmask = tuple(read_state.id), read_state.path_mask
        replies = self._on_shards(
            [("read_many", shard, batch, rid, rmask) for shard, batch in plan.items()]
        )
        found: Dict[Any, Any] = {}
        for batch, reply in zip(plan.values(), replies):
            found.update(zip(batch, self._charge(reply)))
        return [_typed(found[key]) for key in keys]

    def read_candidates(self, key, read_states, dag: StateDAG):
        shard = self.shard_index(key)
        self._note_access(shard)
        states = [(tuple(state.id), state.path_mask) for state in read_states]
        result = self._charge(self._call(("read_candidates", shard, key, states)))
        return [_typed(hit) for hit in result]

    # -- commits (driven by the CommitPipeline) ---------------------------

    def prepare_commit(self, writes: Dict[Any, Any]) -> List[Tuple[int, List[Any]]]:
        """The router's plan of a write set; nothing is sent.

        ``[(shard, [(key, value), ...]), ...]`` in ascending shard order.
        """
        return [
            (shard, [(key, writes[key]) for key in batch])
            for shard, batch in self.router.plan(writes).items()
        ]

    def install_commit(self, plan: List[Tuple[int, List[Any]]], state: State) -> None:
        """Write a planned commit under ``state``: one ``write`` per shard,
        batched per link in one scatter.

        Raises :class:`~repro.errors.ShardError` when any link fails; the
        CommitPipeline then removes ``state`` from the DAG, which leaves
        whatever the live shards wrote as orphans.
        """
        for shard, items in plan:
            self._note_access(shard, len(items))
        # One tuple for the write commands and the state's mask row.
        sid = tuple(state.id)
        self._on_shards([("write", shard, items, sid) for shard, items in plan], (sid,))

    # -- maintenance -------------------------------------------------------

    def promote_and_prune(self, dag: StateDAG) -> Tuple[int, int]:
        """Run record promotion on every link (its own walk, §6.3)."""
        promoted = dropped = 0
        batches = {index: [("promote",)] for index in range(len(self._links))}
        for ((p, d),) in self._gather(batches).values():
            promoted += p
            dropped += d
        for link in self._links:
            link.prune_masks()
        if promoted or dropped:
            # Workers bumped their own view epochs inside promote; this
            # bump keeps the coordinator DAG's watermark in step (the
            # flat store does the same after rewriting version lists).
            dag.mark_destructive()
        return promoted, dropped

    def _stats(self) -> List[Dict[str, Any]]:
        """Per-shard ``{records, keys, cache}``: one request per link."""
        return self._on_shards([("stats", s) for s in range(self.n_shards)])

    def cache_info(self):
        """Aggregate visibility-cache stats across all shards."""
        totals = {"size": 0, "hits": 0, "misses": 0, "invalidations": 0}
        for stats in self._stats():
            for field in totals:
                totals[field] += stats["cache"][field]
        return totals

    def balance(self) -> List[int]:
        """Records per shard."""
        return [stats["records"] for stats in self._stats()]

    def num_records(self) -> int:
        return sum(self.balance())

    def num_keys(self) -> int:
        return sum(stats["keys"] for stats in self._stats())

    def num_versions(self, key: Any) -> int:
        shard = self.shard_index(key)
        return self._call(("num_versions", shard, key))

    def versions_of(self, key: Any) -> List:
        shard = self.shard_index(key)
        return [_state_id(sid) for sid in self._call(("versions_of", shard, key))]

    def keys(self) -> Iterator[Any]:
        cmds = [("keys", shard) for shard in range(self.n_shards)]
        for batch in self._on_shards(cmds):
            yield from batch

    def items_at(self, state: State, dag: StateDAG):
        sid = tuple(state.id)
        cmds = [("items_at", shard, sid, state.path_mask) for shard in range(self.n_shards)]
        for reply in self._on_shards(cmds):
            yield from self._charge(reply)

    def record(self, key: Any, state_id, default: Any = None) -> Any:
        shard = self.shard_index(key)
        return self._call(("record", shard, key, tuple(state_id), default))

    # -- lifecycle ---------------------------------------------------------

    def worker_health(self, ping: bool = True) -> List[Dict[str, Any]]:
        """Per-worker liveness and coordinator-side queue depth.

        The cheap live-health probe the obs sampler polls: process
        liveness plus ``queue_depth`` (batches sent, reply not yet
        collected — nonzero only mid scatter/gather). With ``ping=True``
        each idle live worker also answers one ``ping`` round trip,
        timed as ``ping_ms``, so a wedged-but-running process shows up
        dead instead of healthy. Runs under the owning store's lock like
        every other coordinator method; a failed ping marks the handle
        dead but never raises. Empty for the in-process plane.
        """
        out: List[Dict[str, Any]] = []
        for handle in self._links if self.n_workers else ():
            alive = handle.alive and handle.process.poll() is None
            entry: Dict[str, Any] = {
                "worker": handle.index,
                "shards": list(handle.shards),
                "alive": bool(alive),
                "queue_depth": len(handle._inflight),
                "pid": handle.process.pid,
            }
            if ping and alive and not handle._inflight:
                started = time.perf_counter()
                try:
                    handle.request(next(self._batch_ids), None, [("ping",)])
                    handle.collect(PING_TIMEOUT)
                    entry["ping_ms"] = (time.perf_counter() - started) * 1000.0
                except ShardError:
                    entry["alive"] = False
            out.append(entry)
        return out

    def kill_worker(self, worker_index: int) -> None:
        """Fault injection: hard-kill one worker (tests, chaos runs)."""
        self._links[worker_index].kill()

    def close(self) -> int:
        """Stop every worker; returns how many had to be force-killed.

        Idempotent. A worker that exits on the shutdown sentinel within
        its grace period is a clean stop; anything still running after
        that is terminated and counted in ``leaked_workers`` — the
        number the serve report and the CI smoke gate watch.
        """
        if not self._closed:
            self._closed = True
            self.leaked_workers = sum(link.shutdown() for link in self._links)
        return self.leaked_workers


# Compatibility binding, kept only because benchmarks/e2e/tracewrap.py
# imports this name and files under BENCHMARK.json ``paths`` may not be
# edited in the PR that merged the stores; a later benchmark PR drops it.
ProcShardedRecordStore = ShardedRecordStore
