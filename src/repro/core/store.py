"""The TARDiS store: one site's branching transactional key-value store.

Ties together the State DAG (consistency layer), the versioned record
store (storage layer), the garbage collector, and the write-ahead log
(§4, Figure 2). The replicator service lives in
:mod:`repro.replication` and drives ``apply_remote``.

Typical use::

    store = TardisStore("siteA")
    session = store.session("alice")

    with store.begin(session=session) as t:
        t.put("content", "for Banditoni")

    # ... after branches diverged:
    merge = store.begin_merge(session=session)
    for key in merge.find_conflict_writes():
        fork = merge.find_fork_points()[0]
        base = merge.get_for_id(key, fork, default=None)
        merge.put(key, resolve(base, merge.get_all(key)))
    merge.commit()
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, cast

from repro.core.commit import LOCAL, MERGE, REMOTE, CommitPipeline
from repro.core.constraints import (
    AncestorConstraint,
    AnyConstraint,
    Constraint,
    SerializabilityConstraint,
    StateIdConstraint,
)
from repro.core.gc import GarbageCollector, GCStats
from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.core.merge import MergeTransaction
from repro.core.state_dag import State, StateDAG
from repro.core.transaction import (
    ABORTED,
    ACTIVE,
    COMMITTED,
    BaseTransaction,
    OpTrace,
    Transaction,
    TOMBSTONE,
)
from repro.core.versions import VersionedRecordStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Recorder
from repro.errors import (
    BeginError,
    CorruptLogError,
    CrossShardAbort,
    GarbageCollectedError,
    TardisError,
    TransactionAborted,
)
from repro.partitioning.workers import ShardedRecordStore
from repro.storage.wal import WriteAheadLog

#: a log's checkpoint (``recovery.checkpoint_store``) is the file beside
#: it named ``<log>`` + this.
CHECKPOINT_SUFFIX = ".ckpt"


class ClientSession:
    """Per-client context: the anchor for Parent/Ancestor constraints.

    Tracks the state at which the client last committed; ``Ancestor``
    reads any descendant of it (read-my-writes), ``Parent`` reads exactly
    it (§5.1, Table 1). A session registered by ``store.session`` holds
    its anchor and its GC ceiling until ``close_session``; an unregistered
    one (the transient session of a call made without one) holds nothing.
    """

    _GUARDED_BY = {"_active_txns": "external:TardisStore._lock"}

    def __init__(self, store: "TardisStore", name: str) -> None:
        self._store = store
        self.name = name
        self.last_commit_id: StateId = store.dag.root.id
        #: the GC ceiling (§6.3): None until placed. While the session is
        #: registered, the collector reads it with the anchor above.
        self.ceiling: Optional[StateId] = None
        #: transactions begun against this session and still ACTIVE;
        #: ``close_session`` aborts them so a disconnected client cannot
        #: leave read states pinned forever.
        self._active_txns: Set[BaseTransaction] = set()

    def last_commit_state(self) -> State:
        return self._store.dag.resolve(self.last_commit_id)

    def place_ceiling(self) -> None:
        """Promise never to read above the last committed state (§6.3)."""
        self.ceiling = self.last_commit_id

    def __repr__(self) -> str:
        return "<ClientSession %s @ %r>" % (self.name, self.last_commit_id)


class _LockGuard:
    """The store's lock contract, checked at run time.

    Wraps both planes of a store when Python runs in dev mode (``python
    -X dev``): its record store (flat or sharded; the shard links are
    reachable only through it) and its State DAG, which a GC cycle
    splices and ``resolve`` path-compresses while transactions run.
    Every method call and ``len()``/``in`` through the guard raises
    :class:`AssertionError` naming the class and method unless the
    calling thread holds the store lock, so a missing ``with
    store._lock:`` fails a single-threaded test at once instead of
    desyncing a shard link or iterating a dict a writer resizes when two
    threads happen to interleave. Plain attribute reads (the running
    ``scanned``/``vis_hits`` counts, ``n_shards``, ``dag.root``) pass
    through, and so do attribute writes.
    """

    __slots__ = ("_target", "_lock")

    #: constant-time reads of one dict or pure functions, one per line.
    _EXEMPT = frozenset(
        (
            "ShardedRecordStore.shard_index",  # a pure function of the key and the router
            "StateDAG.__len__",  # len() of the state table
            "StateDAG.__contains__",  # two dict lookups (a peer's GC consent asks it)
            "StateDAG.get",  # one dict lookup, no promotion walk
            "StateDAG.promotion_of",  # one dict lookup, no chain compression
        )
    )

    def __init__(self, target: Any, lock: Any) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_lock", lock)

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._target, name)
        owner = type(self._target).__name__
        if not callable(attr) or "%s.%s" % (owner, name) in self._EXEMPT:
            return attr
        lock = self._lock

        def guarded(*args: Any, **kwargs: Any) -> Any:
            # An explicit raise: ``python -O`` strips assert statements.
            if not lock._is_owned():
                raise AssertionError(
                    "%s.%s called without TardisStore._lock" % (owner, name)
                )
            return attr(*args, **kwargs)

        return guarded

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self._target, name, value)

    # Operators are looked up on the type, never through __getattr__.
    def __len__(self) -> int:
        return int(self.__getattr__("__len__")())

    def __contains__(self, item: Any) -> bool:
        return bool(self.__getattr__("__contains__")(item))


class StoreMetrics:
    """Lifetime counters for one store."""

    __slots__ = (
        "commits",
        "read_only_commits",
        "aborts",
        "forks",
        "merges",
        "remote_applied",
    )

    def __init__(self) -> None:
        self.commits = 0
        self.read_only_commits = 0
        self.aborts = 0
        self.forks = 0
        self.merges = 0
        self.remote_applied = 0


class TardisStore:
    """One site of the TARDiS transactional key-value store.

    With ``wal_path`` every commit is logged (§6.5). What a commit that
    has returned survives depends on the log's level:

    * ``wal_sync=True`` ("os"): the record reaches the OS page cache
      before the commit returns. It survives ``kill -9``, not a power
      loss: fsync runs only on ``wal.flush()``/``close()``.
    * ``wal_sync=False, group_commit=N``: acknowledged before durable.
      Every Nth commit writes and fsyncs the batch, so a crash loses up
      to N-1 acknowledged commits.
    * ``wal_sync=False, group_commit=0``: nothing is written before
      ``wal.flush()``/``close()``; a crash loses every commit since.

    Opening a log is recovering it: the store first loads the log's
    checkpoint (``<wal_path>.ckpt``, if one exists) and grafts every
    record the log holds, then appends after them, its state ids
    continuing past the replayed ones. ``recovery`` holds the replay's
    report. A log the replay would cut (a gap, or a compacted log whose
    checkpoint is gone) raises :class:`~repro.errors.CorruptLogError`
    with the file untouched: new commits after a gap would be dropped
    by the next recovery. ``recover_store`` reads such a log.
    """

    _GUARDED_BY = {
        "_sessions": "self._lock",
        "_session_counter": "self._lock",
    }

    #: the paper's defaults (§5.1): Ancestor begin, Serializability end.
    default_begin: Constraint = AncestorConstraint()
    default_end: Constraint = SerializabilityConstraint()

    def __init__(
        self,
        site: str,
        wal_path: Optional[str] = None,
        wal_sync: bool = True,
        group_commit: int = 0,
        shards: Optional[int] = None,
        shard_workers: Optional[int] = None,
        shard_of: Any = None,
    ) -> None:
        self.site = site
        # First: opening a log can raise (corruption before its tail),
        # and nothing else is started yet.
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(wal_path, sync=wal_sync) if wal_path else None
        )
        self.dag = StateDAG(site)
        #: the storage layer: one flat record store by default; a
        #: ``shards`` and/or ``shard_workers`` count partitions it
        #: behind the same interface (in-process shards, or shards in
        #: worker processes).
        n_workers = shard_workers or 0
        self._sharded = shards is not None or n_workers > 0
        if self._sharded:
            self.versions: Any = ShardedRecordStore(
                self.dag,
                n_shards=n_workers if shards is None else shards,
                n_workers=n_workers,
                shard_of=shard_of,
            )
        else:
            self.versions = VersionedRecordStore()
        #: workers the storage layer failed to stop cleanly (set by
        #: ``close``; always 0 for in-process storage).
        self.leaked_workers: int = 0
        self.metrics = StoreMetrics()
        self._lock = threading.RLock()
        self._sessions: Dict[str, ClientSession] = {}
        self._session_counter = 0
        #: this store's metrics, off until a reader turns them on. The
        #: store, its pipeline, collector and merges, and a replicator
        #: or speculation executor built on it record here; the counts
        #: the layers below keep natively are mirrored on read.
        registry = self.registry = MetricsRegistry(enabled=False)
        registry.collect = self._mirror_counts
        #: per-transaction handles: a name lookup per call is
        #: measurable at transaction rates.
        self._begins = registry.counter("tardis_txn_begin_total")
        self._begin_visits = registry.histogram("tardis_begin_visits")
        self._readonly_commits = registry.counter("tardis_txn_commit_readonly_total")
        self._aborts = registry.counter("tardis_txn_abort_total")
        self._ripple_steps = registry.histogram("tardis_commit_ripple_steps")
        self._forks = registry.counter("tardis_branch_fork_total")
        #: the single commit code path: DAG install, version insert,
        #: WAL append (with optional group-commit batching), metrics.
        #: The log is attached once it has been replayed.
        self.pipeline = CommitPipeline(
            self.dag,
            self.versions,
            registry,
            sharded=self._sharded,
            group_commit=group_commit,
        )
        if sys.flags.dev_mode:
            self._guard_lock()
        self.gc = GarbageCollector(self)
        #: listeners notified of each local commit (the replicator hooks in).
        self._commit_listeners: List = []
        #: every row about this store goes here: its branch rows (while
        #: ``recorder.enabled``) and a server's rows.
        self.recorder = Recorder()
        #: what the replay of a log found (checkpoint states, replayed,
        #: discarded); None when no log was replayed into this store.
        self.recovery: Optional[Dict[str, int]] = None
        if self.wal is not None:
            try:
                discarded = self._replay(self.wal.path)["discarded"]
                if discarded:
                    raise CorruptLogError(
                        "%s: replay would discard %d records (a gap, or"
                        " a compacted log without its checkpoint)"
                        % (self.wal.path, discarded)
                    )
            except BaseException:
                self.close()
                raise
            self.pipeline.wal = self.wal

    def _replay(self, wal_path: str) -> Dict[str, int]:
        """Load ``<wal_path>.ckpt`` if it exists, then graft ``wal_path``.

        The one replay (§6.5): ``__init__`` runs it before it attaches
        its log, so nothing replayed is logged again; ``recover_store``
        runs it on a store without a log. A record whose parents are not
        all present cuts the log: it and every later record are
        discarded, not grafted. Sets and returns ``recovery``.
        """
        report = {"checkpoint_states": 0, "replayed": 0, "discarded": 0}
        snapshot_path = wal_path + CHECKPOINT_SUFFIX
        dag = self.dag
        cut = False
        with self._lock:
            if os.path.exists(snapshot_path):
                report["checkpoint_states"] = self._load_checkpoint(snapshot_path)
            for record in WriteAheadLog.read(wal_path):
                if cut:
                    report["discarded"] += 1
                    continue
                if record.state_id in dag:
                    continue  # already in the checkpoint
                if not all(pid in dag for pid in record.parent_ids):
                    # Atomicity: a state this transaction builds on never
                    # became durable; discard it and every later state.
                    cut = True
                    report["discarded"] += 1
                    continue
                self._graft(record)
                report["replayed"] += 1
        self.recovery = report
        return report

    def _load_checkpoint(self, snapshot_path: str) -> int:
        """Install a ``checkpoint_store`` snapshot; returns its state count.

        ``_replay`` calls it holding the store lock.
        """
        with open(snapshot_path, "rb") as handle:
            payload = pickle.load(handle)
        dag = self.dag
        for entry in payload["states"]:
            if entry["id"] == dag.root.id:
                continue
            # A snapshot taken after garbage collection may start from a
            # state whose original ancestors (including the root) were
            # compressed away; anchor it at the fresh store's root.
            parents = [dag.resolve(pid) for pid in entry["parents"]] or [dag.root]
            dag.create_state(
                parents, write_keys=frozenset(entry["write_keys"]), state_id=entry["id"]
            )
        for key, sid, value in payload["records"]:
            self.versions.write(key, sid, value)
        dag.add_promotions(payload["promotions"])
        return len(payload["states"])

    def _guard_lock(self) -> None:
        """Route every record-store and DAG call through a lock check.

        ``__init__`` calls it in dev mode only, so the hot path is
        untouched otherwise (docs/internals.md §11.2). The pipeline gets
        both wrappers, and every later transaction the guarded DAG
        through ``self.dag``. A sharded record store keeps the raw DAG:
        it is reachable only through its own guard. Idempotent.
        """
        if not isinstance(self.versions, _LockGuard):
            self.versions = _LockGuard(self.versions, self._lock)
            self.dag = cast(StateDAG, _LockGuard(self.dag, self._lock))
            self.pipeline.versions = self.versions
            self.pipeline.dag = self.dag

    def _mirror_counts(self) -> None:
        """The registry's ``collect`` hook: mirror the counts the layers
        below keep natively, each once it is nonzero (as a pushed count
        appears on its first event). Either record store keeps the cache
        counts (a sharded one sums its shards' read replies, so reading
        them sends no link message); a sharded one also mirrors its
        per-shard accesses."""
        registry, versions, dag = self.registry, self.versions, self.dag
        with self._lock:
            if self._sharded and any(versions.accesses):
                for i, n in enumerate(versions.accesses):
                    registry.counter("tardis_shard_access_total@s%d" % i).mirror(n)
            if versions.vis_hits or versions.vis_misses or versions.vis_invalidations:
                registry.counter("tardis_vis_cache_hit_total").mirror(versions.vis_hits)
                registry.counter("tardis_vis_cache_miss_total").mirror(versions.vis_misses)
                registry.counter("tardis_vis_cache_invalidations_total").mirror(
                    versions.vis_invalidations
                )
            if dag.retro_updates:
                registry.counter("tardis_dag_retro_updates_total").mirror(dag.retro_updates)
            if dag.splices:
                registry.counter("tardis_dag_splice_total").mirror(dag.splices)
            if self.recorder.dropped:
                registry.counter("tardis_trace_dropped_total").mirror(self.recorder.dropped)

    # -- sessions -----------------------------------------------------------

    def session(self, name: Optional[str] = None) -> ClientSession:
        # The whole lookup-or-create runs under the store lock:
        # auto-naming increments a shared counter, and two threads
        # racing on the same explicit name must get one session object.
        with self._lock:
            if name is None:
                self._session_counter += 1
                name = "client-%d" % self._session_counter
            existing = self._sessions.get(name)
            if existing is not None:
                return existing
            sess = ClientSession(self, name)
            self._sessions[name] = sess
            return sess

    def sessions(self) -> List[ClientSession]:
        return list(self._sessions.values())

    def close_session(self, name: str) -> bool:
        """Forget a client session: its anchor, its ceiling and the
        promotion-table entries they held go with its one table entry.

        An inactive session's old ceiling would otherwise pin the entire
        DAG above it forever (ceilings are intersected across clients,
        §6.3).

        Idempotent: closing an unknown or already-closed session is a
        no-op, so the network server's disconnect cleanup can race a
        polite client-side close without crashing. Any transaction still
        ACTIVE on the session is aborted first (releasing its read-state
        pins). Returns True when a live session was actually closed.
        """
        with self._lock:
            sess = self._sessions.pop(name, None)
            if sess is not None:
                for txn in list(sess._active_txns):
                    if txn.status == ACTIVE:
                        self._finish(txn, ABORTED)
                sess._active_txns.clear()
        return sess is not None

    # -- transaction lifecycle -------------------------------------------------

    def begin(
        self,
        begin_constraint: Optional[Constraint] = None,
        session: Optional[ClientSession] = None,
        read_only: bool = False,
    ) -> Transaction:
        """Start a single-mode transaction (§6.1.1).

        Selects the most recent unmarked state satisfying the begin
        constraint by BFS from the leaves up; raises
        :class:`~repro.errors.BeginError` when no state qualifies.
        """
        constraint = begin_constraint or self.default_begin
        if not constraint.can_begin:
            raise BeginError("%s cannot be used as a begin constraint" % constraint.name)
        with self._lock:
            # Under the lock: a cycle must not drop the root it anchors at.
            # Unregistered, the transient session constrains no GC.
            session = session or ClientSession(self, "(transient)")
            # The fresh transaction (no reads, no writes) is what the
            # constraint is evaluated against.
            txn = Transaction(self, session, constraint, read_only)
            state, visits = self.dag.find_read_state(
                lambda s: constraint.satisfied_as_read_state(s, txn)
            )
            if state is None:
                raise BeginError(
                    "no state satisfies begin constraint %s" % constraint.name
                )
            txn.read_state = state
            txn.trace.begin_visits = visits
            state.pins += 1
            session._active_txns.add(txn)
        if self.registry.enabled:
            self._begins.inc()
            self._begin_visits.record(visits)
        return txn

    def begin_merge(
        self,
        begin_constraint: Optional[Constraint] = None,
        session: Optional[ClientSession] = None,
        states: Optional[Iterable[StateId]] = None,
    ) -> MergeTransaction:
        """Start a merge transaction over several branches (§6.2).

        By default the read states are all current (unmarked) leaves that
        satisfy the begin constraint — the set of branch heads to be
        reconciled. Pass ``states`` to merge an explicit set instead.
        """
        constraint = begin_constraint or AnyConstraint()
        if not constraint.can_begin:
            raise BeginError("%s cannot be used as a begin constraint" % constraint.name)
        with self._lock:
            session = session or ClientSession(self, "(transient)")
            txn = MergeTransaction(self, session, constraint)
            if states is not None:
                read_states = [self.dag.resolve(sid) for sid in states]
            else:
                read_states = [
                    leaf
                    for leaf in self.dag.leaves()
                    if not leaf.marked and constraint.satisfied_as_read_state(leaf, txn)
                ]
            if not read_states:
                raise BeginError(
                    "no branches satisfy merge begin constraint %s" % constraint.name
                )
            txn.read_states = read_states
            for state in read_states:
                state.pins += 1
            session._active_txns.add(txn)
        return txn

    def _finish(self, txn: BaseTransaction, status: str) -> None:
        # The caller holds the lock (the commit paths, close_session and
        # abort() all take it): the pin decrements and the session's
        # active-set discard must not race a concurrent begin/commit on
        # another connection.
        txn.status = status
        txn.session._active_txns.discard(txn)
        txn._unpin()
        if status == ABORTED and self.registry.enabled:
            self._aborts.inc()

    # -- reads (called by transactions) ------------------------------------------
    #
    # Each read helper runs under the store lock, which keeps two threads
    # from interleaving requests on one shard link. The record store
    # keeps running ``scanned`` / ``vis_hits`` counts, and the helper
    # charges the transaction's trace their growth across its one call
    # (exact, because nothing else reads while the lock is held).

    def _read(self, key: Any, state: State, trace: OpTrace) -> Optional[Tuple[StateId, Any]]:
        """``(version_id, value)`` of ``key`` visible from ``state``, else None."""
        versions = self.versions
        with self._lock:
            scanned = versions.scanned
            hits = versions.vis_hits
            hit = versions.read_visible(key, state, self.dag)
            trace.versions_scanned += versions.scanned - scanned
            trace.vis_hits += versions.vis_hits - hits
        return hit

    def _read_many(
        self, keys: List[Any], state: State, trace: OpTrace
    ) -> List[Optional[Tuple[StateId, Any]]]:
        """Batched ``_read``: one storage call for a whole key batch.

        With shard workers the batch scatters across them and their
        version walks run in parallel; flat and in-process-sharded
        storage just loop.
        """
        versions = self.versions
        with self._lock:
            scanned = versions.scanned
            hits = versions.vis_hits
            found = versions.read_visible_many(keys, state, self.dag)
            trace.versions_scanned += versions.scanned - scanned
            trace.vis_hits += versions.vis_hits - hits
        return found

    def _read_candidates(
        self, key: Any, states: List[State], trace: OpTrace
    ) -> List[Tuple[StateId, Any]]:
        versions = self.versions
        with self._lock:
            scanned = versions.scanned
            hits = versions.vis_hits
            candidates = versions.read_candidates(key, states, self.dag)
            trace.versions_scanned += versions.scanned - scanned
            trace.vis_hits += versions.vis_hits - hits
        return candidates

    def _conflict_writes(self, states: List[State]) -> List[Any]:
        # The caller (``MergeTransaction.find_conflict_writes``) holds the lock.
        forks = self.dag.fork_points_of(states)
        if not forks:
            return []
        fork = forks[0]
        branch_writes = []
        for head in states:
            written: set = set()
            for state in self.dag.states_between(head, fork):
                written |= state.write_keys
            branch_writes.append(written)
        conflicting: set = set()
        for i, left in enumerate(branch_writes):
            for right in branch_writes[i + 1 :]:
                conflicting |= left & right
        return sorted(conflicting, key=repr)

    # -- commit (§6.1.2) -----------------------------------------------------------

    def _commit_single(self, txn: Transaction, end_constraint: Optional[Constraint]) -> StateId:
        constraint = end_constraint or self.default_end
        with self._lock:
            if not txn.writes:
                # Read-only transactions never conflict and are not added
                # to the DAG (§6.1.4); anchor the session at the read
                # state for monotonic reads.
                self.metrics.read_only_commits += 1
                txn.commit_id = txn.read_state.id
                txn.session.last_commit_id = txn.read_state.id
                self._finish(txn, COMMITTED)
                if self.registry.enabled:
                    self._readonly_commits.inc()
                return txn.commit_id
            if not constraint.can_end:
                self._finish(txn, ABORTED)
                self.metrics.aborts += 1
                raise TransactionAborted(
                    "%s cannot be used as an end constraint" % constraint.name
                )
            # Ripple down from the read state (Figure 6).
            current = txn.read_state
            while True:
                follow = None
                for child in current.children:
                    txn.trace.children_checked += 1
                    if constraint.allows_ripple_past(child, txn):
                        follow = child
                        break
                if follow is None:
                    break
                current = follow
                txn.trace.ripple_steps += 1
            if not constraint.allows_commit_at(current, txn):
                self._finish(txn, ABORTED)
                self.metrics.aborts += 1
                if self.recorder.enabled:
                    self.recorder.event("txn", "abort", None, ref="end-constraint")
                raise TransactionAborted(
                    "no commit state satisfies end constraint %s" % constraint.name
                )
            created_fork = bool(current.children)
            try:
                record = self.pipeline.commit([current], txn.writes, origin=LOCAL)
            except TransactionAborted as exc:
                self._pipeline_aborted(txn, exc)
                raise
            txn.trace.created_fork = created_fork
            self.metrics.commits += 1
            if created_fork:
                self.metrics.forks += 1
            txn.commit_id = record.state_id
            txn.session.last_commit_id = record.state_id
            self._finish(txn, COMMITTED)
            if self.registry.enabled:
                self._ripple_steps.record(txn.trace.ripple_steps)
                if created_fork:
                    self._forks.inc()
            rec = self.recorder
            if rec.enabled:
                # Rows name states by *id strings* (== trace ids): a ring
                # entry of atomic values leaves the cyclic GC's tracked
                # set, where resident StateIds never do.
                trace, parent = repr(record.state_id), repr(current.id)
                rec.event("txn", "commit", trace, parent, len(txn.writes))
                if created_fork:
                    # ``parent`` is the fork's DAG parent.
                    rec.event("branch", "fork", trace, parent)
        self._notify_commit(record)
        return record.state_id

    def _commit_merge(self, txn: MergeTransaction, end_constraint: Optional[Constraint]) -> StateId:
        constraint = end_constraint or self.default_end
        with self._lock:
            if constraint.can_end:
                for parent in txn.read_states:
                    if not constraint.allows_commit_at(parent, txn):
                        self._finish(txn, ABORTED)
                        self.metrics.aborts += 1
                        if self.recorder.enabled:
                            self.recorder.event("txn", "abort", None, ref="merge-end-constraint")
                        raise TransactionAborted(
                            "merge parent %r fails end constraint %s"
                            % (parent.id, constraint.name)
                        )
            try:
                record = self.pipeline.commit(txn.read_states, txn.writes, origin=MERGE)
            except TransactionAborted as exc:
                self._pipeline_aborted(txn, exc)
                raise
            self.metrics.commits += 1
            self.metrics.merges += 1
            txn.commit_id = record.state_id
            txn.session.last_commit_id = record.state_id
            self._finish(txn, COMMITTED)
            if self.recorder.enabled:
                first, *others = (repr(p.id) for p in txn.read_states)
                self.recorder.event(
                    "branch", "merge", repr(record.state_id), first, len(txn.writes), tuple(others)
                )
        self._notify_commit(record)
        return record.state_id

    def adopt_merge(self, merge_id: StateId) -> List[str]:
        """Re-anchor every session whose last commit ``merge_id`` subsumes.

        The application-level convergence step after a merge commits:
        without it each client rides its own branch forever and the DAG
        can never be collected. A session whose anchor was collected is
        skipped; it re-anchors on its next commit. Returns the names of
        the sessions moved.
        """
        with self._lock:
            merged = self.dag.resolve(merge_id)
            moved = []
            for session in self._sessions.values():
                try:
                    anchor = session.last_commit_state()
                except GarbageCollectedError:
                    continue
                if self.dag.descendant_check(anchor, merged):
                    session.last_commit_id = merge_id
                    moved.append(session.name)
        return moved

    def _pipeline_aborted(self, txn: BaseTransaction, exc: TransactionAborted) -> None:
        """The pipeline aborted the commit with the DAG unchanged.

        The log cannot encode the write set, or a shard install failed
        (dead or unresponsive worker) and the new state was removed.
        """
        self._finish(txn, ABORTED)
        self.metrics.aborts += 1
        if self.recorder.enabled:
            reason = (
                "shard-unavailable" if isinstance(exc, CrossShardAbort) else "unloggable-writes"
            )
            self.recorder.event("txn", "abort", None, ref=reason)

    # -- replication hooks (§6.4) -----------------------------------------------

    def add_commit_listener(self, listener: Callable[[CommitRecord], None]) -> None:
        """``listener(record)`` is called after each local commit."""
        self._commit_listeners.append(listener)

    def _notify_commit(self, record: CommitRecord) -> None:
        for listener in self._commit_listeners:
            listener(record)

    def apply_remote(self, record: CommitRecord) -> Optional[StateId]:
        """Apply a replicated transaction at its designated state (§6.4).

        The StateID constraint of the paper: the transaction is appended
        exactly under the states named by ``record.parent_ids`` (a
        constant-time presence check replaces dependency tracking).
        Raises :class:`~repro.errors.GarbageCollectedError` / ``KeyError``
        when a parent is missing, in which case the replicator caches the
        transaction for later. Returns None when the state was already
        present (duplicate gossip delivery).
        """
        with self._lock:
            state_id = self._graft(record)
            if state_id is not None:
                self.metrics.remote_applied += 1
        return state_id

    def _graft(self, record: CommitRecord) -> Optional[StateId]:
        """Install ``record`` under its named parents.

        ``apply_remote`` without the replication count: recovery replays
        its log through here (§6.5).
        """
        with self._lock:
            state_id = record.state_id
            if state_id in self.dag:
                return None
            parents = []
            for pid in record.parent_ids:
                if pid not in self.dag:
                    if pid == ROOT_ID:
                        # Every site shares the original empty state; if
                        # local GC flushed it, the current root subsumes
                        # its identity.
                        parents.append(self.dag.root)
                        continue
                    raise KeyError(pid)
                parents.append(self.dag.resolve(pid))
            if not parents:
                # The state was the sender's root (its own ancestors were
                # compressed away): graft it at the local root.
                parents.append(self.dag.root)
            if any(p.id >= state_id for p in parents):
                # Grafting under a promoted parent would break the
                # id-monotonicity invariant that visibility checks rely
                # on; the paper aborts transactions that need states an
                # erroneous ceiling collected (§6.4).
                raise GarbageCollectedError(state_id)
            self.pipeline.commit(
                parents, record.writes, state_id=state_id, origin=REMOTE
            )
        return state_id

    # -- convenience autocommit helpers ----------------------------------------

    def put(self, key: Any, value: Any, session: Optional[ClientSession] = None) -> StateId:
        """Single-write autocommit transaction."""
        txn = self.begin(session=session)
        txn.put(key, value)
        return txn.commit()

    def get(self, key: Any, default: Any = None, session: Optional[ClientSession] = None) -> Any:
        """Single-read autocommit transaction."""
        txn = self.begin(session=session, read_only=True)
        try:
            value = txn.get(key, default=default)
        finally:
            if txn.status == ACTIVE:
                txn.commit()
        return value

    # -- maintenance --------------------------------------------------------------

    def shard_health(self, ping: bool = True) -> Optional[Dict[str, Any]]:
        """Per-shard access totals and worker health; None for flat stores.

        One locked call the live obs sampler polls. In-process shards
        report shard count + access balance; shards in worker processes
        add per-worker liveness, queue depth, and a timed ping round
        trip (see ``ShardedRecordStore.worker_health``) plus the running
        ``leaked_workers`` count — dead workers surface here live, not
        only in the shutdown report.
        """
        if not self._sharded:
            return None
        with self._lock:
            health: Dict[str, Any] = {
                "n_shards": self.versions.n_shards,
                "accesses": list(self.versions.accesses),
            }
            if self.versions.n_workers:
                workers = self.versions.worker_health(ping=ping)
                health["n_workers"] = self.versions.n_workers
                health["workers"] = workers
                health["workers_alive"] = sum(1 for w in workers if w["alive"])
                health["workers_dead"] = [
                    w["worker"] for w in workers if not w["alive"]
                ]
                health["leaked_workers"] = self.leaked_workers
            return health

    def collect_garbage(self, flush_promotions: bool = False) -> GCStats:
        """Run one full garbage-collection cycle (§6.3)."""
        return self.gc.collect(flush_promotions=flush_promotions)

    def close(self) -> None:
        # Under the lock, so a close cannot race a commit on another
        # thread through the log or a shard link.
        with self._lock:
            if self.wal is not None:
                self.wal.close()
            if self._sharded:
                # Shards in worker processes must be stopped; how many
                # failed to exit cleanly is the leak gate.
                self.leaked_workers = self.versions.close()

    def __repr__(self) -> str:
        # No storage calls: with shard workers a record count is a link
        # round trip that needs the store lock and fails once a worker
        # is dead, and a repr must be safe from a log line or debugger.
        text = "<TardisStore site=%s states=%d" % (self.site, len(self.dag))
        if self._sharded:
            text += " shards=%d workers=%d" % (
                self.versions.n_shards,
                self.versions.n_workers,
            )
        return text + ">"


# Re-exported for convenience so applications can do
# ``from repro.core.store import TardisStore, TOMBSTONE``.
__all__ = [
    "TardisStore",
    "ClientSession",
    "StoreMetrics",
    "TOMBSTONE",
    "StateIdConstraint",
    "TardisError",
]
