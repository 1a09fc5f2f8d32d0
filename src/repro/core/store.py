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

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

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
    _NOT_FOUND,
)
from repro.core.versions import VersionedRecordStore
from repro.obs import metrics as _met
from repro.obs.context import stamp
from repro.obs.metrics import MetricsRegistry
from repro.obs import tracing as _trc
from repro.obs.tracing import Tracer
from repro.errors import (
    BeginError,
    CrossShardAbort,
    GarbageCollectedError,
    TardisError,
    TransactionAborted,
)
from repro.partitioning.workers import ShardedRecordStore
from repro.storage.wal import WriteAheadLog


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


class _ConstraintProbe:
    """Minimal transaction-shaped object for evaluating begin constraints
    before the transaction exists."""

    __slots__ = ("session", "dag", "read_keys", "write_keys")

    def __init__(self, session: ClientSession, dag: StateDAG) -> None:
        self.session = session
        self.dag = dag
        self.read_keys: frozenset = frozenset()
        self.write_keys: frozenset = frozenset()


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
        #: the single commit code path: DAG install, version insert,
        #: WAL append (with optional group-commit batching), metrics.
        self.pipeline = CommitPipeline(
            self.dag,
            self.versions,
            wal=self.wal,
            group_commit=group_commit,
        )
        self.gc = GarbageCollector(self)
        #: listeners notified of each local commit (the replicator hooks in).
        self._commit_listeners: List = []
        #: per-store tracer; None falls back to the module default, so a
        #: cluster can give each site its own ring buffer while
        #: single-store code keeps using ``obs.tracing.DEFAULT``. Every
        #: event about this store's states goes through active_tracer().
        self.tracer: Optional[Tracer] = None
        #: per-transaction metric handles, re-resolved when the default
        #: registry changes identity (benchmark harnesses swap it per
        #: run) — the per-call name lookup is measurable at txn rates.
        self._hot_registry: Optional[MetricsRegistry] = None

    def _hot_metrics(self, m: MetricsRegistry) -> None:
        """Resolve the hot-path metric handles against registry ``m``."""
        self._hot_registry = m
        self._hot_begin = m.counter("tardis_txn_begin_total")
        self._hot_begin_visits = m.histogram("tardis_begin_visits")
        self._hot_commit_readonly = m.counter("tardis_txn_commit_readonly_total")
        self._hot_abort = m.counter("tardis_txn_abort_total")
        self._hot_ripple = m.histogram("tardis_commit_ripple_steps")
        self._hot_fork = m.counter("tardis_branch_fork_total")

    def active_tracer(self) -> Tracer:
        """Where this store's events go: its own tracer, else the default."""
        return self.tracer if self.tracer is not None else _trc.DEFAULT

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
            probe = _ConstraintProbe(session, self.dag)
            visits = [0]
            state = self.dag.find_read_state(
                lambda s: constraint.satisfied_as_read_state(s, probe),
                count_visits=visits,
            )
            if state is None:
                raise BeginError(
                    "no state satisfies begin constraint %s" % constraint.name
                )
            txn = Transaction(self, session, state, constraint, read_only=read_only)
            txn.trace.begin_visits = visits[0]
            state.pins += 1
            session._active_txns.add(txn)
        m = _met.DEFAULT
        if m.enabled:
            if self._hot_registry is not m:
                self._hot_metrics(m)
            self._hot_begin.inc()
            self._hot_begin_visits.record(visits[0])
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
            if states is not None:
                read_states = [self.dag.resolve(sid) for sid in states]
            else:
                probe = _ConstraintProbe(session, self.dag)
                read_states = [
                    leaf
                    for leaf in self.dag.leaves()
                    if not leaf.marked and constraint.satisfied_as_read_state(leaf, probe)
                ]
            if not read_states:
                raise BeginError(
                    "no branches satisfy merge begin constraint %s" % constraint.name
                )
            txn = MergeTransaction(self, session, read_states, constraint)
            for state in read_states:
                state.pins += 1
            session._active_txns.add(txn)
        return txn

    def _finish(self, txn: BaseTransaction, status: str) -> None:
        # Reentrant from the commit paths (lock already held); user-level
        # abort() and close_session() enter here cold, so take the lock:
        # the pin decrements and the session's active-set discard must
        # not race a concurrent begin/commit on another connection.
        with self._lock:
            txn.status = status
            txn.session._active_txns.discard(txn)
            for state in _read_states_of(txn):
                if state.pins > 0:
                    state.pins -= 1
        if status == ABORTED:
            m = _met.DEFAULT
            if m.enabled:
                if self._hot_registry is not m:
                    self._hot_metrics(m)
                self._hot_abort.inc()

    # -- reads (called by transactions) ------------------------------------------

    def _read(self, key: Any, state: State, trace: OpTrace) -> Any:
        scanned = [0]
        hits = [0]
        hit = self.versions.read_visible(key, state, self.dag, scanned, hits)
        trace.versions_scanned += scanned[0]
        trace.vis_hits += hits[0]
        if hit is None:
            return _NOT_FOUND
        return hit[1]

    def _read_many(self, keys: List[Any], state: State, trace: OpTrace) -> List[Any]:
        """Batched ``_read``: one storage call for a whole key batch.

        With shard workers the batch scatters across them and their
        version walks run in parallel; flat and in-process-sharded
        storage just loop.
        """
        scanned = [0]
        hits = [0]
        results = self.versions.read_visible_many(
            keys, state, self.dag, scanned, hits
        )
        trace.versions_scanned += scanned[0]
        trace.vis_hits += hits[0]
        return [_NOT_FOUND if hit is None else hit[1] for hit in results]

    def _read_at(self, key: Any, state: State, trace: OpTrace) -> Optional[Tuple[StateId, Any]]:
        scanned = [0]
        hits = [0]
        hit = self.versions.read_visible(key, state, self.dag, scanned, hits)
        trace.versions_scanned += scanned[0]
        trace.vis_hits += hits[0]
        return hit

    def _read_candidates(
        self, key: Any, states: List[State], trace: OpTrace
    ) -> List[Tuple[State, StateId, Any]]:
        scanned = [0]
        hits = [0]
        candidates = self.versions.read_candidates(
            key, states, self.dag, scanned, hits
        )
        trace.versions_scanned += scanned[0]
        trace.vis_hits += hits[0]
        return candidates

    def _conflict_writes(self, states: List[State]) -> List[Any]:
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
                m = _met.DEFAULT
                if m.enabled:
                    if self._hot_registry is not m:
                        self._hot_metrics(m)
                    self._hot_commit_readonly.inc()
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
                t = self.active_tracer()
                if t.enabled:
                    t.event("txn.abort", reason="end-constraint", site=self.site)
                raise TransactionAborted(
                    "no commit state satisfies end constraint %s" % constraint.name
                )
            created_fork = bool(current.children)
            try:
                record = self.pipeline.commit([current], txn.writes, origin=LOCAL)
            except CrossShardAbort:
                # Shard prepare failed (dead/unresponsive worker); the
                # DAG is untouched, so this is a clean typed abort.
                self._finish(txn, ABORTED)
                self.metrics.aborts += 1
                t = self.active_tracer()
                if t.enabled:
                    t.event("txn.abort", reason="shard-unavailable", site=self.site)
                raise
            txn.trace.created_fork = created_fork
            self.metrics.commits += 1
            if created_fork:
                self.metrics.forks += 1
            txn.commit_id = record.state_id
            txn.session.last_commit_id = record.state_id
            self._finish(txn, COMMITTED)
            m = _met.DEFAULT
            if m.enabled:
                if self._hot_registry is not m:
                    self._hot_metrics(m)
                self._hot_ripple.record(txn.trace.ripple_steps)
                if created_fork:
                    self._hot_fork.inc()
            t = self.active_tracer()
            if t.enabled:
                # Events carry state *ids as strings* (== trace ids), so
                # the ring buffer holds only atomic values and stays
                # invisible to the cyclic GC — resident StateId tuples
                # were the dominant tracing cost.
                ids = stamp(record.state_id, current.id)
                t.event(
                    "txn.commit",
                    state=ids["trace"],
                    writes=len(txn.writes),
                    ripple=txn.trace.ripple_steps,
                    fork=created_fork,
                    site=self.site,
                    **ids
                )
                if created_fork:
                    # ``parent`` is the fork's DAG parent: the stamp's.
                    t.event(
                        "branch.fork", state=ids["trace"], site=self.site, **ids
                    )
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
                        t = self.active_tracer()
                        if t.enabled:
                            t.event(
                                "txn.abort", reason="merge-end-constraint", site=self.site
                            )
                        raise TransactionAborted(
                            "merge parent %r fails end constraint %s"
                            % (parent.id, constraint.name)
                        )
            try:
                record = self.pipeline.commit(txn.read_states, txn.writes, origin=MERGE)
            except CrossShardAbort:
                self._finish(txn, ABORTED)
                self.metrics.aborts += 1
                t = self.active_tracer()
                if t.enabled:
                    t.event("txn.abort", reason="shard-unavailable", site=self.site)
                raise
            self.metrics.commits += 1
            self.metrics.merges += 1
            txn.commit_id = record.state_id
            txn.session.last_commit_id = record.state_id
            self._finish(txn, COMMITTED)
            t = self.active_tracer()
            if t.enabled:
                t.event(
                    "branch.merge",
                    state=repr(record.state_id),
                    parents=tuple(repr(p.id) for p in txn.read_states),
                    writes=len(txn.writes),
                    site=self.site,
                    **stamp(record.state_id, txn.read_states[0].id)
                )
        self._notify_commit(record)
        return record.state_id

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
        if self.wal is not None:
            self.wal.close()
        if self._sharded:
            # Shards in worker processes must be stopped; how many
            # failed to exit cleanly is the leak gate.
            self.leaked_workers = self.versions.close()

    def __repr__(self) -> str:
        # No storage calls: with shard workers a record count is a pipe
        # round trip that needs the store lock and fails once a worker
        # is dead, and a repr must be safe from a log line or debugger.
        text = "<TardisStore site=%s states=%d" % (self.site, len(self.dag))
        if self._sharded:
            text += " shards=%d workers=%d" % (
                self.versions.n_shards,
                self.versions.n_workers,
            )
        return text + ">"


def _read_states_of(txn: BaseTransaction) -> List[State]:
    if isinstance(txn, MergeTransaction):
        return txn.read_states
    return [txn.read_state]


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
