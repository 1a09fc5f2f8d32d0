"""Uniform operation-level adapters over TARDiS and the baselines.

The simulation drives every system through the same five calls —
``begin`` / ``read`` / ``write`` / ``commit`` / ``abort`` — each
returning an :class:`OpResult` with:

* ``status`` — ``"ok"``, ``"wait"`` (2PL lock queued; resume on wakeup
  and retry the operation), or ``"abort"`` (deadlock victim, OCC
  validation failure, or a TARDiS end-constraint abort; the transaction
  is already cleaned up and the client retries from ``begin``);
* ``cost`` — simulated service time, computed from the work the real
  data structures performed on this call;
* ``wakeups`` — opaque wait tokens whose owners became runnable (lock
  handoffs at commit/abort).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.occ import _MISSING as _OCC_MISSING
from repro.baselines.occ import OCCStore
from repro.baselines.seqstore import _MISSING as _LOCK_MISSING
from repro.baselines.seqstore import TwoPhaseLockingStore
from repro.core.constraints import (
    AncestorConstraint,
    Constraint,
    NoBranchingConstraint,
    SerializabilityConstraint,
)
from repro.core.ids import ROOT_ID
from repro.core.store import TardisStore
from repro.core.transaction import Transaction
from repro.errors import (
    DeadlockError,
    TransactionAborted,
    ValidationError,
)
from repro.obs.series import dag_extent
from repro.sim.costs import CostModel


@dataclass
class OpResult:
    status: str  # "ok" | "wait" | "abort"
    value: Any = None
    cost: float = 0.0
    token: Any = None              # wait token when status == "wait"
    wakeups: Tuple[Any, ...] = ()  # wait tokens granted by this call
    reason: str = ""
    #: portion of ``cost`` that must execute on the adapter's *serial*
    #: resource (e.g. the OCC validation critical section) before the
    #: rest runs on the shared core pool.
    serial: float = 0.0


class SystemAdapter:
    """Base adapter; subclasses wrap one store instance, ``store``, whose
    ``registry`` the runner turns on and reads."""

    name = "base"
    store: Any

    def __init__(self, costs: Optional[CostModel] = None):
        self.costs = costs or CostModel()

    def preload(self, items: Dict[Any, Any]) -> None:
        raise NotImplementedError

    def begin(self, client_id: str, read_only: bool = False) -> Tuple[Any, float]:
        raise NotImplementedError

    def read(self, txn: Any, key: Any) -> OpResult:
        raise NotImplementedError

    def write(self, txn: Any, key: Any, value: Any) -> OpResult:
        raise NotImplementedError

    def commit_request(self, txn: Any) -> Optional[OpResult]:
        """Optional commit pre-phase, paid *before* effects apply.

        The simulated time of this phase elapses while the transaction
        is still live: 2PL holds its locks through it (write application
        and logging happen under locks) and OCC waits in line for the
        validation critical section, so the conflict window other
        transactions see has the right length. ``commit`` then applies
        the effects at the correct simulated time.
        """
        return None

    def commit(self, txn: Any) -> OpResult:
        raise NotImplementedError

    def pressure(self) -> float:
        """Service-time multiplier from memory pressure (Fig 13)."""
        return 1.0

    def close(self) -> None:
        """Release adapter resources (worker processes, WAL handles)."""

    def maintenance(self) -> float:
        """Periodic background work (merging, GC); returns its cost."""
        return 0.0

    def stats(self) -> Dict[str, Any]:
        return {}


class TardisAdapter(SystemAdapter):
    """TARDiS under the simulation.

    ``branching=True`` runs the paper's branch-on-conflict configuration
    (Ancestor begin, Serializability end); ``branching=False`` adds the
    NoBranching end constraint, mimicking sequential storage (§7.1.2).
    Periodic ``maintenance()`` merges divergent branches with a
    last-writer-wins resolution (the microbenchmark policy), places
    ceilings, and garbage collects.
    """

    name = "tardis"

    def __init__(
        self,
        store: Optional[TardisStore] = None,
        begin_constraint: Optional[Constraint] = None,
        end_constraint: Optional[Constraint] = None,
        branching: bool = True,
        gc_enabled: bool = True,
        pressure_per_item: float = 0.0,
        pressure_threshold: int = 50_000,
        costs: Optional[CostModel] = None,
        merge_resolver=None,
    ):
        super().__init__(costs)
        self.store = store if store is not None else TardisStore("sim")
        self.begin_constraint = begin_constraint or AncestorConstraint()
        if end_constraint is not None:
            self.end_constraint = end_constraint
        elif branching:
            self.end_constraint = SerializabilityConstraint()
        else:
            self.end_constraint = (
                SerializabilityConstraint() & NoBranchingConstraint()
            )
        self.gc_enabled = gc_enabled
        self.pressure_per_item = pressure_per_item
        self.pressure_threshold = pressure_threshold
        #: ``merge_resolver(merge_txn, conflicting_keys)`` writes the
        #: reconciled values; defaults to last-writer-wins by version id
        #: (the microbenchmark policy). Applications install their own
        #: (e.g. Retwis merges timelines, §7.2.2).
        self.merge_resolver = merge_resolver
        self.merges_run = 0
        self._merge_session = self.store.session("merger")
        #: sessions that ran client transactions; only these place
        #: GC ceilings (system sessions like the merger would otherwise
        #: pin the DAG whenever they go idle).
        self._client_sessions: set = set()

    def preload(self, items: Dict[Any, Any]) -> None:
        txn = self.store.begin(session=self.store.session("preload"))
        for key, value in items.items():
            txn.put(key, value)
        txn.commit()
        # An inert session would pin the DAG above its anchor forever.
        self.store.close_session("preload")

    def begin(self, client_id: str, read_only: bool = False) -> Tuple[Any, float]:
        session = self.store.session(client_id)
        self._client_sessions.add(client_id)
        txn = self.store.begin(
            self.begin_constraint, session=session, read_only=read_only
        )
        cost = (
            self.costs.txn_overhead
            + self.costs.begin_base
            + txn.trace.begin_visits * self.costs.dag_visit
        )
        return txn, cost

    def read(self, txn: Transaction, key: Any) -> OpResult:
        trace = txn.trace
        before_scanned = trace.versions_scanned
        before_hits = trace.vis_hits
        value = txn.get(key, default=None)
        if trace.vis_hits != before_hits:
            # Visibility-cache hit: no version walk, no B-tree access —
            # the cached (state_id, value) pair answers the read.
            cost = self.costs.kvm_lookup + self.costs.cache_probe
        else:
            scanned = trace.versions_scanned - before_scanned
            cost = (
                self.costs.kvm_lookup
                + scanned * self.costs.version_check
                + self.costs.btree_access
            )
        return OpResult("ok", value=value, cost=cost)

    def write(self, txn: Transaction, key: Any, value: Any) -> OpResult:
        txn.put(key, value)
        return OpResult(
            "ok", cost=self.costs.write_insert + self.costs.btree_access
        )

    def commit(self, txn: Transaction) -> OpResult:
        try:
            txn.commit(self.end_constraint)
        except TransactionAborted as exc:
            cost = (
                self.costs.commit_base
                + txn.trace.children_checked * self.costs.ripple_check
            )
            return OpResult("abort", cost=cost, reason=str(exc))
        cost = (
            self.costs.commit_base
            + txn.trace.children_checked * self.costs.ripple_check
            + (self.costs.log_append if txn.writes else 0.0)
            + (self.costs.fork_overhead if txn.trace.created_fork else 0.0)
        )
        return OpResult("ok", cost=cost)

    def pressure(self) -> float:
        if not self.pressure_per_item:
            return 1.0
        with self.store._lock:
            live = len(self.store.dag) + self.store.versions.num_records()
        over = max(0, live - self.pressure_threshold)
        return 1.0 + self.pressure_per_item * over

    def maintenance(self) -> float:
        """Merge all divergent branches (last-writer-wins), then GC."""
        cost = 0.0
        with self.store._lock:
            branched = len(self.store.dag.leaves()) > 1
        if branched:
            cost += self.merge_all_lww()
        if self.gc_enabled:
            for session in self.store.sessions():
                # Only active client sessions place ceilings. A session
                # that never committed still carries the original root as
                # its anchor (compare against the constant — the DAG's
                # current root moves as compression promotes it), and
                # system sessions like the merger go idle at stale
                # anchors; either would pin the whole DAG forever.
                if (
                    session.name in self._client_sessions
                    and session.last_commit_id != ROOT_ID
                ):
                    session.place_ceiling()
            stats = self.store.collect_garbage()
            cost += 0.001 * (stats.states_removed + stats.records_dropped)
        return cost

    def close(self) -> None:
        """Tear down the store (reaps shard workers, if any)."""
        self.store.close()

    def merge_all_lww(self) -> float:
        """One merge transaction resolving every conflict newest-id-wins."""
        merge = self.store.begin_merge(session=self._merge_session)
        cost = self.costs.merge_base
        if len(merge.read_states) < 2:
            merge.abort()
            return 0.0
        conflicts = merge.find_conflict_writes()
        cost += len(conflicts) * self.costs.fork_point_query
        if self.merge_resolver is not None:
            self.merge_resolver(merge, conflicts)
            cost += len(conflicts) * (
                self.costs.kvm_lookup
                + self.costs.btree_access
                + self.costs.write_insert
            )
        else:
            for key in conflicts:
                candidates = self.store._read_candidates(
                    key, merge.read_states, merge.trace
                )
                if candidates:
                    newest = max(candidates, key=lambda pair: pair[0])
                    merge.put(key, newest[1])
                cost += (
                    self.costs.kvm_lookup
                    + self.costs.btree_access
                    + self.costs.write_insert
                )
        try:
            merge_id = merge.commit()
            self.merges_run += 1
            cost += self.costs.commit_base + self.costs.log_append
        except TransactionAborted:  # pragma: no cover - LWW merge is Any/Ser safe
            return cost
        self.store.adopt_merge(merge_id)
        return cost

    def stats(self) -> Dict[str, Any]:
        store = self.store
        with store._lock:
            _width, depth = dag_extent(store.dag)
            return {
                "states": len(store.dag),
                "records": store.versions.num_records(),
                "forks": store.metrics.forks,
                "merges": self.merges_run,
                "aborts": store.metrics.aborts,
                "leaves": len(store.dag.leaves()),
                "dag_depth": depth,
            }


class TwoPLAdapter(SystemAdapter):
    """The BDB stand-in: strict 2PL, blocking, deadlock aborts."""

    name = "bdb"

    def __init__(
        self,
        store: Optional[TwoPhaseLockingStore] = None,
        costs: Optional[CostModel] = None,
    ):
        super().__init__(costs)
        self.store = store if store is not None else TwoPhaseLockingStore()

    def preload(self, items: Dict[Any, Any]) -> None:
        txn = self.store.begin()
        for key, value in items.items():
            txn.put(key, value)
        txn.commit()

    def begin(self, client_id: str, read_only: bool = False) -> Tuple[Any, float]:
        return self.store.begin(), self.costs.txn_overhead + self.costs.begin_base

    def read(self, txn: Any, key: Any) -> OpResult:
        # A read takes the S lock even when the txn will write the key:
        # the paper's BDB client reads, then upgrades, and its Table 3 put
        # costs and Figure 14d goodput reflect the resulting waits and
        # deadlocks.
        try:
            status, payload = self.store.read(txn, key)
        except DeadlockError:
            wakeups = tuple(self.store.abort(txn))
            return OpResult(
                "abort",
                cost=self.costs.deadlock_abort,
                wakeups=wakeups,
                reason="deadlock",
            )
        if status == "wait":
            # Blocking descends into the lock manager's wait path:
            # enqueue, deschedule, context switch — serialized on the
            # lock-table mutex (the contention cost the paper observes
            # as BDB's get/put times doubling, Table 3).
            wait_cost = self.costs.lock_acquire + self.costs.lock_wait_overhead
            return OpResult(
                "wait",
                cost=wait_cost,
                serial=self.costs.lock_wait_overhead,
                token=payload,
            )
        cost = self.costs.lock_acquire + self.costs.btree_access
        return OpResult(
            "ok", value=None if payload is _LOCK_MISSING else payload, cost=cost
        )

    def write(self, txn: Any, key: Any, value: Any) -> OpResult:
        try:
            status, token = self.store.write(txn, key, value)
        except DeadlockError:
            wakeups = tuple(self.store.abort(txn))
            return OpResult(
                "abort",
                cost=self.costs.deadlock_abort,
                wakeups=wakeups,
                reason="deadlock",
            )
        if status == "wait":
            wait_cost = self.costs.lock_acquire + self.costs.lock_wait_overhead
            return OpResult(
                "wait",
                cost=wait_cost,
                serial=self.costs.lock_wait_overhead,
                token=token,
            )
        return OpResult(
            "ok",
            cost=self.costs.lock_acquire
            + self.costs.btree_access
            + self.costs.bdb_write_extra,
        )

    def commit_request(self, txn: Any) -> Optional[OpResult]:
        # The log flush happens under locks: this time elapses before
        # the locks are handed over in commit(). (The B-tree/page work
        # itself is charged at the write operation.)
        writes = len(txn.writes)
        if not writes:
            return None
        return OpResult("ok", cost=self.costs.log_append)

    def commit(self, txn: Any) -> OpResult:
        held = len(self.store.locks.held_keys(txn.txn_id))
        wakeups = tuple(self.store.commit(txn))
        cost = self.costs.commit_base + held * self.costs.lock_release
        return OpResult("ok", cost=cost, wakeups=wakeups)

    def stats(self) -> Dict[str, Any]:
        return {
            "deadlocks": self.store.locks.deadlocks,
            "lock_waits": self.store.locks.waits,
            "aborts": self.store.aborts,
        }


class OCCAdapter(SystemAdapter):
    """The paper's modified Kung-Robinson OCC comparator."""

    name = "occ"

    def __init__(
        self,
        store: Optional[OCCStore] = None,
        costs: Optional[CostModel] = None,
    ):
        super().__init__(costs)
        self.store = store if store is not None else OCCStore()

    def preload(self, items: Dict[Any, Any]) -> None:
        txn = self.store.begin()
        for key, value in items.items():
            txn.put(key, value)
        txn.commit()

    def begin(self, client_id: str, read_only: bool = False) -> Tuple[Any, float]:
        return self.store.begin(), self.costs.txn_overhead + self.costs.occ_begin

    def read(self, txn: Any, key: Any) -> OpResult:
        value = self.store.read(txn, key)
        return OpResult(
            "ok",
            value=None if value is _OCC_MISSING else value,
            cost=self.costs.btree_access,
        )

    def write(self, txn: Any, key: Any, value: Any) -> OpResult:
        self.store.write(txn, key, value)
        return OpResult("ok", cost=self.costs.occ_buffer_write)

    def commit_request(self, txn: Any) -> Optional[OpResult]:
        # Enter the validation critical section's queue: the wait
        # happens *before* validation runs, so the transaction's
        # conflict window spans the whole queueing delay, as it does in
        # a real Kung-Robinson implementation.
        pending = sum(
            1 for seq, _ws in self.store._history if seq > txn.start_seq
        )
        est = self.costs.validation_check * (1 + min(pending, 8))
        return OpResult("ok", cost=est, serial=est)

    def commit(self, txn: Any) -> OpResult:
        # Kung-Robinson validation + write installation form a critical
        # section: the `serial` cost component executes on a
        # single-slot resource in the simulation, which is the long
        # validation phase the paper identifies as OCC's bottleneck.
        before = self.store.validation_checks
        try:
            self.store.commit(txn)
        except ValidationError as exc:
            checks = self.store.validation_checks - before
            serial = self.costs.validation_check * (1 + checks)
            return OpResult(
                "abort",
                cost=serial + self.costs.occ_abort,
                serial=serial,
                reason=str(exc),
            )
        # Validation time itself was charged by commit_request (while
        # holding the critical section's queue slot); here only the
        # write installation remains serial.
        serial = len(txn.writes) * self.costs.occ_apply_write
        cost = (
            self.costs.commit_base
            + serial
            + (self.costs.log_append if txn.writes else 0.0)
        )
        return OpResult("ok", cost=cost, serial=serial)

    def stats(self) -> Dict[str, Any]:
        return {
            "validation_failures": self.store.validation_failures,
            "validation_checks": self.store.validation_checks,
            "aborts": self.store.aborts,
        }
