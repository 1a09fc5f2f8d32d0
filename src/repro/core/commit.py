"""The unified commit pipeline (§6.1.2, §6.4, §6.5).

Before this module, every commit-shaped operation — a single-mode
commit, a merge commit, and the replicator's ``apply_remote`` — wired
the same sequence by hand: install the new state into the DAG, insert
the written record versions, append to the write-ahead log, bump the
observability counters. :class:`CommitPipeline` owns that sequence as
one code path, parameterized only by the commit's *origin*:

* ``LOCAL`` — an ordinary single-mode commit;
* ``MERGE`` — a merge-mode commit over several parents (§6.2);
* ``REMOTE`` — a transaction grafted at its designated state id: a
  replicated one (§6.4) or a log replay (§6.5).

Each commit becomes one :class:`~repro.core.ids.CommitRecord`, built
here; the log appends it, the store hands it to its commit listeners
(the replicator ships it) and recovery and remote apply take it back.

Constraint evaluation (ripple-down, end checks) stays in the store —
those decide *whether and where* to commit; the pipeline performs the
commit once that decision is made. Being the single choke point also
makes it the natural place for group-commit batching of asynchronous
log appends and, later, fault injection.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

from repro.core.ids import CommitRecord, StateId
from repro.core.state_dag import State, StateDAG
from repro.core.versions import VersionedRecordStore
from repro.errors import CrossShardAbort, ShardError, ShardUnavailableError
from repro.obs import metrics as _met
from repro.partitioning.workers import ShardedRecordStore
from repro.storage.wal import WriteAheadLog

#: commit origins
LOCAL = "local"
MERGE = "merge"
REMOTE = "remote"


class CommitPipeline:
    """One code path for DAG installation, version insertion, WAL, metrics.

    ``group_commit`` enables group-commit batching for an *asynchronous*
    WAL (``sync=False``): buffered log records are written and fsynced
    every ``group_commit`` appends. A commit is acknowledged before it
    is durable: a crash loses up to ``group_commit - 1`` of them. It is
    ignored for a synchronous WAL (every append reaches the OS page
    cache, which survives ``kill -9`` but not a power loss) and when 0
    (nothing is written before an explicit ``flush()``/``close()``, the
    paper's pure asynchronous mode: a crash loses every commit since).
    """

    __slots__ = (
        "dag",
        "versions",
        "staged",
        "wal",
        "group_commit",
        "_unflushed",
        "_hot_registry",
        "_hot_commit",
        "_hot_write_keys",
    )

    def __init__(
        self,
        dag: StateDAG,
        versions: Union[VersionedRecordStore, ShardedRecordStore],
        wal: Optional[WriteAheadLog] = None,
        group_commit: int = 0,
    ) -> None:
        self.dag = dag
        #: a flat VersionedRecordStore, or (``staged``) the routed
        #: ShardedRecordStore with its prepare/install/abandon contract.
        self.versions: Any = versions
        self.staged = isinstance(versions, ShardedRecordStore)
        self.wal = wal
        self.group_commit = int(group_commit)
        self._unflushed = 0
        #: per-commit metric handles, re-resolved when the default
        #: registry changes identity (benchmark harnesses swap it per
        #: run) — the name lookup is measurable at commit rates.
        self._hot_registry = None
        self._hot_commit = None
        self._hot_write_keys = None

    def commit(
        self,
        parents: Sequence[State],
        writes: Dict[Any, Any],
        state_id: Optional[StateId] = None,
        origin: str = LOCAL,
    ) -> CommitRecord:
        """Install one committed transaction and return its record.

        ``state_id`` is given only for ``REMOTE`` commits (the state
        keeps its origin-site id, §6.4). The caller holds the store lock
        and has already settled all constraint questions.

        Against a sharded storage layer the pipeline runs the shard
        commit protocol: the write set is *prepared* (planned into
        per-shard batches, target workers validated and — for
        multi-shard commits — staged, in ascending shard order) before
        the DAG state exists, so a dead worker aborts the transaction
        with a typed :class:`~repro.errors.CrossShardAbort` instead of
        leaving a committed-looking state whose writes were lost.
        """
        versions = self.versions
        staged: Optional[Any] = None
        if self.staged and writes:
            try:
                staged = versions.prepare_commit(writes)
            except ShardError as exc:
                self._observe_shard_abort()
                shard = exc.shard if isinstance(exc, ShardUnavailableError) else None
                raise CrossShardAbort(
                    shard, "shard prepare failed: %s" % exc
                ) from exc
        try:
            state = self.dag.create_state(
                parents, write_keys=frozenset(writes), state_id=state_id
            )
        except Exception:
            if staged is not None:
                versions.abandon_commit(staged)
            raise
        if staged is not None:
            versions.install_commit(staged, state)
        else:
            for key, value in writes.items():
                versions.write(key, state.id, value)
        record = CommitRecord(state.id, tuple(p.id for p in state.parents), writes)
        self._append_log(record)
        if origin != REMOTE:
            self._observe(origin, parents, writes)
        if staged is not None and staged.n_shards > 1:
            m = _met.DEFAULT
            if m.enabled:
                m.inc("tardis_commit_cross_shard_total")
        return record

    def _observe_shard_abort(self) -> None:
        m = _met.DEFAULT
        if m.enabled:
            m.inc("tardis_commit_shard_abort_total")

    # -- write-ahead logging (§6.5) ----------------------------------------

    def _append_log(self, record: CommitRecord) -> None:
        wal = self.wal
        if wal is None:
            return
        wal.append_commit(record)
        if self.group_commit > 1 and not wal.sync:
            self._unflushed += 1
            if self._unflushed >= self.group_commit:
                wal.flush()
                self._unflushed = 0
                m = _met.DEFAULT
                if m.enabled:
                    m.inc("tardis_wal_group_flush_total")

    # -- observability -----------------------------------------------------

    def _observe(
        self, origin: str, parents: Sequence[State], writes: Dict[Any, Any]
    ) -> None:
        m = _met.DEFAULT
        if not m.enabled:
            return
        if self._hot_registry is not m:
            self._hot_registry = m
            self._hot_commit = m.counter("tardis_txn_commit_total")
            self._hot_write_keys = m.histogram("tardis_txn_write_keys")
        self._hot_commit.inc()
        self._hot_write_keys.record(len(writes))
        if origin == MERGE:
            m.inc("tardis_branch_merge_total")
            m.observe("tardis_merge_parents", len(parents))
