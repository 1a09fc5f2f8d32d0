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

The order is prepare → allocate + encode → install → append → metrics:
a sharded write set is planned per shard first (nothing is sent); the
record's id is allocated and, with a log, its entry encoded
(:func:`~repro.storage.wal.encode_entry`) before anything is installed,
so a write set the log cannot encode aborts the commit with nothing
changed; then the DAG state and the versions are installed, and only
then is the encoded entry appended. A sharded install that fails
removes the state from the DAG again, so the commit aborts whole.

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
from repro.errors import (
    CrossShardAbort,
    ShardError,
    ShardUnavailableError,
    TransactionAborted,
)
from repro.obs.metrics import MetricsRegistry
from repro.partitioning.workers import ShardedRecordStore
from repro.storage.wal import WriteAheadLog, encode_entry

#: commit origins
LOCAL = "local"
MERGE = "merge"
REMOTE = "remote"


class CommitPipeline:
    """One code path for id allocation, log encoding, DAG installation,
    version insertion, log append and metrics, in that order.

    On a sharded store "prepare" only plans the write set per shard; a
    failed install removes the new state from the DAG and aborts.

    ``group_commit`` enables group-commit batching for an *asynchronous*
    WAL (``sync=False``): buffered log entries are written as one frame
    and fsynced every ``group_commit`` appends. A commit is acknowledged
    before it is durable: a crash loses up to ``group_commit - 1`` of
    them. It is ignored for a synchronous WAL (every append reaches the
    OS page cache, which survives ``kill -9`` but not a power loss) and
    when 0 (nothing is written before an explicit ``flush()``/``close()``,
    the paper's pure asynchronous mode: a crash loses every commit since).
    """

    __slots__ = (
        "dag",
        "versions",
        "sharded",
        "wal",
        "group_commit",
        "_unflushed",
        "registry",
        "_commits",
        "_write_keys",
    )

    def __init__(
        self,
        dag: StateDAG,
        versions: Union[VersionedRecordStore, ShardedRecordStore],
        registry: MetricsRegistry,
        sharded: bool = False,
        wal: Optional[WriteAheadLog] = None,
        group_commit: int = 0,
    ) -> None:
        self.dag = dag
        #: a flat VersionedRecordStore, or (``sharded``) the routed
        #: ShardedRecordStore with its prepare/install contract. Told,
        #: not inferred from the type: in dev mode ``versions`` is the
        #: store's lock guard around either one.
        self.versions: Any = versions
        self.sharded = sharded
        self.wal = wal
        self.group_commit = int(group_commit)
        self._unflushed = 0
        #: the owning store's registry, and the two per-commit handles
        #: (a name lookup per commit is measurable at commit rates).
        self.registry = registry
        self._commits = registry.counter("tardis_txn_commit_total")
        self._write_keys = registry.histogram("tardis_txn_write_keys")

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

        Against a sharded storage layer the write set is *prepared*
        (planned into per-shard batches) before the DAG state exists and
        installed after it, one ``write`` per shard in one scatter. When
        any shard fails, the state is removed from the DAG again
        (:meth:`~repro.core.state_dag.StateDAG.discard_leaf`) and the
        commit raises a typed :class:`~repro.errors.CrossShardAbort`: a
        dead worker never leaves half a commit visible, and the log never
        sees it.

        With a log, the entry is encoded before the state is installed:
        a write set ``pickle`` cannot encode raises
        :class:`~repro.errors.TransactionAborted` with the DAG, the
        versions and the log untouched.
        """
        versions = self.versions
        plan = versions.prepare_commit(writes) if self.sharded and writes else None
        parent_ids = tuple([p.id for p in parents])
        if state_id is None:
            state_id = self.dag.next_id(parent_ids)
        record = CommitRecord(state_id, parent_ids, writes)
        wal = self.wal
        entry = b""
        if wal is not None:
            try:
                entry = encode_entry(record)
            except Exception as exc:
                raise TransactionAborted(
                    "write set cannot be logged: %r" % (exc,)
                ) from exc
        state = self.dag.create_state(
            parents, write_keys=frozenset(writes), state_id=state_id
        )
        if plan is not None:
            try:
                versions.install_commit(plan, state)
            except ShardError as exc:
                self.dag.discard_leaf(state)
                self.registry.inc("tardis_commit_shard_abort_total")
                shard = exc.shard if isinstance(exc, ShardUnavailableError) else None
                raise CrossShardAbort(shard, "shard install failed: %s" % exc) from exc
        else:
            for key, value in writes.items():
                versions.write(key, state_id, value)
        if wal is not None:
            self._append_log(wal, entry)
        if origin != REMOTE:
            self._observe(origin, parents, writes)
        if plan is not None and len(plan) > 1:
            self.registry.inc("tardis_commit_cross_shard_total")
        return record

    # -- write-ahead logging (§6.5) ----------------------------------------

    def _append_log(self, wal: WriteAheadLog, entry: bytes) -> None:
        wal.append_commit(entry)
        if self.group_commit > 1 and not wal.sync:
            self._unflushed += 1
            if self._unflushed >= self.group_commit:
                wal.flush()
                self._unflushed = 0
                self.registry.inc("tardis_wal_group_flush_total")

    # -- observability -----------------------------------------------------

    def _observe(
        self, origin: str, parents: Sequence[State], writes: Dict[Any, Any]
    ) -> None:
        m = self.registry
        if not m.enabled:
            return
        self._commits.inc()
        self._write_keys.record(len(writes))
        if origin == MERGE:
            m.inc("tardis_branch_merge_total")
            m.observe("tardis_merge_parents", len(parents))
