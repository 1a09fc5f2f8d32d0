"""Fault tolerance and recovery (§6.5).

TARDiS logs, at commit time, the commit state id, its parent ids, and
the transaction's write set — one :class:`~repro.core.ids.CommitRecord`
per commit, the same record the replicator ships. Recovery iterates the
log chronologically, grafting each record under its recorded parents:
id monotonicity guarantees no child is recovered before its parents,
and each key's version list keeps itself in id order.

With asynchronous flush, a crash loses a suffix of the log: the log is
flushed sequentially, one frame per flush, so what survives is a clean
prefix (a torn tail flush is cut whole by its frame's CRC; its fsync had
not returned). A record whose parents are not all present —
a gap in the log, or a compacted log recovered without its checkpoint —
cannot be grafted; recovery discards it *and all subsequent records*.

Checkpoints (``checkpoint_store``) snapshot the full DAG and record
store and compact the log.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Optional, Tuple

from repro.core.store import TardisStore
from repro.storage.wal import WriteAheadLog, fsync_dir


def checkpoint_store(store: TardisStore, snapshot_path: str) -> int:
    """Take a checkpoint: snapshot + log compaction.

    Serializes every DAG state and record version to ``snapshot_path``
    and drops the log records the snapshot covers, holding the store
    lock throughout: every other store call waits for it. Returns the
    number of states checkpointed.

    The snapshot is written beside ``snapshot_path``, fsynced, moved
    over it atomically and the rename made durable (directory fsync)
    before the log is compacted, so a crash at any point leaves either
    the old snapshot with the old log or the new snapshot with a log it
    covers.
    """
    with store._lock:
        states = [
            {
                "id": s.id,
                "parents": tuple(p.id for p in s.parents),
                "write_keys": tuple(s.write_keys),
            }
            for s in sorted(store.dag.states(), key=lambda s: s.id)
        ]
        records = [
            (key, sid, store.versions.record(key, sid))
            for key in store.versions.keys()
            for sid in store.versions.versions_of(key)
        ]
        promotions = dict(store.dag._promotions)
        top = max((s.id for s in store.dag.states()), default=store.dag.root.id)
        payload = {
            "site": store.site,
            "states": states,
            "records": records,
            "promotions": promotions,
            "top_id": top,
        }
        tmp = snapshot_path + ".tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, snapshot_path)
        fsync_dir(snapshot_path)
        if store.wal is not None:
            store.wal.compact_inplace(keep_from_state=top)
    return len(states)


def recover_store(
    site: str,
    wal_path: str,
    snapshot_path: Optional[str] = None,
    **store_kwargs: Any,
) -> Tuple[TardisStore, Dict[str, int]]:
    """Rebuild a store from its checkpoint and commit log.

    ``store_kwargs`` configure the rebuilt :class:`TardisStore` (e.g.
    ``shards``). Returns ``(store, report)`` where ``report`` counts
    replayed and discarded transactions and the states the checkpoint
    restored.
    """
    store = TardisStore(site, **store_kwargs)
    report = {"checkpoint_states": 0, "replayed": 0, "discarded": 0}

    if snapshot_path is not None:
        report["checkpoint_states"] = _load_snapshot(store, snapshot_path)

    dag = store.dag
    cut = False
    for record in WriteAheadLog.read(wal_path):
        if cut:
            report["discarded"] += 1
            continue
        if record.state_id in dag:
            continue  # already in the checkpoint
        if not all(pid in dag for pid in record.parent_ids):
            # Atomicity: a state this transaction builds on never became
            # durable; discard it and every subsequent state (§6.5).
            cut = True
            report["discarded"] += 1
            continue
        store._graft(record)
        report["replayed"] += 1
    return store, report


def _load_snapshot(store: TardisStore, snapshot_path: str) -> int:
    with open(snapshot_path, "rb") as handle:
        payload = pickle.load(handle)
    dag = store.dag
    for entry in payload["states"]:
        if entry["id"] == dag.root.id:
            continue
        # A snapshot taken after garbage collection may start from a state
        # whose original ancestors (including the root) were compressed
        # away; anchor it at the fresh store's root.
        parents = [dag.resolve(pid) for pid in entry["parents"]] or [dag.root]
        dag.create_state(
            parents, write_keys=frozenset(entry["write_keys"]), state_id=entry["id"]
        )
    with store._lock:
        for key, sid, value in payload["records"]:
            store.versions.write(key, sid, value)
    dag._promotions.update(payload["promotions"])
    return len(payload["states"])
