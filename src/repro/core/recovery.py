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
a gap in the log, or a compacted log whose checkpoint was lost —
cannot be grafted; recovery discards it *and all subsequent records*.

Checkpoints (``checkpoint_store``) snapshot the full DAG and record
store to ``<log>.ckpt`` and compact the log.

The one replay is ``TardisStore._replay``: ``TardisStore(site,
wal_path=p)`` runs it before it appends to ``p``, and ``recover_store``
runs it, read-only, into a store without a log.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Tuple

from repro.core.store import CHECKPOINT_SUFFIX, TardisStore
from repro.storage.wal import fsync_dir


def checkpoint_store(store: TardisStore) -> int:
    """Take a checkpoint: snapshot + log compaction.

    Serializes every DAG state and record version to ``<log>.ckpt``
    beside ``store``'s log and drops the log records the snapshot
    covers, holding the store lock throughout: every other store call
    waits for it. Returns the number of states checkpointed. A store
    without a log has nowhere to put one: ``ValueError``.

    The snapshot is written beside its final name, fsynced, moved over
    it atomically and the rename made durable (directory fsync) before
    the log is compacted, so a crash at any point leaves either the old
    snapshot with the old log or the new snapshot with a log it covers.
    """
    if store.wal is None:
        raise ValueError("%r has no log to checkpoint beside" % (store,))
    snapshot_path = store.wal.path + CHECKPOINT_SUFFIX
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
        promotions = store.dag.promotions()
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
        store.wal.compact_inplace(keep_from_state=top)
    return len(states)


def recover_store(
    site: str, wal_path: str, **store_kwargs: Any
) -> Tuple[TardisStore, Dict[str, int]]:
    """Rebuild a store from a log and its checkpoint, read-only.

    ``store_kwargs`` configure the rebuilt :class:`TardisStore` (e.g.
    ``shards``); it has no log, and ``wal_path`` is only read. Returns
    ``(store, report)``, where ``report`` (also ``store.recovery``)
    counts the states the checkpoint restored and the replayed and
    discarded transactions.
    """
    store = TardisStore(site, **store_kwargs)
    try:
        return store, store._replay(wal_path)
    except BaseException:
        store.close()
        raise
