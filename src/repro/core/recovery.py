"""Fault tolerance and recovery (§6.5).

TARDiS logs, at commit time, the commit state id, its parent ids, and
the transaction's write-set keys (this implementation can also log the
values, which stands in for the record store's own persistence).
Recovery iterates the log chronologically, (i) inserting each state into
the DAG under its recorded parents, and (ii) re-adding the key-version
entries — id monotonicity guarantees no child is recovered before its
parents, and each key's version list keeps itself in id order.

With asynchronous flush, a crash may leave a transaction only partially
persistent. The log is flushed sequentially, so the damage is confined
to a suffix: recovery verifies that every write of each entry is
persistent and discards the first incomplete transaction *and all
subsequent states* (orphaned records are harmless — the DAG and
key-version mapping decide what is readable — and are eventually pruned).

Checkpoints (``checkpoint_store``) snapshot the full DAG and record
store and compact the log.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.ids import StateId
from repro.core.store import TardisStore
from repro.storage.wal import CHECKPOINT, COMMIT, WriteAheadLog

_MISSING = object()


def checkpoint_store(store: TardisStore, snapshot_path: str) -> int:
    """Take a checkpoint: snapshot + log compaction.

    Serializes every DAG state and record version to ``snapshot_path``
    and rewrites the log to a single checkpoint marker, holding the
    store lock throughout: every other store call waits for it. Returns
    the number of states checkpointed.
    """
    with store._lock:
        states = [
            {
                "id": s.id,
                "parents": tuple(p.id for p in s.parents),
                "read_keys": tuple(s.read_keys),
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
        with open(snapshot_path, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        if store.wal is not None:
            store.wal.compact_inplace(keep_from_state=top)
            store.wal.append_checkpoint(top)
    return len(states)


def recover_store(
    site: str,
    wal_path: str,
    snapshot_path: Optional[str] = None,
    record_source: Optional[Callable[[Any, StateId], Any]] = None,
    store_factory: Optional[Callable[..., Any]] = None,
    **store_kwargs: Any,
) -> Tuple[Any, Dict[str, int]]:
    """Rebuild a store from its checkpoint and commit log.

    ``record_source(key, state_id)`` supplies record values for log
    entries that did not log values (the paper persists records through
    the storage backend); it must return ``recovery.MISSING`` — exposed
    as the module-level ``_MISSING`` via :func:`missing` — when the
    record never reached stable storage, which triggers the
    discard-suffix rule. Returns ``(store, report)`` where ``report``
    counts replayed/discarded transactions.
    """
    factory = store_factory or TardisStore
    store = factory(site, **store_kwargs)
    report = {"checkpoint_states": 0, "replayed": 0, "discarded": 0}

    if snapshot_path is not None:
        report["checkpoint_states"] = _load_snapshot(store, snapshot_path)

    cut = False
    for record in WriteAheadLog.read(wal_path):
        if record.kind == CHECKPOINT:
            continue
        if record.kind != COMMIT:  # pragma: no cover - future kinds
            continue
        if cut:
            report["discarded"] += 1
            continue
        payload = record.payload
        state_id = payload["state_id"]
        if state_id in store.dag:
            continue  # already in the checkpoint
        values = payload.get("values")
        writes: Dict[Any, Any] = {}
        complete = True
        for key in payload["write_keys"]:
            if values is not None and key in values:
                writes[key] = values[key]
                continue
            if record_source is None:
                complete = False
                break
            value = record_source(key, state_id)
            if value is _MISSING:
                complete = False
                break
            writes[key] = value
        parents_present = all(pid in store.dag for pid in payload["parent_ids"])
        if not complete or not parents_present:
            # Atomicity: this transaction's effects are not fully
            # persistent; discard it and every subsequent state (§6.5).
            cut = True
            report["discarded"] += 1
            continue
        store.apply_remote(
            state_id,
            payload["parent_ids"],
            writes,
            write_keys=payload["write_keys"],
        )
        report["replayed"] += 1
    # apply_remote counts these as remote; recovery replays are local.
    store.metrics.remote_applied -= report["replayed"]
    return store, report


def missing() -> Any:
    """Sentinel a ``record_source`` returns for never-persisted records."""
    return _MISSING


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
            parents,
            read_keys=frozenset(entry["read_keys"]),
            write_keys=frozenset(entry["write_keys"]),
            state_id=entry["id"],
        )
    for key, sid, value in payload["records"]:
        store.versions.write(key, sid, value)
    dag._promotions.update(payload["promotions"])
    return len(payload["states"])
