"""Multiversion record storage (§6.1.3-6.1.4).

Every update creates a new record version tagged with the id of the state
the committing transaction created. Records live in a B-tree keyed by
``(key, state_id)``; the key-version mapping keeps, per key, a
topologically ordered (newest-first) skip list of state ids.

Reading key ``k`` from read state ``r`` walks ``k``'s version list
newest-first and returns the first version whose state passes the
Figure 7 ``descendant_check`` against ``r`` — which, because ids are
monotone along branches, is necessarily the branch's most recent version.

Record promotion (§6.3) rewrites versions whose states were garbage
collected to the id of the surviving descendant that took over their
identity, then discards all but the newest of the versions that collapsed
onto the same id.

**Visibility cache.** Repeated reads on a stable branch redo the same
walk, so the store keeps one entry per key, ``key -> [cid, result,
mask]``: the winning ``(state_id, value)`` (None for "no visible
version") of the last walk, the id of the read state it was computed at
and that state's ``path_mask``. A read from state ``r`` reuses the entry
when ``r.path_mask == mask`` and

* ``r.id == cid`` (the very same read point), or
* ``r.id > cid`` and the key's newest version id is ``<= cid`` — ids
  are branch-monotone, so every version the entry's walk examined is
  still the complete candidate set for the newer read point (the entry
  then adopts ``r.id`` as its new ``cid``).

Anything else walks and overwrites the entry, so the cache never holds
more entries than there are written keys. Writes to the key are caught
by the newest-version-id comparison (an O(1) peek at the reversed skip
list's head), and everything that rewrites masks, version lists, or the
promotion table — GC splice-out, fork retirement, record promotion —
moves the DAG's ``destructive_gen``, which drops the whole cache. See
docs/internals.md §10 for why the two id conditions above are exactly
sufficient.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.ids import StateId
from repro.core.state_dag import State, StateDAG
from repro.errors import GarbageCollectedError
from repro.obs import metrics as _met
from repro.obs.metrics import Counter, MetricsRegistry
from repro.storage.engine import RecordEngine, create_engine
from repro.storage.skiplist import SkipList


class VersionedRecordStore:
    """Key-version mapping plus the backing record engine.

    ``engine`` is a :class:`~repro.storage.engine.RecordEngine` instance
    or registered engine name: ``"btree"`` (the TARDiS-BDB
    configuration, default) or ``"hash"`` (the TARDiS-MDB configuration,
    §6.6).
    """

    # The record store has no lock of its own: every access runs under
    # the owning TardisStore's ``_lock``. An ``external:`` guard spec is
    # documentation; nothing checks it.
    _GUARDED_BY = {
        "_versions": "external:TardisStore._lock",
        "_vis_cache": "external:TardisStore._lock",
        "_vis_epoch": "external:TardisStore._lock",
        "_next_list": "external:TardisStore._lock",
    }

    def __init__(
        self,
        btree_degree: int = 16,
        seed: Optional[int] = None,
        engine: Any = None,
    ) -> None:
        self._versions: Dict[Any, SkipList] = {}
        self._records: RecordEngine = create_engine(
            "btree" if engine is None else engine, degree=btree_degree
        )
        self._seed = seed
        self._next_list = 0
        #: per-key visibility cache (module docstring): ``key -> [cid,
        #: result, mask]``.
        self._vis_cache: Dict[Any, list] = {}
        #: destructive watermark the cache contents were built under.
        self._vis_epoch = -1
        self.vis_hits = 0
        self.vis_misses = 0
        self.vis_invalidations = 0
        #: hot metric handles, re-resolved when the default registry
        #: changes identity (benchmark harnesses swap it per run).
        self._hot_registry: Optional[MetricsRegistry] = None
        self._hot_vis_hit: Optional[Counter] = None
        self._hot_vis_miss: Optional[Counter] = None
        self._hot_vis_inval: Optional[Counter] = None

    def _hot_metrics(self, m: MetricsRegistry) -> None:
        self._hot_registry = m
        self._hot_vis_hit = m.counter("tardis_vis_cache_hit_total")
        self._hot_vis_miss = m.counter("tardis_vis_cache_miss_total")
        self._hot_vis_inval = m.counter("tardis_vis_cache_invalidations_total")

    def cache_info(self) -> Dict[str, Any]:
        """Visibility-cache introspection (tests, ``tardis top``)."""
        return {
            "size": len(self._vis_cache),
            "hits": self.vis_hits,
            "misses": self.vis_misses,
            "invalidations": self.vis_invalidations,
        }

    # -- introspection -----------------------------------------------------

    @property
    def records(self) -> RecordEngine:
        return self._records

    def num_records(self) -> int:
        return len(self._records)

    def num_keys(self) -> int:
        return len(self._versions)

    def num_versions(self, key: Any) -> int:
        slist = self._versions.get(key)
        return len(slist) if slist is not None else 0

    def keys(self) -> Iterator[Any]:
        return iter(self._versions)

    def versions_of(self, key: Any) -> List[StateId]:
        """State ids of ``key``'s versions, newest first."""
        slist = self._versions.get(key)
        return list(slist.keys()) if slist is not None else []

    # -- writes ------------------------------------------------------------

    def write(self, key: Any, state_id: StateId, value: Any) -> None:
        """Insert a new record version (never blocks, §6.1.4)."""
        slist = self._versions.get(key)
        if slist is None:
            slist = SkipList(
                reverse=True,
                seed=None if self._seed is None else self._seed + self._next_list,
            )
            self._next_list += 1
            self._versions[key] = slist
        slist.insert(state_id, None)
        self._records.insert((key, state_id), value)

    # -- reads ------------------------------------------------------------

    def read_visible(
        self,
        key: Any,
        read_state: State,
        dag: StateDAG,
        scanned: Optional[List[int]] = None,
        hits: Optional[List[int]] = None,
    ) -> Optional[Tuple[StateId, Any]]:
        """Most recent version of ``key`` visible from ``read_state``.

        Returns ``(version_state_id, value)`` or None when the key has no
        version on the selected branch. ``scanned`` (one-element list)
        counts versions examined, for the cost model; ``hits`` counts
        visibility-cache hits, which scan nothing.
        """
        slist = self._versions.get(key)
        if slist is None:
            return None  # never written: no walk, and no entry to keep
        cache = self._vis_cache
        epoch = dag.destructive_gen
        if epoch != self._vis_epoch:
            dropped = len(cache)
            if dropped:
                cache.clear()
                self.vis_invalidations += dropped
                m = _met.DEFAULT
                if m.enabled:
                    if self._hot_registry is not m:
                        self._hot_metrics(m)
                    self._hot_vis_inval.inc(dropped)
            self._vis_epoch = epoch
        mask = read_state.path_mask
        entry = cache.get(key)
        if entry is not None and entry[2] == mask:
            cid = entry[0]
            rid = read_state.id
            valid = rid == cid
            if not valid and rid > cid:
                # Branch-monotone ids: when nothing newer than the
                # entry's walk exists for this key, the cached winner is
                # still the first visible version from ``read_state``.
                newest = slist.first_key()
                if newest is None or newest <= cid:
                    entry[0] = rid
                    valid = True
            if valid:
                self.vis_hits += 1
                if hits is not None:
                    hits[0] += 1
                m = _met.DEFAULT
                if m.enabled:
                    if self._hot_registry is not m:
                        self._hot_metrics(m)
                    self._hot_vis_hit.inc()
                return entry[1]
        result = self._walk_versions(key, slist, read_state, dag, scanned)
        cache[key] = [read_state.id, result, mask]
        self.vis_misses += 1
        m = _met.DEFAULT
        if m.enabled:
            if self._hot_registry is not m:
                self._hot_metrics(m)
            self._hot_vis_miss.inc()
        return result

    def _walk_versions(
        self,
        key: Any,
        slist: Optional[SkipList],
        read_state: State,
        dag: StateDAG,
        scanned: Optional[List[int]],
    ) -> Optional[Tuple[StateId, Any]]:
        """The uncached newest-first walk (module docstring)."""
        if slist is None:
            return None
        for state_id in slist.keys():
            if scanned is not None:
                scanned[0] += 1
            try:
                version_state = dag.resolve(state_id)
            except GarbageCollectedError:
                continue  # orphaned record awaiting pruning (§6.5)
            if dag.descendant_check(version_state, read_state):
                return state_id, self._records.get((key, state_id))
        return None

    def read_visible_many(
        self,
        keys: List[Any],
        read_state: State,
        dag: StateDAG,
        scanned: Optional[List[int]] = None,
        hits: Optional[List[int]] = None,
    ) -> List[Optional[Tuple[StateId, Any]]]:
        """Batched :meth:`read_visible`; results align with ``keys``.

        Flat storage walks the same lists either way — the batch entry
        point exists so callers can hand whole read sets down and let
        the sharded store scatter them across its shards.
        """
        return [
            self.read_visible(key, read_state, dag, scanned, hits)
            for key in keys
        ]

    def read_candidates(
        self,
        key: Any,
        read_states: List[State],
        dag: StateDAG,
        scanned: Optional[List[int]] = None,
        hits: Optional[List[int]] = None,
    ) -> List[Tuple[StateId, Any]]:
        """Maximal visible versions of ``key`` across several branches.

        The merge-mode read: one first-visible version per read state,
        minus any candidate whose state is an ancestor of another
        candidate's state (that one is superseded on the merged view).
        """
        per_branch: Dict[StateId, Any] = {}
        for state in read_states:
            hit = self.read_visible(key, state, dag, scanned, hits)
            if hit is not None:
                per_branch.setdefault(hit[0], hit[1])
        if len(per_branch) <= 1:
            return list(per_branch.items())
        candidates = []
        ids = list(per_branch)
        # Resolve each candidate id exactly once: the promotion-chain
        # walk inside resolve() is not free, and the supersession loop
        # below otherwise redoes it O(n^2) times.
        resolved = {sid: dag.resolve(sid) for sid in ids}
        for sid in ids:
            x = resolved[sid]
            superseded = any(
                sid != other and dag.descendant_check(x, resolved[other])
                for other in ids
            )
            if not superseded:
                candidates.append((sid, per_branch[sid]))
        candidates.sort(reverse=True)
        return candidates

    # -- garbage collection (§6.3) -------------------------------------------

    def promote_and_prune(self, dag: StateDAG) -> Tuple[int, int]:
        """Rewrite versions of dead states; drop superseded duplicates.

        Returns ``(promoted, dropped)`` record counts.
        """
        promoted = 0
        dropped = 0
        for key, slist in self._versions.items():
            entries = list(slist.keys())  # newest first, pre-promotion order
            rebuilt: List[Tuple[StateId, StateId]] = []  # (live_id, original)
            seen: set = set()
            changed = False
            for state_id in entries:
                try:
                    live_id = dag.resolve(state_id).id
                except GarbageCollectedError:
                    # Orphaned record: its state is gone without a
                    # successor (crash leftovers, §6.5). Discard.
                    self._records.remove((key, state_id))
                    changed = True
                    dropped += 1
                    continue
                if live_id in seen:
                    # An earlier (newer) version already owns this
                    # identity; this one can never be read again.
                    self._records.remove((key, state_id))
                    changed = True
                    dropped += 1
                    continue
                seen.add(live_id)
                if live_id != state_id:
                    value = self._records.get((key, state_id))
                    self._records.remove((key, state_id))
                    self._records.insert((key, live_id), value)
                    promoted += 1
                    changed = True
                rebuilt.append((live_id, state_id))
            if changed:
                fresh = SkipList(
                    reverse=True,
                    seed=None if self._seed is None else self._seed + self._next_list,
                )
                self._next_list += 1
                for live_id, _original in rebuilt:
                    fresh.insert(live_id, None)
                self._versions[key] = fresh
        if promoted or dropped:
            # Version lists were rewritten under existing ids: cached
            # winners may now point at promoted/pruned records.
            dag.mark_destructive()
        return promoted, dropped

    def items_at(self, state: State, dag: StateDAG) -> Iterator[Tuple[Any, Any]]:
        """Snapshot of all keys as visible from ``state`` (for checkpoints)."""
        for key in list(self._versions):
            hit = self.read_visible(key, state, dag)
            if hit is not None:
                yield key, hit[1]
