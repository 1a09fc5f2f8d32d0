"""Multiversion record storage (§6.1.3-6.1.4).

Every update creates a new record version tagged with the id of the state
the committing transaction created. The paper keeps records in a B-tree
keyed by ``(key, state_id)`` plus, per key, a topologically ordered list
of state ids; the DES cost model charges for that layout. Here one Python
list per key holds both: ``(state_id, value)`` pairs in ascending id
order, so a local commit (always the newest id) appends, and an
out-of-order id from replication or recovery is bisected into place.

Reading key ``k`` from read state ``r`` walks ``k``'s version list
newest-first and returns the first version whose state passes the
Figure 7 ``descendant_check`` against ``r`` — which, because ids are
monotone along branches, is necessarily the branch's most recent version.

Record promotion (§6.3) rewrites versions whose states were garbage
collected to the id of the surviving descendant that took over their
identity, then discards all but the newest of the versions that collapsed
onto the same id. A promoted id can overtake a newer version on another
branch, so a list with a re-keyed entry is re-sorted; a key left with no
version leaves the mapping.

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
by the newest-version-id comparison (an O(1) peek at ``lst[-1]``, the
list's largest id), and everything that rewrites masks, version lists,
or the promotion table — GC splice-out, fork retirement, record
promotion — moves the DAG's ``destructive_gen``, which drops the whole
cache. See docs/internals.md §10 for why the two id conditions above
are exactly sufficient.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.ids import StateId
from repro.core.state_dag import State, StateDAG
from repro.errors import GarbageCollectedError

#: one record version: ``(state_id, value)``.
Version = Tuple[StateId, Any]


class VersionedRecordStore:
    """The key-version mapping: per key, its versions and their values."""

    # No lock of its own: every call runs under the owning TardisStore's
    # ``_lock``, which ``python -X dev`` checks (``_LockGuard``).

    def __init__(self) -> None:
        #: key -> its versions in ascending id order; never empty.
        self._versions: Dict[Any, List[Version]] = {}
        #: total versions across all keys (GC reads it every cycle).
        self._n_records = 0
        #: per-key visibility cache (module docstring): ``key -> [cid,
        #: result, mask]``.
        self._vis_cache: Dict[Any, list] = {}
        #: destructive watermark the cache contents were built under.
        self._vis_epoch = -1
        #: running cost-model counts: versions examined by uncached walks
        #: and reads the cache answered. A caller charges a read the
        #: difference across its call. The owning store mirrors the three
        #: cache counts into its registry when the registry is read.
        self.scanned = 0
        self.vis_hits = 0
        self.vis_misses = 0
        self.vis_invalidations = 0

    def cache_info(self) -> Dict[str, Any]:
        """Visibility-cache introspection (tests, ``tardis top``)."""
        return {
            "size": len(self._vis_cache),
            "hits": self.vis_hits,
            "misses": self.vis_misses,
            "invalidations": self.vis_invalidations,
        }

    # -- introspection -----------------------------------------------------

    def num_records(self) -> int:
        return self._n_records

    def num_keys(self) -> int:
        return len(self._versions)

    def num_versions(self, key: Any) -> int:
        lst = self._versions.get(key)
        return len(lst) if lst is not None else 0

    def keys(self) -> Iterator[Any]:
        return iter(self._versions)

    def versions_of(self, key: Any) -> List[StateId]:
        """State ids of ``key``'s versions, newest first."""
        lst = self._versions.get(key)
        return [entry[0] for entry in reversed(lst)] if lst is not None else []

    def record(self, key: Any, state_id: StateId, default: Any = None) -> Any:
        """The value ``key``'s version ``state_id`` holds, else ``default``."""
        lst = self._versions.get(key)
        if lst is not None:
            i = bisect_left(lst, (state_id,))
            if i < len(lst) and lst[i][0] == state_id:
                return lst[i][1]
        return default

    # -- writes ------------------------------------------------------------

    def write(self, key: Any, state_id: StateId, value: Any) -> None:
        """Insert a new record version (never blocks, §6.1.4).

        A local commit's id is the newest and appends. Replication and
        recovery may deliver an older id, which is bisected into place;
        an id already present has its value replaced.
        """
        lst = self._versions.get(key)
        if lst is None:
            self._versions[key] = [(state_id, value)]
        elif state_id > lst[-1][0]:
            lst.append((state_id, value))
        else:
            # Bisect on the 1-tuple: it sorts before every pair with the
            # same id, so tuple order never compares values.
            i = bisect_left(lst, (state_id,))
            if i < len(lst) and lst[i][0] == state_id:
                lst[i] = (state_id, value)
                # The newest id did not move, so a cached winner would
                # survive the peek: drop it.
                self._vis_cache.pop(key, None)
                return
            lst.insert(i, (state_id, value))
        self._n_records += 1

    # -- reads ------------------------------------------------------------

    def read_visible(
        self, key: Any, read_state: State, dag: StateDAG
    ) -> Optional[Tuple[StateId, Any]]:
        """Most recent version of ``key`` visible from ``read_state``.

        Returns ``(version_state_id, value)`` or None when the key has no
        version on the selected branch. For the cost model the running
        ``scanned`` counter grows by the versions the walk examined, and
        ``vis_hits`` by one when the visibility cache answered (a hit
        scans nothing).
        """
        lst = self._versions.get(key)
        if lst is None:
            return None  # never written: no walk, and no entry to keep
        cache = self._vis_cache
        epoch = dag.destructive_gen
        if epoch != self._vis_epoch:
            dropped = len(cache)
            if dropped:
                cache.clear()
                self.vis_invalidations += dropped
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
                if lst[-1][0] <= cid:
                    entry[0] = rid
                    valid = True
            if valid:
                self.vis_hits += 1
                return entry[1]
        result = self._walk_versions(lst, read_state, dag)
        cache[key] = [read_state.id, result, mask]
        self.vis_misses += 1
        return result

    def _walk_versions(
        self, lst: List[Version], read_state: State, dag: StateDAG
    ) -> Optional[Version]:
        """The uncached newest-first walk (module docstring)."""
        for scanned, entry in enumerate(reversed(lst), 1):
            try:
                version_state = dag.resolve(entry[0])
            except GarbageCollectedError:
                continue  # orphaned record awaiting pruning (§6.5)
            if dag.descendant_check(version_state, read_state):
                self.scanned += scanned
                return entry
        self.scanned += len(lst)
        return None

    def read_visible_many(
        self,
        keys: List[Any],
        read_state: State,
        dag: StateDAG,
    ) -> List[Optional[Tuple[StateId, Any]]]:
        """Batched :meth:`read_visible`; results align with ``keys``.

        Flat storage walks the same lists either way — the batch entry
        point exists so callers can hand whole read sets down and let
        the sharded store scatter them across its shards.
        """
        return [self.read_visible(key, read_state, dag) for key in keys]

    def read_candidates(
        self,
        key: Any,
        read_states: List[State],
        dag: StateDAG,
    ) -> List[Tuple[StateId, Any]]:
        """Maximal visible versions of ``key`` across several branches.

        The merge-mode read: one first-visible version per read state,
        minus any candidate whose state is an ancestor of another
        candidate's state (that one is superseded on the merged view).
        """
        per_branch: Dict[StateId, Any] = {}
        for state in read_states:
            hit = self.read_visible(key, state, dag)
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
        emptied = []
        resolve = dag.resolve
        for key, lst in self._versions.items():
            kept: List[Version] = []  # newest first, pre-promotion order
            seen: set = set()
            changed = rekeyed = False
            for entry in reversed(lst):
                state_id = entry[0]
                try:
                    live_id = resolve(state_id).id
                except GarbageCollectedError:
                    # Orphaned record: its state is gone without a
                    # successor (crash leftovers, §6.5). Discard.
                    changed = True
                    dropped += 1
                    continue
                if live_id in seen:
                    # An earlier (newer) version already owns this
                    # identity; this one can never be read again.
                    changed = True
                    dropped += 1
                    continue
                seen.add(live_id)
                if live_id != state_id:
                    entry = (live_id, entry[1])
                    promoted += 1
                    changed = rekeyed = True
                kept.append(entry)
            if changed:
                if rekeyed:
                    # A promoted id can overtake a newer version on another
                    # branch; ids are unique here, so no value is compared.
                    kept.sort()
                else:
                    kept.reverse()
                lst[:] = kept
                if not kept:
                    emptied.append(key)
        for key in emptied:
            del self._versions[key]
        self._n_records -= dropped
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
