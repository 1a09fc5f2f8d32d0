"""The State DAG (§4, §6.1, Figure 5).

Each vertex is a logical state of the datastore; every committed update
transaction appends one state to its chosen branch. The DAG supplies the
four operations the rest of the system is built from:

* ``create_state`` — append a state (branch-on-conflict happens here: a
  second child of the same parent creates a fork point);
* ``descendant_check`` — the Figure 7 visibility test via fork paths;
* ``find_read_state`` — breadth-first search from the leaves up for the
  most recent state satisfying a begin constraint (§6.1.1);
* ``fork_points_of`` / ``states_between`` — the branch-structure queries
  behind the merge-mode API (§6.2).

Fork-path bookkeeping: the first child of a state carries no fork point
for it (there is no fork yet). When a second child appears, the parent
*becomes* a fork point: the new child takes entry ``(p, 1)`` and the
entry ``(p, 0)`` is pushed retroactively into the first child's subtree.
Forks arise between near-concurrent commits, so that subtree is almost
always tiny — this is the price of keeping ``descendant_check`` a pure
subset test. Branch numbers come from a per-state counter so they remain
stable when garbage collection splices intermediate states out.

Fork-path *representation* (§6.1.3): each DAG owns an
:class:`~repro.core.ancestry.AncestryIndex` that interns every fork
point to a small bit position, and a state stores its fork path as an
immutable int bitmask (``State.path_mask``). The Figure 7 subset test is
then a single integer operation — ``x_mask & y_mask == x_mask`` — with
no hashing or allocation per probe; ``dag.ancestry.points_of(mask)``
decodes a mask for reports and the branch-structure queries. Garbage
collection retires the bits of fully collapsed forks through the index
(:meth:`StateDAG.retire_forks`) so the bit universe tracks *live*
conflicts, not history length.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.ancestry import AncestryIndex, ForkPoint, popcount
from repro.core.ids import ROOT_ID, IdAllocator, StateId
from repro.errors import GarbageCollectedError
from repro.obs import metrics as _met


class State:
    """One vertex of the State DAG."""

    __slots__ = (
        "id",
        "parents",
        "children",
        "path_mask",
        "write_keys",
        "next_branch",
        "pins",
        "marked",
        "safe_to_gc",
    )

    def __init__(
        self,
        state_id: StateId,
        parents: Tuple["State", ...],
        path_mask: int,
        write_keys: FrozenSet = frozenset(),
    ) -> None:
        self.id = state_id
        self.parents = parents
        self.children: List[State] = []
        #: fork path as an int bitmask over the owning DAG's interned
        #: fork points; the Figure 7 subset test operates on this.
        self.path_mask = path_mask
        #: write set of the creating transaction; a collection cycle unions
        #: in the write keys of every state spliced into this one, so
        #: conflict detection survives DAG compression (§6.2, §6.3).
        self.write_keys = write_keys
        #: branch number the next child of this state will take.
        self.next_branch = 0
        #: number of executing transactions using this state as read state.
        self.pins = 0
        #: set by ceiling marking (§6.3): may no longer be a read state.
        self.marked = False
        #: set by the safe-to-gc pass (§6.3).
        self.safe_to_gc = False

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_fork_point(self) -> bool:
        """More than one *distinct* child.

        ``next_branch`` (the number of children ever attached) drives
        branch numbering and never decreases; the fork-point test instead
        uses distinct current children, so that a fork whose branches
        were merged and then fully compressed away (leaving the merge
        state as both children) becomes collectable again.
        """
        children = self.children
        for child in children:
            if child is not children[0]:
                return True
        return False

    @property
    def is_merge(self) -> bool:
        return len(self.parents) >= 2

    def __repr__(self) -> str:
        return "<State %r children=%d fork_points=%d>" % (
            self.id,
            len(self.children),
            popcount(self.path_mask),
        )


class StateDAG:
    """The per-site directed acyclic graph of datastore states."""

    def __init__(self, site: str) -> None:
        self.site = site
        self._allocator = IdAllocator(site)
        #: interns fork points to bit positions; owns mask encoding.
        self.ancestry = AncestryIndex()
        self.root = State(ROOT_ID, (), 0)
        self._states: Dict[StateId, State] = {ROOT_ID: self.root}
        # Leaves in insertion order; iterated newest-first for BFS.
        self._leaves: Dict[StateId, State] = {ROOT_ID: self.root}
        #: promotion table: id of a garbage-collected state -> id of the
        #: child that took over its identity (§6.3). A collection cycle
        #: keeps only the ids a session or a ceiling holds
        #: (``prune_promotions``).
        self._promotions: Dict[StateId, StateId] = {}
        #: count of retroactive fork-path pushes (exposed for benchmarks).
        self.retro_updates = 0
        #: count of *destructive* events — ones that rewrite existing
        #: bookkeeping (splice-out merges write keys into the child, fork
        #: retirement rewrites masks, record promotion rewrites version
        #: lists, dropped promotions make ids unresolvable) rather than
        #: only appending. The visibility cache drops everything built
        #: under an older value (docs/internals.md §10); append-only
        #: events (plain commits, GC marking) leave it alone.
        self.destructive_gen = 0
        #: cached splice counter — splice_out runs once per collected
        #: state (roughly once per commit at steady state), so the
        #: per-call registry name lookup is measurable.
        self._hot_registry = None
        self._hot_splice = None

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state_id: StateId) -> bool:
        return state_id in self._states or state_id in self._promotions

    def get(self, state_id: StateId) -> Optional[State]:
        return self._states.get(state_id)

    def states(self) -> Iterator[State]:
        return iter(self._states.values())

    def leaves(self) -> List[State]:
        """Current leaves, most recent first."""
        return sorted(self._leaves.values(), key=lambda s: s.id, reverse=True)

    def num_forks(self) -> int:
        return sum(1 for s in self._states.values() if s.is_fork_point)

    def mark_destructive(self) -> int:
        """Record a destructive event: cached reads are now stale."""
        self.destructive_gen += 1
        return self.destructive_gen

    def resolve(self, state_id: StateId) -> State:
        """Map an id to its live state, following promotions (§6.3).

        Raises :class:`GarbageCollectedError` when the id is unknown: a
        collected id that no session or ceiling held at the last cycle,
        or, with optimistic replicated GC, a state that must be
        re-fetched from a peer (§6.4).
        """
        seen = []
        current = state_id
        while current not in self._states:
            seen.append(current)
            if current not in self._promotions:
                raise GarbageCollectedError(state_id)
            current = self._promotions[current]
        # Path-compress the promotion chains we just walked. Redirecting
        # an alias to the same live state is invisible to readers, so it
        # is not a destructive event.
        for sid in seen:
            self._promotions[sid] = current
        return self._states[current]

    # -- construction -----------------------------------------------------

    def create_state(
        self,
        parents: Iterable[State],
        write_keys: FrozenSet = frozenset(),
        state_id: Optional[StateId] = None,
    ) -> State:
        """Append a new state as a child of ``parents``.

        ``state_id`` is provided when applying a replicated transaction
        (the state keeps the id it was given at its origin site, §6.4);
        otherwise a fresh local id is allocated.
        """
        parents = tuple(parents)
        if not parents:
            raise ValueError("a state needs at least one parent")
        if state_id is None:
            state_id = self._allocator.next_id(p.id for p in parents)
        else:
            if state_id in self._states:
                raise ValueError("state id %r already present" % (state_id,))
            self._allocator.observe(state_id)

        # Retro updates must run before the union below: a parent's own
        # path may gain an entry when another parent (its ancestor) forks.
        branches = []
        for parent in parents:
            branch = parent.next_branch
            branches.append(branch)
            if branch == 1:
                # The parent just became a fork point: its first child's
                # subtree retroactively learns the branch it is on.
                first = parent.children[0]
                self._retro_add(first, ForkPoint(parent.id, 0))
        mask = 0
        for parent in parents:
            mask |= parent.path_mask
        for parent, branch in zip(parents, branches):
            if branch >= 1:
                mask |= self.ancestry.intern(ForkPoint(parent.id, branch))

        state = State(state_id, parents, mask, write_keys)
        for parent in parents:
            parent.children.append(state)
            parent.next_branch += 1
            self._leaves.pop(parent.id, None)
        self._states[state_id] = state
        self._leaves[state_id] = state
        return state

    def _retro_add(self, subtree_root: State, point: ForkPoint) -> None:
        bit = self.ancestry.intern(point)
        stack = [subtree_root]
        visited: Set[StateId] = set()
        while stack:
            state = stack.pop()
            if state.id in visited:
                continue
            visited.add(state.id)
            state.path_mask |= bit
            stack.extend(state.children)
            self.retro_updates += 1
        m = _met.DEFAULT
        if m.enabled:
            m.inc("tardis_dag_retro_updates_total", len(visited))

    # -- visibility (Figure 7) ---------------------------------------------

    def descendant_check(self, x: State, y: State) -> bool:
        """True when state ``y`` can see records written at state ``x``.

        The fork-path subset test of Figure 7, evaluated over interned
        bitmasks: ``x ⊆ y`` is ``x_mask & y_mask == x_mask``.
        """
        if x.id == y.id:
            return True
        if x.id > y.id:
            return False
        x_mask = x.path_mask
        return x_mask & y.path_mask == x_mask

    def ancestor_walk_check(self, x: State, y: State) -> bool:
        """Reference ancestry test by graph walk (no fork paths).

        Exponentially more expensive on deep DAGs; kept as the ground
        truth for property tests and for the fork-path ablation benchmark.
        """
        if x.id > y.id:
            return False
        stack = [y]
        seen: Set[StateId] = set()
        while stack:
            state = stack.pop()
            if state.id == x.id:
                return True
            if state.id in seen or state.id < x.id:
                continue
            seen.add(state.id)
            stack.extend(state.parents)
        return False

    # -- read-state search (§6.1.1) ----------------------------------------

    def find_read_state(
        self,
        predicate: Callable[[State], bool],
        count_visits: Optional[List[int]] = None,
    ) -> Optional[State]:
        """BFS from the leaves up for the most recent acceptable state.

        ``predicate`` is the begin constraint (already bound to the
        client session). Ceiling-marked states are never returned (§6.3).
        ``count_visits``, when given, is a one-element list incremented
        per visited state — the simulation cost model charges begin cost
        proportionally.
        """
        queue = self.leaves()
        seen: Set[StateId] = {s.id for s in queue}
        index = 0
        while index < len(queue):
            state = queue[index]
            index += 1
            if count_visits is not None:
                count_visits[0] += 1
            if not state.marked and predicate(state):
                return state
            for parent in state.parents:
                if parent.id not in seen:
                    seen.add(parent.id)
                    queue.append(parent)
        return None

    # -- branch structure queries (§6.2) -------------------------------------

    def fork_points_of(self, states: Iterable[State]) -> List[State]:
        """Fork states at which the given states' branches diverged.

        A fork state ``f`` is a divergence point of a pair ``(x, y)``
        when each of the two carries a branch choice at ``f`` that the
        other lacks (two states where one's choices at ``f`` subsume the
        other's — e.g. downstream of a merge — did not diverge at ``f``).
        Returned nearest-first (descending id).
        """
        states = list(states)
        diverging: Set[StateId] = set()
        for i, x in enumerate(states):
            x_choices = self.ancestry.choices_by_fork(x.path_mask)
            for y in states[i + 1 :]:
                y_choices = self.ancestry.choices_by_fork(y.path_mask)
                for fork_id in set(x_choices) & set(y_choices):
                    xb, yb = x_choices[fork_id], y_choices[fork_id]
                    if xb - yb and yb - xb:
                        diverging.add(fork_id)
        resolved = [self.resolve(fid) for fid in diverging]
        return sorted(resolved, key=lambda s: s.id, reverse=True)

    def states_between(self, descendant: State, ancestor: State) -> List[State]:
        """States ``s`` with ``ancestor < s <= descendant`` on the branch.

        Walks parent edges up from ``descendant``, pruning anything that
        is not itself a descendant of ``ancestor``. Used to gather the
        write sets that define conflicting keys (§6.2).
        """
        if not self.descendant_check(ancestor, descendant):
            return []
        result: List[State] = []
        stack = [descendant]
        seen: Set[StateId] = set()
        while stack:
            state = stack.pop()
            if state.id in seen or state.id == ancestor.id:
                continue
            seen.add(state.id)
            if not self.descendant_check(ancestor, state):
                continue
            result.append(state)
            stack.extend(state.parents)
        return result

    # -- garbage-collection plumbing (§6.3) ----------------------------------

    def splice_out(self, state: State) -> State:
        """Remove a single-child, non-root state, promoting its identity.

        The state's only child takes over its position under every parent
        (branch numbers are per-state counters, so fork-path entries stay
        valid) and the promotion table redirects the dead id to the child.

        The child must also inherit the state's write keys for conflict
        detection (§6.2). That union is the caller's: the collector
        carries one accumulator per run of spliced states and unions it
        into each survivor once (``GarbageCollector._collect_pass``),
        because a union per splice copies the running set once per
        victim — quadratic in the length of a compressed chain.
        """
        if state.is_fork_point or not state.children:
            raise ValueError("only states with one distinct child can be spliced out")
        child = state.children[0]
        for parent in set(state.parents):
            parent.children = [child if c is state else c for c in parent.children]
        new_parents = list(child.parents)
        pos = new_parents.index(state)
        replacement = [p for p in state.parents if p not in new_parents and p is not child]
        new_parents[pos : pos + 1] = replacement
        child.parents = tuple(new_parents)
        if state is self.root:
            self.root = child
        del self._states[state.id]
        self._promotions[state.id] = child.id
        # A handle still holding the dead state (a finished transaction's
        # read state) must not pin the chain collected after it.
        state.children = []
        # Splicing rewrites edges and the promotion table, and the caller
        # merges write keys into the child: destructive for the
        # visibility cache.
        self.mark_destructive()
        m = _met.DEFAULT
        if m.enabled:
            if self._hot_registry is not m:
                self._hot_registry = m
                self._hot_splice = m.counter("tardis_dag_splice_total")
            self._hot_splice.inc()
        return child

    def retire_forks(self, dead_fork_ids: Set[StateId]) -> int:
        """Scrub fork-path entries of fully collapsed forks (§6.3).

        Clears the dead forks' bits from every live state's mask, then
        retires the bit positions through the ancestry index so they can
        be reused. Keeps fork paths proportional to *live* conflicts,
        which is what makes the Figure 7 subset check cheap over long
        executions (§6.1.3). Returns the number of entries scrubbed
        across all live states.
        """
        dead_mask = self.ancestry.mask_of_forks(dead_fork_ids)
        if not dead_mask:
            return 0
        keep = ~dead_mask
        scrubbed = 0
        for state in self._states.values():
            overlap = state.path_mask & dead_mask
            if overlap:
                scrubbed += popcount(overlap)
                state.path_mask &= keep
        self.ancestry.release_forks(dead_fork_ids)
        # Masks changed in place and bit positions will be reused: any
        # cache keyed on a path mask is now meaningless.
        self.mark_destructive()
        return scrubbed

    def promotion_of(self, state_id: StateId) -> Optional[StateId]:
        return self._promotions.get(state_id)

    @property
    def promotion_table_size(self) -> int:
        return len(self._promotions)

    def prune_promotions(self, held: Iterable[StateId]) -> int:
        """Keep only the entries of ``held`` ids, each aimed at its live heir.

        Every other entry is dropped, and its id then raises
        :class:`GarbageCollectedError`. The collector calls this once
        record promotion has re-keyed every version to a live id (§6.3),
        with the ids a session or a ceiling still holds. Because each
        kept entry is compressed, a chain never runs longer than the
        splices made since the previous prune. Returns the number of
        entries dropped.

        Dropping an entry is destructive: a cached ``resolve`` that
        relied on it would now raise, so cached reads keyed on the old
        ``destructive_gen`` must be invalidated.
        """
        promotions = self._promotions
        kept = {sid: self.resolve(sid).id for sid in held if sid in promotions}
        dropped = len(promotions) - len(kept)
        self._promotions = kept
        if dropped:
            self.mark_destructive()
        return dropped

    # -- invariants (used by property tests) ----------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when a structural invariant is violated.

        Checks: parent/child symmetry, id monotonicity along edges,
        leaf-set accuracy, fork-path consistency (every state's path is a
        superset of each parent's, with the correct fork entries), and
        agreement between the fork-path visibility test and the reference
        graph walk on sampled pairs.
        """
        self.ancestry.check_invariants()
        states = list(self._states.values())
        leaf_ids = {s.id for s in self._leaves.values()}
        for state in states:
            assert (state.id in leaf_ids) == state.is_leaf, state
            for parent in state.parents:
                assert parent.id < state.id, "child id not greater than parent"
                assert state in parent.children, "parent/child asymmetry"
                assert parent.path_mask & state.path_mask == parent.path_mask, (
                    "child path misses parent entries: %r -> %r"
                    % (parent, state)
                )
            for child in state.children:
                assert state in child.parents, "child/parent asymmetry"
            assert state.pins >= 0
        # Visibility equivalence on a bounded sample.
        sample = states[:20]
        for x in sample:
            for y in sample:
                assert self.descendant_check(x, y) == self.ancestor_walk_check(
                    x, y
                ), (x.id, y.id)
