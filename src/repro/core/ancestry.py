"""Fork points, fork paths and the ancestry index (§6.1.3, Figures 5, 7).

TARDiS abandons per-operation dependency tracking and summarizes a branch
by its *fork points*. A fork point is a pair ``(i, b)`` meaning "this
state is a descendant of the b-th child of state i". The set of fork
points accumulated along a branch is its *fork path*, and the ancestry
test of Figure 7 reduces to a subset check:

    state ``y`` can see records written at state ``x`` iff
    ``x.id == y.id``, or ``x.id < y.id`` and ``x.path ⊆ y.path``.

Merge states take the *union* of their parents' fork paths: carrying both
``(i, b1)`` and ``(i, b2)`` is precisely what makes the records of both
merged branches visible downstream of the merge.

The paper argues this check is cheap enough to run on *every* read; a
per-probe ``frozenset`` comparison squanders that cheapness on hashing
and allocation. This module makes the test a single machine-word-ish
operation: every :class:`ForkPoint` ever observed by a DAG is *interned*
to a small bit position, a state's fork path is an immutable int bitmask
(``State.path_mask``), and

    ``x ⊆ y``  becomes  ``x_mask & y_mask == x_mask``.

Fork paths stay small because conflicts are a small fraction of all
operations (§6.1.3), so the masks stay within one or two machine words
in steady state — especially since garbage collection *retires* the bits
of fully collapsed forks (see :meth:`AncestryIndex.release_forks`),
keeping the bit universe proportional to live conflicts rather than to
history length.

The index is owned by one :class:`~repro.core.state_dag.StateDAG`; bit
positions are site-local and never cross the replication wire (remote
states are re-encoded as they are grafted into the local DAG, so each
site's interning stays self-consistent).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set

from repro.core.ids import StateId


class ForkPoint(NamedTuple):
    """One branching decision: descendant of child ``branch`` of ``state_id``."""

    state_id: StateId
    branch: int

    def __repr__(self) -> str:
        return "(%r,%d)" % (self.state_id, self.branch)


def popcount(mask: int) -> int:
    """Number of set bits (fork-path length of an encoded path)."""
    return bin(mask).count("1")


class AncestryIndex:
    """Interns fork points to bit positions; fork paths become bitmasks.

    The three operations on the hot path are O(1) on word-sized masks:

    * :meth:`intern` — fork point -> single-bit mask (assigns a fresh bit
      on first sight, reusing retired positions);
    * subset test — plain ``x & y == x`` on the caller's side;
    * :meth:`release_forks` — retire every bit belonging to collapsed
      fork states so positions can be reused (GC's dead-fork rewriting).

    Decoding (:meth:`points_of`) is only needed for reports and the
    branch-structure queries of the merge-mode API — never on the read
    path.
    """

    __slots__ = ("_bit_of", "_point_at", "_fork_bits", "_free")

    def __init__(self) -> None:
        #: fork point -> bit position
        self._bit_of: Dict[ForkPoint, int] = {}
        #: bit position -> fork point (None for retired positions)
        self._point_at: List[Optional[ForkPoint]] = []
        #: fork state id -> mask of every position interned for it
        self._fork_bits: Dict[StateId, int] = {}
        #: retired positions available for reuse
        self._free: List[int] = []

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of live (interned, not retired) fork points."""
        return len(self._bit_of)

    @property
    def capacity(self) -> int:
        """Highest bit position ever assigned (mask width in bits)."""
        return len(self._point_at)

    # -- encoding ----------------------------------------------------------

    def intern(self, point: ForkPoint) -> int:
        """Return the single-bit mask of ``point``, interning it if new."""
        pos = self._bit_of.get(point)
        if pos is None:
            if self._free:
                pos = self._free.pop()
                self._point_at[pos] = point
            else:
                pos = len(self._point_at)
                self._point_at.append(point)
            self._bit_of[point] = pos
            self._fork_bits[point.state_id] = self._fork_bits.get(
                point.state_id, 0
            ) | (1 << pos)
        return 1 << pos

    def mask_of(self, points: Iterable[ForkPoint]) -> int:
        """Encode an iterable of fork points as one bitmask."""
        mask = 0
        for point in points:
            mask |= self.intern(point)
        return mask

    # -- decoding ----------------------------------------------------------

    def points_of(self, mask: int) -> Iterator[ForkPoint]:
        """The fork points encoded by ``mask`` (ascending bit position)."""
        point_at = self._point_at
        while mask:
            low = mask & -mask
            point = point_at[low.bit_length() - 1]
            if point is not None:
                yield point
            mask ^= low

    def choices_by_fork(self, mask: int) -> Dict[StateId, Set[int]]:
        """Branch choices encoded in ``mask``, grouped by fork state."""
        choices: Dict[StateId, Set[int]] = {}
        for point in self.points_of(mask):
            choices.setdefault(point.state_id, set()).add(point.branch)
        return choices

    # -- retirement (GC's dead-fork rewriting, §6.3) -----------------------

    def mask_of_forks(self, fork_ids: Iterable[StateId]) -> int:
        """Combined mask of every bit interned for the given fork states."""
        mask = 0
        for fork_id in fork_ids:
            mask |= self._fork_bits.get(fork_id, 0)
        return mask

    def release_forks(self, fork_ids: Iterable[StateId]) -> int:
        """Retire every bit of the given (collapsed) fork states.

        The caller must already have cleared those bits from every live
        state's mask — afterwards the positions are recycled for future
        fork points, which is what keeps the bit universe proportional to
        *live* conflicts. Returns the number of positions retired.
        """
        retired = 0
        for fork_id in fork_ids:
            bits = self._fork_bits.pop(fork_id, 0)
            while bits:
                low = bits & -bits
                pos = low.bit_length() - 1
                point = self._point_at[pos]
                if point is not None:
                    del self._bit_of[point]
                    self._point_at[pos] = None
                    self._free.append(pos)
                    retired += 1
                bits ^= low
        return retired

    def check_invariants(self) -> None:
        """Raise AssertionError when the interning tables disagree."""
        for point, pos in self._bit_of.items():
            assert self._point_at[pos] == point, (point, pos)
            assert self._fork_bits.get(point.state_id, 0) & (1 << pos), point
        live_positions = set(self._bit_of.values())
        for pos, point in enumerate(self._point_at):
            assert (point is not None) == (pos in live_positions), pos
        for pos in self._free:
            assert self._point_at[pos] is None, pos

    def __repr__(self) -> str:
        return "<AncestryIndex live=%d capacity=%d free=%d>" % (
            len(self._bit_of),
            len(self._point_at),
            len(self._free),
        )
