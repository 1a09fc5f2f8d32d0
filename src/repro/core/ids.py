"""State identifiers.

The paper requires state identifiers to be (i) monotonically increasing
along every branch, so that the key-version mapping stays topologically
sorted (§6.1.4), and (ii) stable across replication, so that a state keeps
its identity at every site (StateID replication, §6.4/§7.2.1).

Both properties hold for Lamport pairs ``(counter, site)`` ordered
lexicographically: a child's counter is one greater than the maximum of
its parents' counters, so ancestors always order before descendants; the
site component makes ids issued by different sites globally unique.

A committed transaction is a :class:`CommitRecord`: its state id, its
parent ids and its write set. The same record is what a site logs
(§6.5), what it replicates (§6.4) and what recovery replays; it lives
here so that ``core`` and ``storage`` can both import it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Tuple


class StateId(NamedTuple):
    """Globally unique, branch-monotonic state identifier."""

    counter: int
    site: str

    def __repr__(self) -> str:
        if self.counter == 0 and not self.site:
            return "s0"
        return "s%d@%s" % (self.counter, self.site or "?")


#: The identifier of the initial (empty) state at every site.
ROOT_ID = StateId(0, "")


class CommitRecord(NamedTuple):
    """One committed transaction: graft ``writes`` under ``parent_ids``.

    The log, the replicator and recovery all carry this one record;
    its write set's keys are the state's write keys.
    """

    state_id: StateId
    parent_ids: Tuple[StateId, ...]
    writes: Dict[Any, Any]


class IdAllocator:
    """Issues fresh state ids for one site, Lamport-style.

    ``next_id(parent_ids)`` returns an id strictly greater than every
    parent id, which preserves monotonicity along branches even when the
    parents were created at other sites. Observing remote ids (via
    ``observe``) keeps the local counter ahead of everything the site has
    seen, exactly like a Lamport clock.
    """

    def __init__(self, site: str) -> None:
        if not site:
            raise ValueError("site name must be non-empty")
        self._site = site
        self._counter = 0

    @property
    def site(self) -> str:
        return self._site

    def observe(self, state_id: StateId) -> None:
        """Advance the clock past an id seen from elsewhere."""
        if state_id.counter > self._counter:
            self._counter = state_id.counter

    def next_id(self, parent_ids: Iterable[StateId] = ()) -> StateId:
        # A plain loop: it runs once per commit.
        counter = self._counter
        for pid in parent_ids:
            if pid[0] > counter:
                counter = pid[0]
        counter += 1
        self._counter = counter
        return StateId(counter, self._site)
