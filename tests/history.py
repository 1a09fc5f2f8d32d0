"""Check a recorded history against the store's own log.

A run is checked from two things that already exist outside the store:

* the **rows**: one :class:`Row` per transaction, as its client saw it
  (read state, reads and their answers, writes, the commit state, a
  merge's parents, fork points and conflicts). :class:`History` records
  them by wrapping the handles a test already holds — an in-process
  ``Transaction``/``MergeTransaction`` or a ``TardisClient`` one;
* the **log**: each state's parents and write set, the
  :class:`~repro.core.ids.CommitRecord` entries of
  ``WriteAheadLog.read(path)``.

Nothing in the store is hooked. :func:`check` returns the violations of
the rules below (docs/internals.md, "Checking a recorded history"), an
empty list for a correct history:

1. **reads** — a read of ``k`` from read state ``r`` returns the write of
   the largest-id state that wrote ``k`` among ``r`` and its ancestors in
   the log's DAG; not found when that write is a tombstone or there is
   none. A read of a key the transaction wrote returns its own write.
2. **merge values** — for each parent take the writer rule 1 returns,
   drop those that are an ancestor of another; ``get_all(k)`` (a wire
   conflict's ``values``) is the rest, newest id first, tombstones left
   out. A wire conflict's ``base`` is rule 1 at the first fork point.
3. **merge conflicts** — with ``f`` the first fork point answered, the
   conflict keys are those written, for at least two heads, by the
   states after ``f`` on the head's ancestry (descendants of ``f``).
4. **commits** — :func:`check_log`: state ids are unique, parents are
   logged before their children, every acknowledged write commit is
   logged exactly once with its client's write set. A merge is logged
   under the parents it answered, a write-free commit answers its read
   state, and the log holds no commit nobody was acknowledged for.
5. **constraints** — the ``ancestor`` and ``parent`` begin constraints
   held against the session's last commit; under the default end
   constraint (serializability) the commit's parent is reached from the
   read state through children none of which wrote a key the
   transaction read.

Rules 3 and 5 are the ones the store keeps; the stronger forms it does
not keep yet are pinned in ``tests/test_history.py::TestKnownGaps``.

:func:`check_sites` judges a replicated run: each site's rows against
that site's own log under rules 1-5, and the logs against each other
under rules 6-9 (see its docstring); the placement gaps it names are
pinned in ``tests/test_replicated_history.py::TestKnownGaps``.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.core.transaction import TOMBSTONE
from repro.errors import KeyNotFound, TransactionAborted
from repro.replication import Cluster
from repro.storage.wal import WriteAheadLog

_RAISE = object()
#: what a read answered when the key was not found.
MISSING = object()
#: ``Row.reads`` own-write slot of a key the transaction had not written.
UNWRITTEN = object()


def state_id(value: Any) -> StateId:
    """A ``StateId`` from an id, a ``State`` or a wire repr (``s3@A``)."""
    if isinstance(value, StateId):
        return value
    if hasattr(value, "id"):
        return value.id
    if value == "s0":
        return ROOT_ID
    counter, site = value[1:].split("@", 1)
    return StateId(int(counter), "" if site == "?" else site)


@dataclass
class Row:
    """One transaction, as its client saw it."""

    #: the session's name; None for a transient (sessionless) one.
    session: Optional[str]
    merge: bool = False
    #: begin constraint name (lower case); merges begin on any state.
    begin: str = "ancestor"
    #: the end constraint given at commit; None is the default.
    end: Any = None
    read_state: Optional[StateId] = None
    parents: Tuple[StateId, ...] = ()
    fork_points: Tuple[StateId, ...] = ()
    #: the conflict keys a merge answered, once asked.
    conflicts: Optional[List[Any]] = None
    #: key -> a merge's ``get_all`` answer (or a wire conflict's values).
    values: Dict[Any, List[Any]] = field(default_factory=dict)
    #: key -> a wire conflict's ``base``.
    bases: Dict[Any, Any] = field(default_factory=dict)
    #: ``(key, answer or MISSING, own write or UNWRITTEN)`` per read.
    reads: List[Tuple[Any, Any, Any]] = field(default_factory=list)
    writes: Dict[Any, Any] = field(default_factory=dict)
    status: str = "active"
    commit_state: Optional[StateId] = None
    #: the history's clock when the read state was known and at commit.
    begun: int = -1
    committed: int = -1

    @property
    def logged(self) -> bool:
        """A committed merge or write commit: one log record."""
        return self.status == "committed" and (self.merge or bool(self.writes))


class History:
    """The rows of one run; :meth:`record` wraps a transaction handle."""

    def __init__(self) -> None:
        self.rows: List[Row] = []
        self._clock = itertools.count()

    def tick(self) -> int:
        return next(self._clock)

    def record(self, handle: Any, session: Optional[str], begin: str = "ancestor") -> "Recorded":
        """Wrap ``handle``; ``begin`` names a wire handle's begin constraint
        (an in-process one carries its own)."""
        constraint = getattr(handle, "begin_constraint", None)
        if constraint is not None:
            begin = constraint.name.lower()
        return Recorded(self, handle, session, begin)


class Recorded:
    """A transaction handle that records what its client saw.

    Works over an in-process transaction or a ``TardisClient`` one: the
    calls are the ones both spell the same, plus the merge helpers each
    side has (``get_all``, ``find_conflict_writes``,
    ``find_fork_points``, ``get_for_id`` in process; ``parents``,
    ``fork_points``, ``conflicts`` on the wire).
    """

    def __init__(self, history: History, handle: Any, session: Optional[str], begin: str) -> None:
        self._history = history
        self.handle = handle
        merge = hasattr(handle, "parents")
        self.row = row = Row(session, merge, begin="any" if merge else begin)
        history.rows.append(row)
        if merge:
            row.parents = tuple(map(state_id, handle.parents))
            row.begun = history.tick()
            if hasattr(handle, "conflicts"):  # the wire answered all of it
                row.fork_points = tuple(map(state_id, handle.fork_points))
                row.conflicts = [c["key"] for c in handle.conflicts]
                for conflict in handle.conflicts:
                    row.values[conflict["key"]] = list(conflict["values"])
                    row.bases[conflict["key"]] = conflict["base"]
        else:
            self._note_read_state()

    def __getattr__(self, name: str) -> Any:
        return getattr(self.handle, name)  # status, read_state, parents, ...

    def _note_read_state(self) -> None:
        row = self.row
        if row.read_state is None and getattr(self.handle, "read_state", None) is not None:
            row.read_state = state_id(self.handle.read_state)
            row.begun = self._history.tick()

    def _answer(self, key: Any, value: Any, default: Any) -> Any:
        self.row.reads.append((key, value, self.row.writes.get(key, UNWRITTEN)))
        if value is not MISSING:
            return value
        if default is _RAISE:
            raise KeyNotFound(key)
        return default

    def get(self, key: Any, default: Any = _RAISE) -> Any:
        try:
            value = self.handle.get(key, default=MISSING)
        finally:
            self._note_read_state()
        return self._answer(key, value, default)

    def get_many(self, keys: Sequence[Any], default: Any = _RAISE) -> List[Any]:
        keys = list(keys)
        try:
            values = self.handle.get_many(keys, default=MISSING)
        finally:
            self._note_read_state()
        return [self._answer(key, value, default) for key, value in zip(keys, values)]

    def put(self, key: Any, value: Any) -> None:
        self.handle.put(key, value)
        self.row.writes[key] = value

    def delete(self, key: Any) -> None:
        self.handle.delete(key)
        self.row.writes[key] = TOMBSTONE

    # -- merge helpers (in process) -----------------------------------------

    def get_all(self, key: Any) -> List[Any]:
        values = self.handle.get_all(key)
        self.row.values[key] = list(values)
        return values

    def find_conflict_writes(self) -> List[Any]:
        self.row.conflicts = list(self.handle.find_conflict_writes())
        if not self.row.fork_points:
            self.find_fork_points()
        return self.row.conflicts

    def find_fork_points(self) -> List[StateId]:
        forks = self.handle.find_fork_points()
        self.row.fork_points = tuple(map(state_id, forks))
        return forks

    def get_for_id(self, key: Any, sid: Any, default: Any = _RAISE) -> Any:
        """Read ``key`` at ``sid``; at the first fork point it is the
        three-way merge's base, which rule 2 checks."""
        value = self.handle.get_for_id(key, sid, default=MISSING)
        if self.row.fork_points[:1] == (state_id(sid),):
            self.row.bases[key] = None if value is MISSING else value
        if value is MISSING:
            if default is _RAISE:
                raise KeyNotFound(key)
            return default
        return value

    # -- lifecycle -------------------------------------------------------------

    def commit(self, end: Any = None) -> Any:
        row = self.row
        try:
            answer = self.handle.commit(end) if end is not None else self.handle.commit()
        except TransactionAborted:
            row.status = "aborted"
            raise
        finally:
            self._note_read_state()
        row.end = end
        row.status = "committed"
        row.commit_state = state_id(answer)
        row.committed = self._history.tick()
        return answer

    def abort(self) -> None:
        self.handle.abort()
        self.row.status = "aborted"


# -- the log's DAG --------------------------------------------------------------


class LogDAG:
    """The states of a log: parents, write sets, ancestor sets (bit masks
    over log positions; the root is bit 0). A record whose id repeats
    or whose parent is not logged before it is left out: :func:`check_log`
    reports it."""

    def __init__(self, records: Iterable[CommitRecord]) -> None:
        self.index: Dict[StateId, int] = {ROOT_ID: 0}
        self.writes: List[Dict[Any, Any]] = [{}]
        self.parents: List[Tuple[StateId, ...]] = [()]
        self.ancestors: List[int] = [1]
        #: key -> ids of the states that wrote it, largest first.
        self._writers: Dict[Any, List[StateId]] = defaultdict(list)
        self.children: Dict[StateId, List[StateId]] = defaultdict(list)
        for record in records:
            if record.state_id in self.index or not all(
                p in self.index for p in record.parent_ids
            ):
                continue
            position = len(self.writes)
            mask = 1 << position
            for parent in record.parent_ids:
                mask |= self.ancestors[self.index[parent]]
                self.children[parent].append(record.state_id)
            self.index[record.state_id] = position
            self.writes.append(record.writes)
            self.parents.append(record.parent_ids)
            self.ancestors.append(mask)
            for key in record.writes:
                self._writers[key].append(record.state_id)
        for writers in self._writers.values():
            writers.sort(reverse=True)

    def __contains__(self, sid: StateId) -> bool:
        return sid in self.index

    def is_ancestor(self, older: StateId, newer: StateId) -> bool:
        """``older`` is ``newer`` or one of its ancestors."""
        return bool(self.ancestors[self.index[newer]] >> self.index[older] & 1)

    def writer(self, key: Any, sid: StateId) -> Optional[StateId]:
        """The largest-id state that wrote ``key`` among ``sid`` and its ancestors."""
        mask = self.ancestors[self.index[sid]]
        for writer in self._writers.get(key, ()):
            if mask >> self.index[writer] & 1:
                return writer
        return None

    def read(self, key: Any, sid: StateId) -> Any:
        """What rule 1 says a read of ``key`` from ``sid`` returns."""
        writer = self.writer(key, sid)
        value = MISSING if writer is None else self.writes[self.index[writer]][key]
        return MISSING if value is TOMBSTONE else value

    def unresolved(self, key: Any, heads: Sequence[StateId], collected: Any) -> bool:
        """Among ``heads`` and their ancestors, a state of ``collected``
        wrote ``key``, so did a state concurrent with it, and no state
        after both wrote it: a conflict no merge resolved, whose collected
        writer a GC cycle re-keyed."""
        mask = 0
        for head in heads:
            mask |= self.ancestors[self.index[head]]
        writers = [w for w in self._writers.get(key, ()) if mask >> self.index[w] & 1]
        return any(
            not self.is_ancestor(u, w)
            and not self.is_ancestor(w, u)
            and not any(self.is_ancestor(u, m) and self.is_ancestor(w, m) for m in writers)
            for u in writers
            if u in collected
            for w in writers
        )

    def written_since(self, fork: StateId, head: StateId) -> set:
        """Keys written by the states after ``fork`` on ``head``'s ancestry:
        descendants of ``fork`` among ``head`` and its ancestors."""
        bit = self.index[fork]
        mask = self.ancestors[self.index[head]] & ~self.ancestors[bit]
        keys: set = set()
        while mask:
            low = mask & -mask
            position = low.bit_length() - 1
            if self.ancestors[position] >> bit & 1:
                keys.update(self.writes[position])
            mask ^= low
        return keys

    def ripples(self, start: StateId, end: StateId, read_keys: set) -> bool:
        """``end`` is reached from ``start`` through children, none of
        which wrote a key of ``read_keys`` (the serializability ripple)."""
        within = self.ancestors[self.index[end]]
        stack, seen = [start], {start}
        while stack:
            sid = stack.pop()
            if sid == end:
                return True
            for child in self.children[sid]:
                position = self.index[child]
                if (
                    child not in seen
                    and within >> position & 1
                    and not read_keys.intersection(self.writes[position])
                ):
                    seen.add(child)
                    stack.append(child)
        return False


# -- the rules --------------------------------------------------------------------


def check_log(records: Sequence[CommitRecord], acked: Iterable[Tuple[StateId, Dict]] = ()) -> List[str]:
    """Rule 4 on a log alone: ids are unique, parents are logged before
    their children, and each acknowledged ``(state id, write set)`` is
    logged exactly once with that write set."""
    problems = []
    counts = Counter(r.state_id for r in records)
    for sid, n in counts.items():
        if n > 1:
            problems.append("rule 4: state id %r logged %d times" % (sid, n))
    seen = {ROOT_ID}
    for record in records:
        for parent in record.parent_ids:
            if parent not in seen:
                problems.append(
                    "rule 4: %r logged before its parent %r" % (record.state_id, parent)
                )
        seen.add(record.state_id)
    logged = {r.state_id: r for r in records}
    for sid, writes in acked:
        if sid not in logged:
            problems.append("rule 4: acknowledged commit %r is not in the log" % (sid,))
        elif logged[sid].writes != writes:
            problems.append(
                "rule 4: %r logged writes %r, acknowledged %r" % (sid, logged[sid].writes, writes)
            )
    return problems


def check(history: History, path: str) -> List[str]:
    """Every violation of rules 1-5 by ``history`` against the log at
    ``path``; an empty list when there is none."""
    records = list(WriteAheadLog.read(path))
    acked = {row.commit_state for row in history.rows if row.logged}
    return _check_site(history.rows, records) + [
        "rule 4: %r is logged, but no commit of the history was acknowledged for it"
        % (record.state_id,)
        for record in records
        if record.state_id not in acked
    ]


def _check_site(rows: Sequence[Row], records: Sequence[CommitRecord], collected: Any = ()) -> List[str]:
    """Rules 1-5 of ``rows`` against one log, but for rule 4's "no commit
    nobody was acknowledged for". A rule 1 or 2 answer that
    :meth:`LogDAG.unresolved` explains with the ``collected`` ids is
    named ``gap 3``."""
    dag = LogDAG(records)
    logged = [row for row in rows if row.logged]
    problems = check_log(records, [(row.commit_state, row.writes) for row in logged])
    for row in rows:
        if row.merge:
            problems += _check_merge(row, dag, collected)
        else:
            problems += _check_txn(row, dag, collected)
    return problems + _check_sessions(rows, dag)


def logged_cluster(path: str, n_sites: int, **kwargs: Any) -> Cluster:
    """A cluster whose sites log to ``<path>.<site>``."""
    return Cluster(n_sites=n_sites, store_kwargs={"wal_path": path}, **kwargs)


def histories_of(cluster: Cluster) -> Dict[str, History]:
    return {site: History() for site in cluster.sites}


def settle(cluster: Cluster, histories: Dict[str, History]) -> None:
    """Drain the network, then read, at every site, every key a site's
    transactions wrote."""
    cluster.run()
    keys = sorted({key for h in histories.values() for row in h.rows for key in row.writes}, key=repr)
    for site, store in cluster.stores.items():
        reader = histories[site].record(store.begin(read_only=True), None)
        reader.get_many(keys, default=None)
        reader.commit()


def check_sites(cluster: Cluster, histories: Dict[str, History]) -> List[str]:
    """Every violation by the sites of a quiescent, logged ``Cluster``.

    Each site's rows are checked against that site's own log under rules
    1-5, and the logs against each other under rules 6-9:

    6. **placement** — a state id has the same parents and write set in
       every log that holds it (the StateID constraint, §6.4);
    7. **same ids** — every log holds the same ids;
    8. **origin** — every record of every log was acknowledged exactly
       once, at its origin site (the site its id names);
    9. **convergence** — ``cluster.converged(k)`` is what the logs say:
       each has one leaf, and rule 1 reads ``k`` there alike.

    Three known gaps are named instead of reported under their rule:
    ``gap 1``, an id missing from a site's log that the site's replicator
    dropped; ``gap 2``, a record logged under the heir of its parent: a
    descendant of an id in the receiving site's promotion table; ``gap
    3``, a rule 1 or 2 answer over a conflict no merge resolved, one of
    whose writers that site collected (record promotion re-keyed it).
    """
    logs = {site: list(WriteAheadLog.read(store.wal.path)) for site, store in cluster.stores.items()}
    dags = {site: LogDAG(records) for site, records in logs.items()}
    promoted = {}
    for site, store in cluster.stores.items():
        with store._lock:
            promoted[site] = store.dag.promotions()
    acks: Dict[StateId, List[str]] = defaultdict(list)
    for site, history in histories.items():
        for row in history.rows:
            if row.logged:
                acks[row.commit_state].append(site)
    problems = []
    for site, records in logs.items():
        problems += [
            p.replace(": ", " at %s: " % site, 1)
            for p in _check_site(histories[site].rows, records, promoted[site])
        ]
    placed: Dict[StateId, Dict[str, CommitRecord]] = defaultdict(dict)
    for site, records in logs.items():
        for record in records:
            placed[record.state_id].setdefault(site, record)
    for sid, at in placed.items():
        if acks[sid] != [sid.site]:
            problems.append(
                "rule 8: %r is logged at %s, acknowledged at %s"
                % (sid, ", ".join(sorted(at)), ", ".join(acks[sid]) or "no site")
            )
        origin = at.get(sid.site) or next(iter(at.values()))
        for site, record in at.items():
            if record[1:] != origin[1:]:
                problems.append(misplaced(site, origin, record, dags[site], promoted[site]))
    for site, replicator in cluster.replicators.items():
        dropped = replicator.dropped_ids
        for sid in sorted(set(placed) - {record.state_id for record in logs[site]}):
            if sid in dropped:
                problems.append("gap 1: %r is not in %s's log: its replicator dropped it" % (sid, site))
            else:
                problems.append("rule 7: %r is not in %s's log" % (sid, site))
    return problems + _check_convergence(cluster, dags)


def misplaced(
    site: str, origin: CommitRecord, record: CommitRecord, dag: LogDAG, promoted: Dict
) -> str:
    """The rule 6 line for ``record`` as ``site`` logged it against
    ``origin``, or its gap 2 name (``dag`` and ``promoted`` are the
    site's log and promotion table)."""
    if record.writes == origin.writes and len(record.parent_ids) == len(origin.parent_ids) and all(
        mine == theirs
        or (theirs in promoted and theirs in dag and mine in dag and dag.is_ancestor(theirs, mine))
        for mine, theirs in zip(record.parent_ids, origin.parent_ids)
    ):
        return "gap 2: %r is logged at %s under %r, heirs of %r" % (
            record.state_id, site, record.parent_ids, origin.parent_ids,
        )
    return "rule 6: %r is logged at %s under %r writing %r, at %s under %r writing %r" % (
        record.state_id, site, record.parent_ids, record.writes,
        origin.state_id.site, origin.parent_ids, origin.writes,
    )


def _check_convergence(cluster: Any, dags: Dict[str, LogDAG]) -> List[str]:
    """Rule 9 for every key a log holds."""
    leaves = {}
    for site, dag in dags.items():
        ends = [sid for sid in dag.index if not dag.children.get(sid)]
        leaves[site] = ends[0] if len(ends) == 1 else None
    keys = {key for dag in dags.values() for writes in dag.writes for key in writes}
    problems = []
    for key in sorted(keys, key=repr):
        values = []
        for site, dag in dags.items():
            if leaves[site] is None:
                break
            writer = dag.writer(key, leaves[site])
            values.append(None if writer is None else dag.writes[dag.index[writer]][key])
        said = len(values) == len(dags) and all(v == values[0] for v in values)
        if cluster.converged(key) != said:
            problems.append(
                "rule 9: Cluster.converged(%r) is %s, the logs say %s" % (key, not said, said)
            )
    return problems


def _unknown(dag: LogDAG, *sids: Optional[StateId]) -> List[str]:
    return ["%r is not a logged state" % (sid,) for sid in sids if sid is not None and sid not in dag]


def _check_txn(row: Row, dag: LogDAG, collected: Any) -> List[str]:
    problems = []
    where = "txn of %s at %r" % (row.session, row.read_state)
    if row.read_state is None:
        return []  # its first request failed: nothing was read from a state
    missing = _unknown(dag, row.read_state)
    if missing:
        return ["rule 1: %s: %s" % (where, m) for m in missing]
    for key, answer, own in row.reads:
        if own is not UNWRITTEN:
            expected = MISSING if own is TOMBSTONE else own
        else:
            expected = dag.read(key, row.read_state)
        if answer is not expected and answer != expected:
            rule = "gap 3" if dag.unresolved(key, [row.read_state], collected) else "rule 1"
            problems.append(
                "%s: %s read %r = %s, the log says %s"
                % (rule, where, key, _show(answer), _show(expected))
            )
    if row.status != "committed":
        return problems
    if not row.writes:
        if row.commit_state != row.read_state:
            problems.append(
                "rule 4: %s wrote nothing but answered commit state %r"
                % (where, row.commit_state)
            )
        return problems
    if row.commit_state not in dag:
        return problems  # rule 4 already reports it
    parents = dag.parents[dag.index[row.commit_state]]
    if len(parents) != 1 or not dag.is_ancestor(row.read_state, parents[0]):
        return problems + [
            "rule 5: %s committed %r under %r, not under one descendant of its read state"
            % (where, row.commit_state, parents)
        ]
    read_keys = {key for key, _answer, _own in row.reads}
    if row.end is None and not dag.ripples(row.read_state, parents[0], read_keys):
        problems.append(
            "rule 5: %s committed %r past a state that wrote a key it read (%r)"
            % (where, row.commit_state, sorted(read_keys, key=repr))
        )
    return problems


def _check_merge(row: Row, dag: LogDAG, collected: Any) -> List[str]:
    where = "merge of %s over %r" % (row.session, row.parents)
    missing = _unknown(dag, *row.parents, *row.fork_points)
    if missing:
        return ["rule 2: %s: %s" % (where, m) for m in missing]
    problems = []
    for key, values in row.values.items():
        writers = {dag.writer(key, parent) for parent in row.parents} - {None}
        newest = sorted(
            (w for w in writers if not any(w != v and dag.is_ancestor(w, v) for v in writers)),
            reverse=True,
        )
        expected = [dag.writes[dag.index[w]][key] for w in newest]
        expected = [value for value in expected if value is not TOMBSTONE]
        if values != expected:
            rule = "gap 3" if dag.unresolved(key, row.parents, collected) else "rule 2"
            problems.append(
                "%s: %s get_all(%r) = %r, the log says %r" % (rule, where, key, values, expected)
            )
    for key, base in row.bases.items():
        expected = dag.read(key, row.fork_points[0]) if row.fork_points else MISSING
        if base != (None if expected is MISSING else expected):
            problems.append(
                "rule 2: %s base of %r = %r, the log says %s" % (where, key, base, _show(expected))
            )
    if row.conflicts is not None:
        expected_keys: set = set()
        if row.fork_points:
            fork = row.fork_points[0]
            seen: Counter = Counter()
            for head in row.parents:
                seen.update(dag.written_since(fork, head))
            expected_keys = {key for key, n in seen.items() if n >= 2}
        if set(row.conflicts) != expected_keys:
            problems.append(
                "rule 3: %s conflicts %r, the log says %r"
                % (where, sorted(row.conflicts, key=repr), sorted(expected_keys, key=repr))
            )
    if row.status == "committed" and row.commit_state in dag:
        logged = dag.parents[dag.index[row.commit_state]]
        if logged != row.parents:
            problems.append(
                "rule 4: %s committed %r under %r" % (where, row.commit_state, logged)
            )
    return problems


def _check_sessions(rows: Sequence[Row], dag: LogDAG) -> List[str]:
    """Rule 5's begin half: replay each session's begins and commits in
    the order the clients saw them answered."""
    events = []
    for row in rows:
        if row.read_state is not None and row.session is not None:
            events.append((row.begun, "begin", row))
        if row.status == "committed" and row.session is not None:
            events.append((row.committed, "commit", row))
    last: Dict[str, StateId] = defaultdict(lambda: ROOT_ID)
    problems = []
    for _when, what, row in sorted(events, key=lambda e: e[0]):
        if what == "commit":
            last[row.session] = row.commit_state
            continue
        anchor, state = last[row.session], row.read_state
        if row.begin == "parent" and state != anchor:
            problems.append(
                "rule 5: %s began at %r, not at its last commit %r" % (row.session, state, anchor)
            )
        elif (
            row.begin == "ancestor"
            and anchor in dag
            and state in dag
            and not dag.is_ancestor(anchor, state)
        ):
            problems.append(
                "rule 5: %s began at %r, not a descendant of its last commit %r"
                % (row.session, state, anchor)
            )
    return problems


def _show(value: Any) -> str:
    return "not found" if value is MISSING else repr(value)
