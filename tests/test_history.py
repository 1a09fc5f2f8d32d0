"""Recorded histories checked against the store's own log (tests/history.py).

Three drivers produce histories on the flat, inline-sharded and
2-worker planes, each on a logged store, and :func:`tests.history.check`
judges them from the rows and the log alone:

* a seeded in-process schedule: three sessions with interleaved open
  transactions, deletes, merges and GC cycles;
* ``hypothesis`` over three ``TardisClient``s of one unstarted server,
  each talking to its ``WireSession`` with no socket, with interleaved
  open transactions, read-only ones, merges and ``collect_garbage``;
* mutation tests: each plants one bug in a running store and the
  checker must report it;
* ``TestKnownGaps``: what the store does where a stronger rule fails.

Running this file as a script runs the long seeded sweep over all three
planes: ``python tests/test_history.py [seeds]``.
"""

import os
import random
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TardisStore
from repro.core.commit import MERGE, CommitPipeline
from repro.core.versions import VersionedRecordStore
from repro.errors import (
    BeginError,
    CrossShardAbort,
    GarbageCollectedError,
    ServerError,
    TransactionAborted,
)
from repro.partitioning import ShardedRecordStore
from repro.client import TardisClient
from repro.server.handlers import WireSession
from repro.server.protocol import PROTOCOL_VERSION, ClientChannel, FrameDecoder, encode_frame
from repro.server.server import TardisServer
from repro.storage.wal import WriteAheadLog

if __name__ == "__main__":  # run as a script: the repo root holds ``tests``
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.history import History, LogDAG, check  # noqa: E402

PLANES = {
    "flat": {},
    "inline": {"shards": 4},
    "pipe": {"shards": 4, "shard_workers": 2},
}
KEYS = ["k%d" % i for i in range(6)]


def shape(path):
    """``(forks, merges)`` of a log: states with two or more children,
    states with two or more parents."""
    dag = LogDAG(WriteAheadLog.read(path))
    return (
        sum(len(children) >= 2 for children in dag.children.values()),
        sum(len(parents) >= 2 for parents in dag.parents),
    )


def resolve(merge):
    """Resolve every conflict to the largest value (delete when none)."""
    for key in merge.find_conflict_writes():
        values = merge.get_all(key)
        if values:
            merge.put(key, max(values))
        else:
            merge.delete(key)


# ---------------------------------------------------------------------------
# The seeded in-process schedule.


def run_schedule(store, seed, steps=200):
    """Drive ``store`` with one seeded interleaving; returns its History.

    Three sessions, each with at most one open transaction at a time, so
    a commit can meet another session's newer write and fork; merges
    resolve every conflict, GC cycles run with every ceiling placed.
    """
    history = History()
    rng = random.Random(seed)
    sessions = [store.session("c%d" % i) for i in range(3)]
    open_txns = [None] * 3
    for _step in range(steps):
        step(history, store, sessions, open_txns, rng)
    finish(history, store, open_txns)
    return history


def step(history, store, sessions, open_txns, rng):
    """One step of a schedule: a read or write (beginning a transaction
    when the session has none open), a commit, an abort, a merge or a GC
    cycle. Aborts and requests on collected states are outcomes of the
    schedule; a ``CrossShardAbort`` or ``ShardUnavailableError`` is not:
    the flat store cannot raise either, so on a sharded plane it fails
    the run."""
    i = rng.randrange(len(sessions))
    session, txn = sessions[i], open_txns[i]
    roll = rng.random()
    try:
        if roll < 0.6:
            if txn is None:
                txn = open_txns[i] = history.record(
                    store.begin(session=session, read_only=rng.random() < 0.2),
                    session.name,
                )
            op, key = rng.random(), rng.choice(KEYS)
            if op < 0.4 or txn.read_only:
                txn.get(key, default=None)
            elif op < 0.5:
                txn.get_many(rng.sample(KEYS, 3), default=None)
            elif op < 0.9:
                txn.put(key, rng.randrange(1000))
            else:
                txn.delete(key)
        elif roll < 0.82:
            if txn is not None:
                open_txns[i] = None
                txn.commit()
        elif roll < 0.86:
            if txn is not None:
                open_txns[i] = None
                txn.abort()
        elif roll < 0.93:
            merge = history.record(store.begin_merge(session=session), session.name)
            resolve(merge)
            merge.get_all(rng.choice(KEYS))
            merge.commit()
        else:
            for s in sessions:
                s.place_ceiling()
            store.collect_garbage()
    except CrossShardAbort:
        raise  # a shard-plane failure: the flat store cannot raise it
    except (TransactionAborted, GarbageCollectedError):
        pass


def finish(history, store, open_txns):
    """Commit the open transactions, then read every key once."""
    for txn in open_txns:
        if txn is not None:
            txn.commit()
    reader = history.record(store.begin(read_only=True), None)
    reader.get_many(KEYS, default=None)
    reader.commit()


def seeded_history(plane, seed, path):
    """Run the schedule on a fresh logged store; returns what ``check``
    found, the log's ``(forks, merges)`` and how each transaction ended."""
    store = TardisStore("site", wal_path=path, **PLANES[plane])
    try:
        history = run_schedule(store, seed)
    finally:
        store.close()
        assert store.leaked_workers == 0
    return check(history, path), shape(path), [row.status for row in history.rows]


class TestSeededHistories:
    @pytest.mark.parametrize("seed", [42, 9])
    @pytest.mark.parametrize("plane", sorted(PLANES))
    def test_the_history_checks_against_the_log(self, tmp_path, plane, seed):
        problems, (forks, merges), ends = seeded_history(plane, seed, str(tmp_path / "wal.log"))
        assert problems == []
        assert forks > 0 and merges > 0
        # Every transaction commits or aborts as it does on the flat store.
        assert ends == seeded_history("flat", seed, str(tmp_path / "flat.log"))[2]


# ---------------------------------------------------------------------------
# hypothesis over WireSession.handle: the client's calls, no socket.


class SocketlessClient(TardisClient):
    """``TardisClient`` with one ``WireSession`` of an unstarted server in
    place of its socket: each frame is decoded, handled and answered in
    this thread through the client's own channel."""

    def __init__(self, server, conn_id, session):
        self._wire = WireSession(server, conn_id)
        self._requests = FrameDecoder()
        self._channel = ClientChannel()
        self._closed = []
        hello = self._call("HELLO", {"session": session, "protocol": PROTOCOL_VERSION})
        self.session, self.site = hello["session"], hello["site"]

    def _exchange(self, frame):
        self._requests.feed(frame)
        answer = self._wire.handle(self._requests.next_frame())
        self._wire.server._collect_if_grown()  # what the store thread runs next
        self._channel.feed(encode_frame(answer))
        return self._channel.response()


#: (what, session, key, value) steps.
STEPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "read", "write", "write", "delete", "commit",
                         "commit", "abort", "merge", "gc"]),
        st.integers(0, 2),
        st.sampled_from(KEYS[:4]),
        st.integers(0, 99),
    ),
    min_size=20,
    max_size=80,
)


def expected_wire_error(exc):
    """An error the schedule can meet: an abort, a refused begin, or a
    request on a state GC took (the server answers ``INTERNAL`` with the
    exception's repr). Any other wire error is a fault of the server."""
    if isinstance(exc, ServerError):
        return exc.code == "INTERNAL" and exc.message.startswith("GarbageCollectedError(")
    return isinstance(exc, (BeginError, TransactionAborted))


def drive_wire(server, steps):
    """Run ``steps`` over three sessions of ``server``; returns the History."""
    history = History()
    clients = [SocketlessClient(server, n, "w%d" % n) for n in range(3)]
    open_txns = [None] * 3
    for what, i, key, value in steps:
        client, txn = clients[i], open_txns[i]
        try:
            if what in ("read", "write", "delete"):
                if txn is None:
                    constraint = "parent" if value % 7 == 0 else None
                    txn = open_txns[i] = history.record(
                        client.begin(read_only=value % 5 == 0, constraint=constraint),
                        client.session,
                        constraint or "ancestor",
                    )
                if what == "read" or txn.read_only:
                    txn.get(key, default=None)
                elif what == "write":
                    txn.put(key, value)
                else:
                    txn.delete(key)
            elif what in ("commit", "abort") and txn is not None:
                open_txns[i] = None
                txn.commit() if what == "commit" else txn.abort()
            elif what == "merge":
                merge = history.record(client.merge(), client.session)
                for conflict in merge.conflicts:
                    merge.put(conflict["key"], max(conflict["values"] or [None]))
                merge.commit()
            elif what == "gc":
                server.store.collect_garbage()
        except Exception as exc:
            if not expected_wire_error(exc):
                raise
            if txn is not None and txn.status != "active":
                open_txns[i] = None  # the server says it is over
    for txn in open_txns:
        if txn is not None:
            try:
                txn.commit()
            except Exception as exc:
                if not expected_wire_error(exc):
                    raise
    return history


class TestWireInterleavings:
    @pytest.mark.parametrize(
        "plane, examples", [("flat", 40), ("inline", 40), ("pipe", 12)]
    )
    def test_interleaved_wire_sessions_check_against_the_log(self, plane, examples):
        seen = Counter()

        @settings(max_examples=examples, deadline=None, derandomize=True)
        @given(steps=STEPS)
        def run(steps):
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "wal.log")
                store = TardisStore("wire", wal_path=path, **PLANES[plane])
                try:
                    history = drive_wire(TardisServer(store), steps)
                finally:
                    store.close()
                assert check(history, path) == []
                forks, merges = shape(path)
                seen.update(histories=1, forks=forks, merges=merges)

        run()
        # The generated histories branch and merge, not just append.
        assert seen["forks"] > 0 and seen["merges"] > 0, seen


# ---------------------------------------------------------------------------
# Mutation tests: plant a bug in a running store, and the checker says so.


@pytest.fixture
def logged(tmp_path):
    """``(store, history, path)`` on a fresh log; sharding as asked."""
    path = str(tmp_path / "wal.log")
    stores = []

    def make(**sharding):
        store = TardisStore("A", wal_path=path, **sharding)
        stores.append(store)
        return store, History(), path

    yield make
    for store in stores:
        store.close()


def put(history, store, session, key, value):
    txn = history.record(store.begin(session=session), session.name)
    txn.put(key, value)
    return txn.commit()


def read(history, store, session, *keys):
    txn = history.record(store.begin(session=session, read_only=True), session.name)
    values = [txn.get(key, default=None) for key in keys]
    txn.commit()
    return values


def fork(history, store, key, *branches):
    """Each ``(session, writes)`` reads ``key`` from one read state, then
    commits its ``writes`` in turn: when they write ``key``, every commit
    after the first forks."""
    txns = [(history.record(store.begin(session=s), s.name), w) for s, w in branches]
    for txn, _writes in txns:
        txn.get(key, default=None)
    for txn, writes in txns:
        for name, value in writes.items():
            txn.put(name, value)
        txn.commit()


def fork_and_merge(history, store):
    """Two sessions write ``x`` from one read state, then a merge."""
    a, b = store.session("a"), store.session("b")
    put(history, store, a, "x", 0)
    fork(history, store, "x", (a, {"x": 1}), (b, {"x": 2}))
    merge = history.record(store.begin_merge(session=a), "a")
    resolve(merge)
    merge.commit()
    return read(history, store, a, "x")


class TestMutations:
    def test_the_unplanted_scripts_check(self, logged):
        store, history, path = logged()
        session = store.session("s")
        put(history, store, session, "x", 1)
        assert fork_and_merge(history, store) == [2]
        assert check(history, path) == []

    def test_a_stale_read(self, logged, monkeypatch):
        real = VersionedRecordStore.read_visible

        def stale(self, key, state, dag):
            if key in state.write_keys and state.parents:
                state = state.parents[0]  # misses the read state's own write
            return real(self, key, state, dag)

        store, history, path = logged()
        monkeypatch.setattr(VersionedRecordStore, "read_visible", stale)
        session = store.session("s")
        put(history, store, session, "x", 1)
        put(history, store, session, "x", 2)
        assert read(history, store, session, "x") == [1]
        assert any(p.startswith("rule 1:") for p in check(history, path))

    def test_a_dropped_write(self, logged, monkeypatch):
        store, history, path = logged()
        append, appended = WriteAheadLog.append_commit, []

        def drop_second(self, entry):
            appended.append(entry)
            if len(appended) != 2:
                append(self, entry)

        monkeypatch.setattr(WriteAheadLog, "append_commit", drop_second)
        session = store.session("s")
        for value in range(3):
            put(history, store, session, "x", value)
        problems = check(history, path)
        assert any("is not in the log" in p for p in problems), problems

    def test_a_torn_merge(self, logged, monkeypatch):
        real = CommitPipeline.commit

        def one_parent(self, parents, writes, state_id=None, origin="local"):
            if origin == MERGE:
                parents = parents[:1]  # grafted under one branch only
            return real(self, parents, writes, state_id, origin)

        store, history, path = logged()
        monkeypatch.setattr(CommitPipeline, "commit", one_parent)
        fork_and_merge(history, store)
        assert any(p.startswith("rule 4: merge") for p in check(history, path))

    def test_a_sharded_commit_installed_on_one_worker(self, logged, monkeypatch):
        real = ShardedRecordStore.install_commit

        def first_worker_only(self, plan, state):
            return real(self, [(s, items) for s, items in plan if s % 2 == 0], state)

        store, history, path = logged(shards=2, shard_workers=2)
        monkeypatch.setattr(ShardedRecordStore, "install_commit", first_worker_only)
        session = store.session("s")
        txn = history.record(store.begin(session=session), "s")
        for key in KEYS:
            txn.put(key, key.upper())
        txn.commit()
        read(history, store, session, *KEYS)
        assert any(p.startswith("rule 1:") for p in check(history, path))

    def test_a_reissued_state_id(self, logged, monkeypatch):
        store, history, path = logged()
        session = store.session("s")
        put(history, store, session, "x", 1)
        store.close()
        # A reopened log that is not replayed: ids restart at s1.
        monkeypatch.setattr(
            TardisStore,
            "_replay",
            lambda self, path: {"checkpoint_states": 0, "replayed": 0, "discarded": 0},
        )
        again, _, _ = logged()
        put(history, again, again.session("s2"), "y", 1)
        problems = check(history, path)
        assert any("logged 2 times" in p for p in problems), problems


# ---------------------------------------------------------------------------
# Three stronger rules the store does not keep yet: rules 3 and 5 in their
# strong form, and "a GC cycle changes no answer". The checker states what
# the store does keep; each test pins what the store does today, so a change
# to the setup fails it loudly, and so does mending the gap (then turn the
# pin into the stronger rule).


class TestKnownGaps:
    def test_a_commit_ripples_past_a_merge_that_changed_a_key_it_read(self, logged):
        store, history, path = logged()
        b, c = store.session("b"), store.session("c")
        put(history, store, store.session("a"), "x", 1)
        fork(history, store, "x", (c, {"x": 3}), (b, {"x": 2}))
        txn = history.record(store.begin(session=c), "c")
        assert txn.get("x") == 3
        txn.put("x", 13)
        merge = history.record(store.begin_merge(session=store.session("m")), "m")
        merge_state = merge.commit()
        commit = txn.commit()
        assert check(history, path) == []  # the store's own ripple rule held
        dag = LogDAG(WriteAheadLog.read(path))
        assert dag.parents[dag.index[commit]] == (merge_state,)
        assert dag.read("x", merge_state) == 2  # the read of 3 is stale there

    def test_a_merge_of_three_heads_reports_the_nearest_forks_conflicts(self, logged):
        store, history, path = logged()
        a, b, c, d = (store.session(name) for name in "abcd")
        put(history, store, a, "z", 0)
        fork(history, store, "z", (b, {"z": 1, "k": "b"}), (c, {"z": 2}))  # at s1
        fork(history, store, "y", (c, {"y": 1, "k": "c"}), (d, {"y": 2}))  # at s3
        merge = history.record(store.begin_merge(session=a), "a")
        assert len(merge.parents) == 3
        assert sorted(merge.get_all("k")) == ["b", "c"]
        conflicts = merge.find_conflict_writes()
        merge.commit()
        assert check(history, path) == []  # the nearest-fork rule held
        assert sorted(conflicts) == ["y"]  # "k" is left out

    def test_a_collection_changes_an_unresolved_read(self, logged):
        store, history, path = logged()
        a, b, c = (store.session(name) for name in "abc")
        put(history, store, a, "z", 0)
        fork(history, store, "z", (b, {"z": 1, "k": "old"}), (c, {"z": 2}))  # s2, s3
        put(history, store, c, "k", "new")  # s4: the newest write of k
        put(history, store, b, "x", 1)  # s5, the heir of s2
        b.place_ceiling()
        assert store.collect_garbage().states_removed == 2  # s1's fork stays
        merge = history.record(store.begin_merge(session=a), "a")
        assert sorted(merge.find_conflict_writes()) == ["k", "z"]
        merge.get_all("k")
        merge.put("z", 3)  # k is left unresolved
        merge.commit()
        read(history, store, a, "k")
        assert check(history, path) == [
            "rule 2: merge of a over (s5@A, s4@A) get_all('k') = ['old', 'new'],"
            " the log says ['new', 'old']",
            "rule 1: txn of a at s6@A read 'k' = 'old', the log says 'new'",
        ]


def main(seeds=24):
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(seeds):
            for plane in sorted(PLANES):
                path = os.path.join(tmp, "%s-%d.log" % (plane, seed))
                problems, (forks, merges), _ends = seeded_history(plane, seed, path)
                failures += bool(problems)
                print("seed %3d %-6s: %2d forks, %2d merges, %s"
                      % (seed, plane, forks, merges, problems[:3] or "ok"))
    print("%d histories, %d failed" % (seeds * len(PLANES), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
