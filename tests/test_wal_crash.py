"""A store killed with SIGKILL recovers what its WAL made durable (§6.5).

Each case forks a child that builds a ``TardisStore`` on a log, commits
``n`` single-key transactions and SIGKILLs itself, so nothing is flushed
or closed on the way out. The parent then recovers the log and checks
the count and the values against the durability level:

* ``wal_sync=True`` ("os"): every commit reached the page cache;
* ``group_commit=G``: the whole flushed batches, ``n // G * G``;
* ``group_commit=0``: nothing is written before ``flush``/``close``.

A kill "at a growth boundary" lands right after (or right before) the
commit whose write grew the log by an extent. A second killed writer
then reopens the store on the same log and commits: the log must keep
its shape and every acknowledged commit (``tests.history.check_log``),
and recovery returns both writers' commits. Running this file as a
script runs the long seeded sweep: ``python tests/test_wal_crash.py``.
"""

import os
import pickle
import random
import signal
import sys
import tempfile
import time

import pytest

from repro.core.recovery import recover_store
from repro.core.store import TardisStore
from repro.storage import wal as wal_module
from repro.storage.wal import WriteAheadLog

if __name__ == "__main__":  # run as a script: the repo root holds ``tests``
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.history import check_log  # noqa: E402

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

SYNC = {"wal_sync": True}
GROUP16 = {"wal_sync": False, "group_commit": 16}

#: with values this large the 32nd commit's write crosses the first
#: 1 MiB extent, in both modes (checked by ``growth_commits``).
BIG = 33280


def value(i, size):
    return "%d:" % i + "v" * size


def commit(store, n, size):
    for i in range(n):
        store.put("k%d" % i, value(i, size))


def growth_commits(n, size, **config):
    """The commit counts after which a fresh log had grown (dry run)."""
    with tempfile.TemporaryDirectory() as tmp:
        store = TardisStore("A", wal_path=os.path.join(tmp, "wal.log"), **config)
        try:
            grown, allocated = [], 0
            for i in range(n):
                store.put("k%d" % i, value(i, size))
                if store.wal._allocated != allocated:
                    allocated = store.wal._allocated
                    grown.append(i + 1)
            return grown
        finally:
            store.close()


def in_killed_child(work, timeout=60.0):
    """Run ``work()`` in a forked child that then SIGKILLs itself."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            work()
            os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(1)
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError("the child did not finish in %.0f s" % timeout)
        time.sleep(0.005)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL, status


def kill_after(path, n, size=0, extent=None, **config):
    """Commit ``n`` txns on a store logging to ``path``, then SIGKILL."""

    def work():
        if extent is not None:
            wal_module.EXTENT = extent
        store = TardisStore("A", wal_path=path, **config)
        commit(store, n, size)

    in_killed_child(work)


def durable(n, config):
    if config.get("wal_sync", True):
        return n
    group = config.get("group_commit", 0)
    return n // group * group if group > 1 else 0


def _loads(stream):
    """Every pickle in ``stream``, in order."""
    while stream.peek(1):
        yield pickle.load(stream)


def check_recovery(path, expected, size=0):
    recovered, report = recover_store("R", path)
    try:
        assert (report["replayed"], report["discarded"]) == (expected, 0)
        assert [recovered.get("k%d" % i) for i in range(expected)] == [
            value(i, size) for i in range(expected)
        ]
    finally:
        recovered.close()


def check_reopen_appends(path, extra=3):
    """A second killed writer reopens the store and appends after its log.

    The log keeps the shape of rule 4 in tests/history.py (unique ids,
    parents logged first) and holds every commit either writer was
    acknowledged for: the first one's surviving records, and each commit
    the second one's ``put`` returned (it reports them down a pipe).
    """
    old = list(WriteAheadLog.read(path))
    acks, report_ack = os.pipe()

    def work():
        store = TardisStore("A", wal_path=path)
        for i in range(1, extra + 1):
            writes = {"new%d" % i: i}
            os.write(report_ack, pickle.dumps((store.put("new%d" % i, i), writes)))

    with os.fdopen(acks, "rb") as stream:
        try:
            in_killed_child(work)
        finally:
            os.close(report_ack)
        acked = [(r.state_id, r.writes) for r in old] + list(_loads(stream))
    assert len(acked) == len(old) + extra
    assert check_log(list(WriteAheadLog.read(path)), acked) == []
    recovered, report = recover_store("R", path)
    try:
        assert (report["replayed"], report["discarded"]) == (len(old) + extra, 0)
        assert [recovered.get("new%d" % i) for i in range(1, extra + 1)] == list(
            range(1, extra + 1)
        )
    finally:
        recovered.close()


class TestKill:
    @pytest.mark.parametrize(
        "config, survivors",
        [(GROUP16, 32), (SYNC, 40), ({"wal_sync": False, "group_commit": 0}, 0)],
        ids=["group_commit=16", "wal_sync", "group_commit=0"],
    )
    def test_a_killed_store_keeps_what_its_level_made_durable(
        self, tmp_path, config, survivors
    ):
        path = str(tmp_path / "wal.log")
        kill_after(path, 40, **config)
        assert durable(40, config) == survivors
        check_recovery(path, survivors)

    @pytest.mark.parametrize("config", [GROUP16, SYNC], ids=["group_commit=16", "wal_sync"])
    @pytest.mark.parametrize("side", [0, -1], ids=["after", "before"])
    def test_a_kill_at_a_growth_boundary(self, tmp_path, config, side):
        grown = growth_commits(40, BIG, **config)
        assert grown[:2] == [1 if config is SYNC else 16, 32]
        n = grown[1] + side
        path = str(tmp_path / "wal.log")
        kill_after(path, n, size=BIG, **config)
        check_recovery(path, durable(n, config), size=BIG)

    @pytest.mark.parametrize("config", [GROUP16, SYNC], ids=["group_commit=16", "wal_sync"])
    def test_reopening_a_killed_log_appends_after_its_valid_prefix(self, tmp_path, config):
        path = str(tmp_path / "wal.log")
        kill_after(path, 40, **config)
        assert os.path.getsize(path) == wal_module.EXTENT  # a zero tail
        check_reopen_appends(path)

    def test_seeded_kill_points(self, tmp_path):
        for seed in range(3):
            kill_point(seed, str(tmp_path / ("wal%d.log" % seed)))


def kill_point(seed, path):
    """One seeded kill: a level, a small extent and a point near a boundary."""
    rng = random.Random(seed)
    config = rng.choice(
        [SYNC, GROUP16, {"wal_sync": False, "group_commit": 4}]
    )
    extent = rng.choice([512, 1024, 4096])
    real_extent = wal_module.EXTENT
    wal_module.EXTENT = extent
    try:
        grown = growth_commits(60, 0, **config)
    finally:
        wal_module.EXTENT = real_extent
    # After, right before, or anywhere relative to a growth boundary.
    where = seed % 3
    if where == 2 or len(grown) < 2:
        n = rng.randint(1, 60)
    else:
        n = rng.choice(grown[1:]) - where
    kill_after(path, n, extent=extent, **config)
    check_recovery(path, durable(n, config))
    check_reopen_appends(path)
    return config, extent, n


def main(points=128):
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(points):
            config, extent, n = kill_point(seed, os.path.join(tmp, "%d.log" % seed))
            print("seed %3d: %-40s extent %4d, killed after %2d, recovered %2d"
                  % (seed, config, extent, n, durable(n, config)))
    print("%d kill points ok" % points)


if __name__ == "__main__":
    sys.exit(main())
