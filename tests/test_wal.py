"""Tests for the write-ahead commit log (§6.5)."""

import pickle

import pytest

from repro.core.ids import CommitRecord, StateId
from repro.errors import CorruptLogError
from repro.storage.wal import WriteAheadLog


def rec(counter, parents=(), writes=None):
    """A record for state ``counter``@A with ``writes`` (default: none)."""
    return CommitRecord(StateId(counter, "A"), tuple(parents), dict(writes or {}))


def commit_ids(path):
    return [r.state_id for r in WriteAheadLog.read(path)]


class TestWal:
    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / "wal.log")
        first = rec(1, [StateId(0, "")], {"x": 1, "y": 2})
        second = rec(2, [first.state_id], {"x": 42})
        with WriteAheadLog(path) as wal:
            wal.append_commit(first)
            wal.append_commit(second)
        records = list(WriteAheadLog.read(path))
        assert records == [first, second]
        assert all(type(r) is CommitRecord for r in records)
        assert records[0].parent_ids == (StateId(0, ""),)
        assert records[1].writes == {"x": 42}

    def test_async_buffering(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=False)
        wal.append_commit(rec(1, writes={"x": 0}))
        assert wal.pending() == 1
        # Nothing durable before flush.
        assert list(WriteAheadLog.read(path)) == []
        wal.flush()
        assert wal.pending() == 0
        assert len(list(WriteAheadLog.read(path))) == 1
        wal.close()

    def test_drop_buffered_simulates_crash(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=False)
        wal.append_commit(rec(1, writes={"x": 0}))
        wal.flush()
        wal.append_commit(rec(2, writes={"y": 0}))
        assert wal.drop_buffered() == 1
        wal.close()
        assert commit_ids(path) == [(1, "A")]

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit(rec(1, writes={"x": 0}))
            wal.append_commit(rec(2, writes={"y": 0}))
        # Truncate mid-way through the last record.
        size = __import__("os").path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        assert commit_ids(path) == [(1, "A")]
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path, strict=True))

    def test_mid_log_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit(rec(1, writes={"x": 0}))
            wal.append_commit(rec(2, writes={"y": 0}))
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff")
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path))

    def test_compact_drops_old_commits(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for i in range(1, 6):
                wal.append_commit(rec(i, writes={"k%d" % i: 0}))
        kept = WriteAheadLog.compact(path, keep_from_state=(4, "A"))
        assert kept == 2
        assert commit_ids(path) == [(4, "A"), (5, "A")]

    def test_reopen_appends(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit(rec(1))
        with WriteAheadLog(path) as wal:
            wal.append_commit(rec(2))
        assert commit_ids(path) == [(1, "A"), (2, "A")]

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync=False) as wal:
            wal.append_commit(rec(1))
            wal.close()  # __exit__ closes again
        wal.close()
        assert commit_ids(path) == [(1, "A")]

    def test_record_roundtrip(self, tmp_path):
        """A frame holds the plain tuple; reading rebuilds the record."""
        path = str(tmp_path / "wal.log")
        record = CommitRecord(StateId(3, "B"), (StateId(2, "A"),), {"a": [1, 2]})
        with WriteAheadLog(path) as wal:
            wal.append_commit(record)
        with open(path, "rb") as handle:
            body = handle.read()[8:]
        assert type(pickle.loads(body)) is tuple
        assert list(WriteAheadLog.read(path)) == [record]
