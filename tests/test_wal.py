"""Tests for the write-ahead commit log (§6.5)."""

import pytest

from repro.errors import CorruptLogError
from repro.storage.wal import CHECKPOINT, COMMIT, LogRecord, WriteAheadLog


def commit_ids(path):
    return [
        r.payload["state_id"] for r in WriteAheadLog.read(path) if r.kind == COMMIT
    ]


class TestWal:
    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit((1, "A"), ((0, ""),), ("x", "y"))
            wal.append_commit((2, "A"), ((1, "A"),), ("x",), values={"x": 42})
        records = list(WriteAheadLog.read(path))
        assert len(records) == 2
        assert records[0].kind == COMMIT
        assert records[0].payload["parent_ids"] == ((0, ""),)
        assert records[0].payload["write_keys"] == ("x", "y")
        assert "values" not in records[0].payload
        assert records[1].payload["values"] == {"x": 42}

    def test_checkpoint_record(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_checkpoint((5, "A"))
        records = list(WriteAheadLog.read(path))
        assert records[0].kind == CHECKPOINT
        assert records[0].payload["state_id"] == (5, "A")

    def test_async_buffering(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, sync=False)
        wal.append_commit((1, "A"), (), ("x",))
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
        wal.append_commit((1, "A"), (), ("x",))
        wal.flush()
        wal.append_commit((2, "A"), (), ("y",))
        assert wal.drop_buffered() == 1
        wal.close()
        assert commit_ids(path) == [(1, "A")]

    def test_torn_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit((1, "A"), (), ("x",))
            wal.append_commit((2, "A"), (), ("y",))
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
            wal.append_commit((1, "A"), (), ("x",))
            wal.append_commit((2, "A"), (), ("y",))
        with open(path, "r+b") as handle:
            handle.seek(10)
            handle.write(b"\xff\xff")
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path))

    def test_compact_drops_old_commits(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for i in range(1, 6):
                wal.append_commit((i, "A"), (), ("k%d" % i,))
        kept = WriteAheadLog.compact(path, keep_from_state=(4, "A"))
        assert kept == 2
        assert commit_ids(path) == [(4, "A"), (5, "A")]

    def test_reopen_appends(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.append_commit((1, "A"), (), ())
        with WriteAheadLog(path) as wal:
            wal.append_commit((2, "A"), (), ())
        assert commit_ids(path) == [(1, "A"), (2, "A")]

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, sync=False) as wal:
            wal.append_commit((1, "A"), (), ())
            wal.close()  # __exit__ closes again
        wal.close()
        assert commit_ids(path) == [(1, "A")]

    def test_record_roundtrip(self):
        rec = LogRecord(COMMIT, {"state_id": (3, "B"), "parent_ids": (), "write_keys": ("a",)})
        assert LogRecord.decode(rec.encode()[8:]).payload == rec.payload
