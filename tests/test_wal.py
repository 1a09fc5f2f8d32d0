"""Tests for the write-ahead commit log (§6.5)."""

import gc
import os
import pickle
import pickletools
import struct
import zlib

import pytest

from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.errors import CorruptLogError
from repro.storage import wal as wal_module
from repro.storage.wal import WriteAheadLog, encode_entry


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
        size = os.path.getsize(path)
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
        """A sync append is a frame of one entry of plain values."""
        path = str(tmp_path / "wal.log")
        record = CommitRecord(StateId(3, "B"), (StateId(2, "A"),), {"a": [1, 2]})
        with WriteAheadLog(path) as wal:
            wal.append_commit(record)
        with open(path, "rb") as handle:
            data = handle.read()
        assert data == frame(record)
        assert pickle.loads(data[8:]) == (3, "B", (2, "A"), {"a": [1, 2]})
        assert list(WriteAheadLog.read(path)) == [record]


def frame(*records):
    """One frame of ``records``' entries: what a group-commit flush writes."""
    body = b"".join(encode_entry(r) for r in records)
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def frames(*records):
    """The exact bytes a cleanly closed synchronous log of ``records`` holds."""
    return b"".join(frame(r) for r in records)


def write_bytes(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


class TestPreallocatedExtents:
    def test_an_open_log_is_preallocated_and_close_cuts_the_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append_commit(rec(1, writes={"x": 0}))
        assert os.path.getsize(path) == wal_module.EXTENT
        assert commit_ids(path) == [(1, "A")]
        wal.close()
        with open(path, "rb") as handle:
            assert handle.read() == frames(rec(1, writes={"x": 0}))

    def test_growth_fsyncs_once_per_extent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "EXTENT", 256)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            wal_module.os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd)
        )
        path = str(tmp_path / "wal.log")
        records = [rec(i, writes={"k": i}) for i in range(1, 31)]
        with WriteAheadLog(path) as wal:
            opened = len(fsyncs)  # the file and its new directory entry
            for record in records:
                wal.append_commit(record)
            size = os.path.getsize(path)
            assert size % 256 == 0 and size >= len(frames(*records)) > size - 256
            assert len(fsyncs) - opened == size // 256
        assert list(WriteAheadLog.read(path)) == records
        assert os.path.getsize(path) == len(frames(*records))

    def test_a_flush_larger_than_an_extent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "EXTENT", 128)
        path = str(tmp_path / "wal.log")
        records = [rec(i, writes={"k": "v" * 50}) for i in range(1, 21)]
        with WriteAheadLog(path, sync=False) as wal:
            for record in records:
                wal.append_commit(record)
            wal.flush()
            assert os.path.getsize(path) % 128 == 0
            assert list(WriteAheadLog.read(path)) == records
        assert list(WriteAheadLog.read(path)) == records

    def test_a_zero_header_ends_the_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        write_bytes(path, frames(rec(1)) + bytes(8) + frames(rec(2)))
        assert commit_ids(path) == [(1, "A")]
        assert [r.state_id for r in WriteAheadLog.read(path, strict=True)] == [(1, "A")]

    def test_a_torn_record_followed_by_zeros_is_the_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        torn = frames(rec(2, writes={"y": 0}))
        write_bytes(path, frames(rec(1)) + torn[:-3] + bytes(3 + 4096))
        assert commit_ids(path) == [(1, "A")]
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path, strict=True))

    def test_a_torn_record_followed_by_a_nonzero_byte_is_corruption(self, tmp_path):
        path = str(tmp_path / "wal.log")
        torn = frames(rec(2, writes={"y": 0}))
        write_bytes(path, frames(rec(1)) + torn[:-3] + bytes(3 + 100) + b"\x01")
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path))
        with pytest.raises(CorruptLogError):
            WriteAheadLog(path)

    def test_reopen_truncates_a_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        torn = frames(rec(2, writes={"y": 0}))
        write_bytes(path, frames(rec(1)) + torn[:-3] + bytes(1000))
        with WriteAheadLog(path) as wal:
            assert os.path.getsize(path) == len(frames(rec(1)))
            wal.append_commit(rec(3))
        assert commit_ids(path) == [(1, "A"), (3, "A")]
        with open(path, "rb") as handle:
            assert handle.read() == frames(rec(1), rec(3))

    def test_a_new_log_fsyncs_its_directory(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(wal_module, "fsync_dir", synced.append)
        path = str(tmp_path / "wal.log")
        WriteAheadLog(path).close()
        WriteAheadLog(path).close()
        assert synced == [path]

    def test_compact_fsyncs_the_directory_after_the_replace(self, tmp_path, monkeypatch):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            for i in range(1, 4):
                wal.append_commit(rec(i))
        calls = []
        real_replace = os.replace
        monkeypatch.setattr(
            wal_module.os,
            "replace",
            lambda src, dst: calls.append("replace") or real_replace(src, dst),
        )
        monkeypatch.setattr(wal_module, "fsync_dir", lambda p: calls.append(("dir", p)))
        WriteAheadLog.compact(path, keep_from_state=(2, "A"))
        assert calls == ["replace", ("dir", path)]

    def test_an_unclosed_log_warns(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"), sync=False)
        wal.append_commit(rec(1))
        with pytest.warns(ResourceWarning):
            del wal
            gc.collect()


def flushed(path, *batches):
    """Log each batch of records as one group-commit flush, then close."""
    with WriteAheadLog(path, sync=False) as wal:
        for batch in batches:
            for record in batch:
                wal.append_commit(record)
            wal.flush()


def chain(first, n, writes=lambda i: {"k%d" % i: i}):
    return [rec(i, [StateId(i - 1, "A")], writes(i)) for i in range(first, first + n)]


class TestFrames:
    def test_a_flush_is_one_frame(self, tmp_path):
        path = str(tmp_path / "wal.log")
        first, second = chain(1, 16), chain(17, 3)
        flushed(path, first, second)
        with open(path, "rb") as handle:
            assert handle.read() == frame(*first) + frame(*second)
        assert list(WriteAheadLog.read(path)) == first + second

    def test_a_torn_flush_loses_that_flush_only(self, tmp_path):
        path = str(tmp_path / "wal.log")
        earlier, torn = chain(1, 16), chain(17, 16)
        flushed(path, earlier)
        data, whole = frame(*earlier), frame(*torn)
        cut = whole[: len(whole) // 2]  # mid-body
        write_bytes(path, data + cut + bytes(4096))
        assert list(WriteAheadLog.read(path)) == earlier
        # A non-zero byte past where the torn frame would have ended.
        rest = len(whole) - len(cut)
        write_bytes(path, data + cut + bytes(rest + 100) + b"\x01")
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path))

    def test_entries_that_share_objects_decode_apart(self, tmp_path):
        """Each entry is its own pickle: memo references stay in it."""
        path = str(tmp_path / "wal.log")
        shared = ["shared"]
        records = [
            rec(1, [ROOT_ID], {"x": ["first"], "y": ("a", "b")}),
            rec(2, [StateId(1, "A")], {"p": shared, "q": shared, "r": "z"}),
            rec(3, [StateId(2, "A"), StateId(1, "B")], {"s": "z", "t": "z"}),
        ]
        flushed(path, records)
        assert list(WriteAheadLog.read(path)) == records

    def test_compact_reads_back_record_equal(self, tmp_path):
        path = str(tmp_path / "wal.log")
        records = chain(1, 5) + [
            rec(6, [StateId(5, "A"), StateId(4, "B")], {"m": {"nested": [1.5, None]}}),
            rec(7, [StateId(6, "A")], {("tuple", "key"): b"bytes"}),
        ]
        flushed(path, records[:4], records[4:])
        assert WriteAheadLog.compact(path, keep_from_state=(3, "A")) == 5
        assert list(WriteAheadLog.read(path)) == records[2:]

    def test_an_entry_of_plain_values_references_no_class(self):
        record = rec(9, [StateId(8, "A"), ROOT_ID], {"k": [1, "v"], 2: (3.0, None)})
        opcodes = {op.name for op, _arg, _pos in pickletools.genops(encode_entry(record))}
        assert not opcodes & {"GLOBAL", "STACK_GLOBAL", "INST", "OBJ", "REDUCE"}

    def test_a_log_in_the_old_record_format_is_corrupt(self, tmp_path):
        """One pickled ``(StateId, parent StateIds, writes)`` per frame."""
        path = str(tmp_path / "wal.log")
        body = pickle.dumps(tuple(rec(1, [ROOT_ID], {"x": 1})), pickle.HIGHEST_PROTOCOL)
        write_bytes(path, struct.pack("<II", len(body), zlib.crc32(body)) + body)
        with pytest.raises(CorruptLogError):
            list(WriteAheadLog.read(path))
