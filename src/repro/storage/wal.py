"""Write-ahead commit log (§6.5).

TARDiS guarantees atomicity and (optional) durability by logging, at
commit time, the id of the commit state, its parent state ids, and the
transaction's write set: one :class:`~repro.core.ids.CommitRecord`.
Recovery replays the log chronologically to rebuild the State DAG and
key-version mapping.

The log is an append-only file of length-prefixed, CRC-protected
records, each the pickled ``(state_id, parent_ids, writes)`` tuple. Two
flush modes mirror the paper:

* synchronous — every append reaches the OS before ``append_commit``
  returns;
* asynchronous — appends buffer in memory and reach disk on ``flush()``
  (the paper's "asynchronous flush", trading durability for speed). The
  buffer is always written *sequentially*, so a crash leaves a clean
  prefix of the log, which is exactly the invariant recovery relies on.

A torn or corrupt tail record is detected by its CRC and treated as the
end of the log.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from typing import Iterator, List

from repro.core.ids import CommitRecord, StateId
from repro.errors import CorruptLogError

_HEADER = struct.Struct("<II")  # payload length, crc32


def _encode(record: CommitRecord) -> bytes:
    # A plain tuple: the frame does not depend on the record class.
    body = pickle.dumps(tuple(record), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


class WriteAheadLog:
    """Append-only, CRC-checked commit log with sync and async modes."""

    def __init__(self, path: str, sync: bool = True):
        self._path = path
        self._sync = sync
        self._buffer: List[bytes] = []
        self._file = open(path, "ab")

    @property
    def path(self) -> str:
        return self._path

    @property
    def sync(self) -> bool:
        return self._sync

    def append_commit(self, record: CommitRecord) -> None:
        """Log one committed transaction."""
        data = _encode(record)
        if self._sync:
            self._file.write(data)
            self._file.flush()
        else:
            self._buffer.append(data)

    def flush(self) -> None:
        """Write any buffered records to disk, preserving append order."""
        if self._buffer:
            self._file.write(b"".join(self._buffer))
            self._buffer.clear()
        self._file.flush()
        os.fsync(self._file.fileno())

    def pending(self) -> int:
        """Number of buffered (not yet durable) records."""
        return len(self._buffer)

    def drop_buffered(self) -> int:
        """Discard buffered records (simulates a crash before flush)."""
        dropped = len(self._buffer)
        self._buffer.clear()
        return dropped

    def compact_inplace(self, keep_from_state: StateId) -> int:
        """Compact this (open) log, reopening the append handle.

        ``compact`` rewrites the file by atomic replace; an open handle
        would keep appending to the dead inode, so the instance method
        closes and reopens around it.
        """
        self.flush()
        self._file.close()
        kept = WriteAheadLog.compact(self._path, keep_from_state)
        self._file = open(self._path, "ab")
        return kept

    def close(self) -> None:
        """Flush and close the log file; a second call does nothing."""
        if self._file.closed:
            return
        self.flush()
        self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    @staticmethod
    def read(path: str, strict: bool = False) -> Iterator[CommitRecord]:
        """Yield commit records in append order.

        A torn tail (truncated or CRC-failing final record) terminates
        iteration; with ``strict=True`` it raises
        :class:`~repro.errors.CorruptLogError` instead. Corruption
        *before* the tail always raises, because the sequential-flush
        invariant means only the tail can legitimately be torn.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        stream = io.BytesIO(data)
        total = len(data)
        while True:
            head = stream.read(_HEADER.size)
            if not head:
                return
            if len(head) < _HEADER.size:
                if strict:
                    raise CorruptLogError("truncated record header")
                return
            length, crc = _HEADER.unpack(head)
            body = stream.read(length)
            torn = len(body) < length or zlib.crc32(body) != crc
            if torn:
                at_tail = stream.tell() >= total
                if strict or not at_tail:
                    raise CorruptLogError("corrupt log record")
                return
            yield CommitRecord(*pickle.loads(body))

    @staticmethod
    def compact(path: str, keep_from_state: StateId) -> int:
        """Rewrite the log, dropping commit records older than a checkpoint.

        ``keep_from_state`` is the checkpoint state id ``s_c`` (§6.5):
        commit records whose state id orders strictly before it are
        covered by the checkpoint and dropped. Returns the number of
        records kept.
        """
        kept = [
            record
            for record in WriteAheadLog.read(path)
            if not record.state_id < keep_from_state
        ]
        tmp = path + ".compact"
        with open(tmp, "wb") as handle:
            for record in kept:
                handle.write(_encode(record))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return len(kept)
