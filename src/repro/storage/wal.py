"""Write-ahead commit log (§6.5).

TARDiS guarantees atomicity and (optional) durability by logging, at
commit time, the id of the commit state, its parent state ids, and the
transaction's write set: one :class:`~repro.core.ids.CommitRecord`.
Recovery replays the log chronologically to rebuild the State DAG and
key-version mapping.

Each commit is one *entry*, :func:`encode_entry`: the pickle of the
plain values ``(counter, site, flat parent ids, writes)``, where the
parent ids are flattened to ``(counter, site, counter, site, ...)``.
No :class:`~repro.core.ids.StateId` or ``CommitRecord`` class is
referenced in it; a class reference was most of an entry's bytes and
encode time. The commit pipeline encodes the entry before it installs
the commit, so a write set ``pickle`` cannot encode aborts the commit
instead of leaving it live but unlogged.

The log is a file of *frames*, each a length + CRC32 header and a body
of one or more concatenated entries. Two flush modes mirror the paper:

* synchronous — every append is a frame of one entry and reaches the OS
  before ``append_commit`` returns;
* asynchronous — appends buffer in memory, and ``flush()`` writes all
  of them as one frame (the paper's "asynchronous flush", trading
  durability for speed). Frames are always written *sequentially*, so
  a crash leaves a clean prefix of the log, which is exactly the
  invariant recovery relies on. A flush torn by a crash fails its CRC
  and is lost whole: its fsync never returned, so none of its commits
  had been made durable by it.

The file grows in preallocated extents: when a write would pass the
preallocated end, whole extents of zeros (:data:`EXTENT` bytes each)
are written and fsynced first, and frames are then written at the
log's logical end, inside space the file system has already allocated.
A flush's fsync then has only data to write, not a new file size and
new blocks to journal: a 16-record flush (write + fsync) took a median
of about 0.26 ms growing the file and about 0.14 ms inside an extent
(ext4, 2-vCPU VM). So an open or crashed log ends in a zero tail.
Opening a log truncates it to its last valid frame and fsyncs it;
closing it truncates it to its logical end, so a cleanly closed log
holds exactly its frames.

Reading stops at a zero length header (no frame has an empty body).
A torn frame (short, or failing its CRC) ends the log if nothing but
zeros follows it; anything else is corruption and raises
:class:`~repro.errors.CorruptLogError`, as does a frame whose entries
do not decode, such as one in the older one-pickled-record format.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from typing import Iterator, List, Tuple, Union

from repro.core.ids import CommitRecord, StateId
from repro.errors import CorruptLogError

_HEADER = struct.Struct("<II")  # frame body length, crc32
_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: bytes the log file grows by at a time, zero-filled and fsynced.
EXTENT = 1 << 20
#: the block an extent is filled from (no extent-sized buffer).
_ZEROS = memoryview(bytes(64 << 10))


def encode_entry(record: CommitRecord) -> bytes:
    """One commit's log entry: a pickle of plain values only.

    Raises whatever ``pickle`` raises for a write set it cannot encode.
    """
    state_id, parent_ids, writes = record
    flat: Tuple = ()
    for pid in parent_ids:
        flat += pid  # a plain tuple: no StateId class reference
    return pickle.dumps((state_id[0], state_id[1], flat, writes), _PROTOCOL)


def _frame(body: bytes) -> bytes:
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def _decode(body: memoryview) -> Iterator[CommitRecord]:
    """Yield the records of one frame's entries, in order."""
    stream = io.BytesIO(body)
    size = len(body)
    while stream.tell() < size:
        # One load per entry: each entry is its own pickle, numbering
        # its memo from 0, and an Unpickler keeps its memo across loads.
        try:
            counter, site, flat, writes = pickle.load(stream)
            parent_ids = tuple(map(StateId, flat[::2], flat[1::2]))
        except Exception as exc:
            raise CorruptLogError("undecodable log entry: %r" % (exc,)) from exc
        yield CommitRecord(StateId(counter, site), parent_ids, writes)


def _pwrite(fd: int, data: memoryview, offset: int) -> None:
    while data:
        written = os.pwrite(fd, data, offset)
        data = data[written:]
        offset += written


def _frames(data: bytes, strict: bool) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, end)`` of each valid frame body, in log order.

    Stops at the end of ``data``, at a zero length header, or at a torn
    tail frame; raises :class:`CorruptLogError` on a torn frame that
    is not the tail, and under ``strict`` on any torn frame.
    """
    pos, total = 0, len(data)
    while pos < total:
        start = pos + _HEADER.size
        if start > total:
            if strict and any(data[pos:]):
                raise CorruptLogError("truncated frame header")
            return
        length, crc = _HEADER.unpack_from(data, pos)
        if length == 0:
            return
        end = start + length
        if end > total or zlib.crc32(memoryview(data)[start:end]) != crc:
            # Only the tail can be torn: the writes are sequential.
            at_tail = end >= total or data.count(0, end) == total - end
            if strict or not at_tail:
                raise CorruptLogError("corrupt log frame")
            return
        yield start, end
        pos = end


def fsync_dir(path: str) -> None:
    """Fsync the directory holding ``path``: makes its create or rename durable."""
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """CRC-checked commit log with sync and async modes, grown in extents."""

    def __init__(self, path: str, sync: bool = True):
        self._path = path
        self._sync = sync
        self._buffer: List[bytes] = []
        self._open()

    def _open(self) -> None:
        # A file object, not a bare fd: a leaked log warns (ResourceWarning).
        try:
            handle = open(self._path, "r+b", buffering=0)
            created = False
        except FileNotFoundError:
            handle = open(self._path, "x+b", buffering=0)
            created = True
        try:
            end = 0
            for _, end in _frames(handle.read(), strict=False):
                pass
            # New frames never follow a torn or zero tail.
            handle.truncate(end)
            os.fsync(handle.fileno())
            if created:
                fsync_dir(self._path)
        except BaseException:
            handle.close()
            raise
        self._file = handle
        #: where the next frame goes, and where the preallocated space ends.
        self._end = self._allocated = end

    @property
    def path(self) -> str:
        return self._path

    @property
    def sync(self) -> bool:
        return self._sync

    def append_commit(self, entry: Union[bytes, CommitRecord]) -> None:
        """Log one committed transaction.

        ``entry`` is what :func:`encode_entry` returned for its record
        (the commit pipeline encodes before it installs); a record is
        encoded here.
        """
        if type(entry) is not bytes:
            entry = encode_entry(entry)
        if self._sync:
            self._write(_frame(entry))
        else:
            self._buffer.append(entry)

    def _write(self, data: bytes) -> None:
        end = self._end + len(data)
        fd = self._file.fileno()
        if end > self._allocated:
            # Whole zero extents up to and past ``end``, made durable
            # once, so the flushes that follow only write data.
            target = self._allocated
            while target < end:
                target += EXTENT
            for offset in range(self._allocated, target, len(_ZEROS)):
                _pwrite(fd, _ZEROS[: target - offset], offset)
            os.fsync(fd)
            self._allocated = target
        _pwrite(fd, memoryview(data), self._end)
        self._end = end

    def flush(self) -> None:
        """Write the buffered entries as one frame, in append order, and fsync."""
        if self._buffer:
            self._write(_frame(b"".join(self._buffer)))
            self._buffer.clear()
        os.fsync(self._file.fileno())

    def pending(self) -> int:
        """Number of buffered (not yet durable) entries."""
        return len(self._buffer)

    def drop_buffered(self) -> int:
        """Discard buffered entries (simulates a crash before flush)."""
        dropped = len(self._buffer)
        self._buffer.clear()
        return dropped

    def compact_inplace(self, keep_from_state: StateId) -> int:
        """Compact this (open) log: close, :meth:`compact`, reopen.

        ``compact`` rewrites the file by atomic replace; an open handle
        would keep writing to the dead inode.
        """
        self.close()
        kept = WriteAheadLog.compact(self._path, keep_from_state)
        self._open()
        return kept

    def close(self) -> None:
        """Flush, cut the zero tail and close; a second call does nothing."""
        if self._file.closed:
            return
        try:
            self.flush()
            self._file.truncate(self._end)
        finally:
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading ----------------------------------------------------------

    @staticmethod
    def read(path: str, strict: bool = False) -> Iterator[CommitRecord]:
        """Yield commit records in append order.

        Iteration ends at the end of the file, at a zero length header
        (the unwritten rest of an extent) or at a torn tail frame
        (truncated or CRC-failing, followed by nothing but zeros); with
        ``strict=True`` a torn frame raises
        :class:`~repro.errors.CorruptLogError` instead. A torn frame
        with anything else after it always raises, because the
        sequential-flush invariant means only the tail can legitimately
        be torn; so does an entry that does not decode.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        view = memoryview(data)
        for start, end in _frames(data, strict):
            yield from _decode(view[start:end])

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
                handle.write(_frame(encode_entry(record)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(path)
        return len(kept)
