"""Storage substrate: the write-ahead log.

The paper's prototype delegated durability to BerkeleyDB/MapDB; here the
log is implemented from scratch so the whole system is self-contained.
The TARDiS store's per-key version lists live in
:mod:`repro.core.versions`; the single-version baselines keep their
records in a dict.
"""

from repro.storage.wal import WriteAheadLog

__all__ = [
    "WriteAheadLog",
]
