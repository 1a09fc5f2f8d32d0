"""Storage substrates: the baselines' record engines and the write-ahead log.

These are the building blocks the paper's prototype delegated to
BerkeleyDB/MapDB; here they are implemented from scratch so the whole
system is self-contained. The TARDiS store's own per-key version lists
live in :mod:`repro.core.versions`.
"""

from repro.storage.btree import BTree
from repro.storage.engine import (
    RecordEngine,
    available_engines,
    create_engine,
    register_engine,
)
from repro.storage.wal import WriteAheadLog, LogRecord

__all__ = [
    "BTree",
    "WriteAheadLog",
    "LogRecord",
    "RecordEngine",
    "available_engines",
    "create_engine",
    "register_engine",
]
