"""Hash-map record engine, after the paper's TARDiS-MDB build (§6.6).

The paper ships two builds: TARDiS-BDB (records in BerkeleyDB's B-tree)
and TARDiS-MDB (records in MapDB, a hash-based engine), noting MapDB
runs ~10% faster. This module is the MapDB stand-in: a dict-backed
record store with the same interface as :class:`repro.storage.btree.BTree`
(point ops, ordered iteration computed on demand, dump/load, access
statistics), selectable as ``engine="hash"`` on the single-version
baselines (:mod:`repro.storage.engine`).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Iterator, Tuple


class HashStoreStats:
    __slots__ = ("node_visits", "inserts", "lookups", "deletes", "splits")

    def __init__(self) -> None:
        self.node_visits = 0
        self.inserts = 0
        self.lookups = 0
        self.deletes = 0
        self.splits = 0  # interface parity with BTreeStats

    def reset(self) -> None:
        self.node_visits = 0
        self.inserts = 0
        self.lookups = 0
        self.deletes = 0
        self.splits = 0


class HashStore:
    """Dict-backed record store with the BTree interface."""

    def __init__(self, t: int = 0):
        # ``t`` accepted (and ignored) for factory compatibility.
        self._data: Dict[Any, Any] = {}
        self.stats = HashStoreStats()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def get(self, key: Any, default: Any = None) -> Any:
        self.stats.lookups += 1
        self.stats.node_visits += 1
        return self._data.get(key, default)

    def insert(self, key: Any, value: Any) -> None:
        self.stats.inserts += 1
        self.stats.node_visits += 1
        self._data[key] = value

    def remove(self, key: Any) -> bool:
        self.stats.deletes += 1
        return self._data.pop(key, _MISSING) is not _MISSING

    def items(self) -> Iterator[Tuple[Any, Any]]:
        # Ordered on demand: hash engines sort at scan time.
        return iter(sorted(self._data.items()))

    def keys(self) -> Iterator[Any]:
        return iter(sorted(self._data))

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        for key, value in self.items():
            if key < lo:
                continue
            if key >= hi:
                return
            yield key, value

    def dump(self, path: str) -> int:
        entries = list(self.items())
        with open(path, "wb") as handle:
            pickle.dump({"entries": entries}, handle)
        return len(entries)

    @classmethod
    def load(cls, path: str) -> "HashStore":
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        store = cls()
        for key, value in payload["entries"]:
            store.insert(key, value)
        return store


class _Missing:
    pass


_MISSING = _Missing()
