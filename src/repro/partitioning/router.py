"""Shard routing: stable key serialization and the consistent-hash ring.

The shard plane needs one answer, fast and forever stable: *which shard
owns this key?* Two layers provide it:

* :func:`stable_key_bytes` — a type-tagged serialization of a record
  key whose bytes are identical for keys that compare equal. The old
  router hashed ``repr(key)``, and reprs drift across equal-but-distinct
  spellings: ``5``, ``5.0`` and ``True`` are *one* dict key in Python
  (they compare equal and hash equal) yet repr to three different
  strings, so a write to ``5`` landed on a different shard than a read
  of ``5.0``. The stable form normalizes equal numbers to one tag and
  prefixes every type so ``"5"`` (a string) still routes independently
  of ``5`` (a number).

* :class:`ShardRouter` — the one key placement: a consistent-hash ring
  with virtual nodes. Each shard owns :data:`REPLICAS` pseudo-random
  points on a 32-bit ring; a key belongs to the first shard point at or
  after its own hash (wrapping). Virtual nodes smooth the distribution
  and give the rebalance property a modulo hash lacks: growing from N
  to N+1 shards moves only ~1/(N+1) of the keyspace instead of nearly
  all of it. :meth:`ShardRouter.plan` groups a key batch into per-shard op
  batches in ascending shard order — the deterministic order every
  multi-shard operation (cross-shard commit prepare/install, scatter
  reads) uses, so two coordinators can never stage the same pair of
  shards in opposite orders.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["REPLICAS", "ShardRouter", "stable_key_bytes"]

#: virtual nodes per shard on the ring.
REPLICAS = 128


def stable_key_bytes(key: Any) -> bytes:
    """Type-tagged bytes for ``key``, identical for equal keys.

    Numbers that compare equal (``5``, ``5.0``, ``True``) map to one
    serialization because they are one dict key; every other type gets
    its own tag so cross-type repr collisions cannot alias shards.
    Tuples serialize element-wise (composite keys route stably); other
    types fall back to ``repr`` — callers using exotic key types with a
    repr that varies between equal values should pass their own
    ``shard_of``.
    """
    if key is None:
        return b"n:"
    if isinstance(key, (bool, int, float)):
        if isinstance(key, float) and not key.is_integer():
            return b"f:" + repr(key).encode("ascii")
        return b"i:%d" % int(key)
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return b"b:" + bytes(key)
    if isinstance(key, tuple):
        parts = b",".join(stable_key_bytes(item) for item in key)
        return b"t:%d:" % len(key) + parts
    return b"o:" + repr(key).encode("utf-8", "backslashreplace")


def _ring_points(n_shards: int) -> Tuple[List[int], List[int]]:
    ring: List[Tuple[int, int]] = []
    for shard in range(n_shards):
        for vnode in range(REPLICAS):
            ring.append((zlib.crc32(b"vn:%d:%d" % (shard, vnode)), shard))
    ring.sort()
    return [point for point, _ in ring], [shard for _, shard in ring]


class ShardRouter:
    """Key-to-shard placement: consistent-hash ring with virtual nodes.

    ``shard_of`` overrides the ring with a custom ``(key, n_shards) ->
    index`` function (tests and workloads that want an exact placement).
    The ring itself is a pure function of ``n_shards`` — no instance
    state feeds it — so every router with the same shape
    agrees on placement, including across processes.
    """

    __slots__ = ("n_shards", "_shard_of", "_points", "_owners")

    def __init__(
        self, n_shards: int, shard_of: Optional[Callable[[Any, int], int]] = None
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.n_shards = n_shards
        self._shard_of = shard_of
        self._points: List[int] = []
        self._owners: List[int] = []
        if shard_of is None:
            self._points, self._owners = _ring_points(n_shards)

    def shard_of(self, key: Any) -> int:
        """The shard index owning ``key``."""
        if self._shard_of is not None:
            return self._shard_of(key, self.n_shards)
        point = zlib.crc32(stable_key_bytes(key))
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past the highest vnode
        return self._owners[index]

    def plan(self, keys: Iterable[Any]) -> Dict[int, List[Any]]:
        """Group ``keys`` into per-shard batches, ascending shard order.

        The returned dict's iteration order *is* the deterministic
        multi-shard operation order (ascending shard index); within a
        batch, keys keep their input order.
        """
        batches: Dict[int, List[Any]] = {}
        for key in keys:
            batches.setdefault(self.shard_of(key), []).append(key)
        return dict(sorted(batches.items()))

    def __repr__(self) -> str:
        return "<ShardRouter shards=%d custom=%s>" % (
            self.n_shards,
            self._shard_of is not None,
        )
