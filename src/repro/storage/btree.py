"""An in-memory B-tree used as the record store.

The paper's storage layer keeps record versions "in a disk-backed B-Tree"
(§4) — BerkeleyDB in TARDiS-BDB. Here the B-tree is implemented from
scratch. It is a classic order-``t`` B-tree supporting insert, point
lookup, delete, and ordered range scans, plus:

* an access-statistics counter (node visits, splits) that the simulation
  cost model uses to charge realistic, structure-dependent costs, and
* optional persistence: ``dump``/``load`` produce a compact checkpoint of
  the tree contents (used by the checkpointing logic in §6.5).

Keys must be mutually comparable; the TARDiS store keys records by the
composite ``(user_key, state_id)``.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left
from typing import Any, Iterator, List, Optional, Tuple


class _BNode:
    __slots__ = ("keys", "values", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[Any] = []
        self.children: List[_BNode] = []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class BTreeStats:
    """Counters describing work the tree has performed."""

    __slots__ = ("node_visits", "splits", "inserts", "lookups", "deletes")

    def __init__(self) -> None:
        self.node_visits = 0
        self.splits = 0
        self.inserts = 0
        self.lookups = 0
        self.deletes = 0

    def reset(self) -> None:
        self.node_visits = 0
        self.splits = 0
        self.inserts = 0
        self.lookups = 0
        self.deletes = 0


class BTree:
    """Order-``t`` B-tree mapping comparable keys to arbitrary values."""

    def __init__(self, t: int = 16):
        if t < 2:
            raise ValueError("B-tree minimum degree must be >= 2")
        self._t = t
        self._root = _BNode()
        self._len = 0
        self.stats = BTreeStats()

    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: Any) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    # -- search ----------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        self.stats.lookups += 1
        node = self._root
        while True:
            self.stats.node_visits += 1
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                return node.values[idx]
            if node.is_leaf:
                return default
            node = node.children[idx]

    # -- insert ----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert ``key`` -> ``value``; replaces the value on a duplicate."""
        self.stats.inserts += 1
        root = self._root
        if len(root.keys) == 2 * self._t - 1:
            new_root = _BNode()
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
            root = new_root
        self._insert_nonfull(root, key, value)

    def _split_child(self, parent: _BNode, idx: int) -> None:
        self.stats.splits += 1
        t = self._t
        child = parent.children[idx]
        sibling = _BNode()
        parent.keys.insert(idx, child.keys[t - 1])
        parent.values.insert(idx, child.values[t - 1])
        parent.children.insert(idx + 1, sibling)
        sibling.keys = child.keys[t:]
        sibling.values = child.values[t:]
        child.keys = child.keys[: t - 1]
        child.values = child.values[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]

    def _insert_nonfull(self, node: _BNode, key: Any, value: Any) -> None:
        while True:
            self.stats.node_visits += 1
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx] = value
                return
            if node.is_leaf:
                node.keys.insert(idx, key)
                node.values.insert(idx, value)
                self._len += 1
                return
            child = node.children[idx]
            if len(child.keys) == 2 * self._t - 1:
                self._split_child(node, idx)
                if key == node.keys[idx]:
                    node.values[idx] = value
                    return
                if key > node.keys[idx]:
                    idx += 1
            node = node.children[idx]

    # -- delete ----------------------------------------------------------

    def remove(self, key: Any) -> bool:
        """Remove ``key``; returns True when the key was present."""
        self.stats.deletes += 1
        if not self._delete(self._root, key):
            return False
        if not self._root.keys and self._root.children:
            self._root = self._root.children[0]
        self._len -= 1
        return True

    def _delete(self, node: _BNode, key: Any) -> bool:
        t = self._t
        self.stats.node_visits += 1
        idx = bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            if node.is_leaf:
                node.keys.pop(idx)
                node.values.pop(idx)
                return True
            return self._delete_internal(node, idx)
        if node.is_leaf:
            return False
        child = node.children[idx]
        if len(child.keys) == t - 1:
            self._fill(node, idx)
            # _fill may have merged children; recompute the path.
            return self._delete(node, key)
        return self._delete(child, key)

    def _delete_internal(self, node: _BNode, idx: int) -> bool:
        t = self._t
        key = node.keys[idx]
        left, right = node.children[idx], node.children[idx + 1]
        if len(left.keys) >= t:
            pred_key, pred_val = self._max_entry(left)
            node.keys[idx], node.values[idx] = pred_key, pred_val
            return self._delete(left, pred_key)
        if len(right.keys) >= t:
            succ_key, succ_val = self._min_entry(right)
            node.keys[idx], node.values[idx] = succ_key, succ_val
            return self._delete(right, succ_key)
        self._merge(node, idx)
        return self._delete(left, key)

    def _max_entry(self, node: _BNode) -> Tuple[Any, Any]:
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1], node.values[-1]

    def _min_entry(self, node: _BNode) -> Tuple[Any, Any]:
        while not node.is_leaf:
            node = node.children[0]
        return node.keys[0], node.values[0]

    def _fill(self, node: _BNode, idx: int) -> None:
        t = self._t
        if idx > 0 and len(node.children[idx - 1].keys) >= t:
            self._borrow_from_prev(node, idx)
        elif idx < len(node.children) - 1 and len(node.children[idx + 1].keys) >= t:
            self._borrow_from_next(node, idx)
        elif idx < len(node.children) - 1:
            self._merge(node, idx)
        else:
            self._merge(node, idx - 1)

    def _borrow_from_prev(self, node: _BNode, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx - 1]
        child.keys.insert(0, node.keys[idx - 1])
        child.values.insert(0, node.values[idx - 1])
        node.keys[idx - 1] = sibling.keys.pop()
        node.values[idx - 1] = sibling.values.pop()
        if not sibling.is_leaf:
            child.children.insert(0, sibling.children.pop())

    def _borrow_from_next(self, node: _BNode, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx + 1]
        child.keys.append(node.keys[idx])
        child.values.append(node.values[idx])
        node.keys[idx] = sibling.keys.pop(0)
        node.values[idx] = sibling.values.pop(0)
        if not sibling.is_leaf:
            child.children.append(sibling.children.pop(0))

    def _merge(self, node: _BNode, idx: int) -> None:
        child, sibling = node.children[idx], node.children[idx + 1]
        child.keys.append(node.keys.pop(idx))
        child.values.append(node.values.pop(idx))
        child.keys.extend(sibling.keys)
        child.values.extend(sibling.values)
        child.children.extend(sibling.children)
        node.children.pop(idx + 1)

    # -- iteration -------------------------------------------------------

    def items(self) -> Iterator[Tuple[Any, Any]]:
        yield from self._iter_node(self._root)

    def _iter_node(self, node: _BNode) -> Iterator[Tuple[Any, Any]]:
        if node.is_leaf:
            yield from zip(node.keys, node.values)
            return
        for i, key in enumerate(node.keys):
            yield from self._iter_node(node.children[i])
            yield key, node.values[i]
        yield from self._iter_node(node.children[-1])

    def keys(self) -> Iterator[Any]:
        for key, _value in self.items():
            yield key

    def range(self, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        """Ordered items with lo <= key < hi."""
        yield from self._range_node(self._root, lo, hi)

    def _range_node(self, node: _BNode, lo: Any, hi: Any) -> Iterator[Tuple[Any, Any]]:
        self.stats.node_visits += 1
        idx = bisect_left(node.keys, lo)
        for i in range(idx, len(node.keys)):
            if not node.is_leaf:
                yield from self._range_node(node.children[i], lo, hi)
            if node.keys[i] >= hi:
                return
            yield node.keys[i], node.values[i]
        if not node.is_leaf:
            yield from self._range_node(node.children[-1], lo, hi)

    # -- persistence -----------------------------------------------------

    def dump(self, path: str) -> int:
        """Checkpoint the tree contents to ``path``; returns entry count."""
        entries = list(self.items())
        with open(path, "wb") as handle:
            pickle.dump({"t": self._t, "entries": entries}, handle)
        return len(entries)

    @classmethod
    def load(cls, path: str) -> "BTree":
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        tree = cls(t=payload["t"])
        for key, value in payload["entries"]:
            tree.insert(key, value)
        return tree

    # -- invariants (used by property tests) ------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when B-tree structural invariants fail."""
        self._check_node(self._root, None, None, is_root=True)

    def _check_node(
        self,
        node: _BNode,
        lo: Optional[Any],
        hi: Optional[Any],
        is_root: bool = False,
    ) -> int:
        t = self._t
        assert len(node.keys) == len(node.values)
        if not is_root:
            assert len(node.keys) >= t - 1, "underfull node"
        assert len(node.keys) <= 2 * t - 1, "overfull node"
        for a, b in zip(node.keys, node.keys[1:]):
            assert a < b, "keys out of order"
        if node.keys:
            if lo is not None:
                assert node.keys[0] > lo
            if hi is not None:
                assert node.keys[-1] < hi
        if node.is_leaf:
            return 1
        assert len(node.children) == len(node.keys) + 1
        bounds = [lo] + list(node.keys) + [hi]
        depths = {
            self._check_node(child, bounds[i], bounds[i + 1])
            for i, child in enumerate(node.children)
        }
        assert len(depths) == 1, "leaves at different depths"
        return depths.pop() + 1


class _Missing:
    pass


_MISSING = _Missing()
