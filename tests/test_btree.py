"""Unit and property tests for the B-tree record store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ids import StateId
from repro.storage.btree import BTree


def record_key(k):
    """The key type production uses: ``(user_key, StateId)`` (§6.1.3)."""
    return ("k%d" % (k % 5), StateId(k // 10, "AB"[k // 5 % 2]))


class TestBTreeBasics:
    def test_empty(self):
        bt = BTree(t=2)
        assert len(bt) == 0
        assert bt.get(1) is None
        assert bt.get(1, "d") == "d"
        assert 1 not in bt
        assert list(bt.items()) == []

    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            BTree(t=1)

    def test_insert_get(self):
        bt = BTree(t=2)
        for k in range(100):
            bt.insert(k, k * 2)
        assert len(bt) == 100
        for k in range(100):
            assert bt.get(k) == k * 2
        bt.check_invariants()

    def test_insert_reverse_order(self):
        bt = BTree(t=3)
        for k in range(100, 0, -1):
            bt.insert(k, -k)
        assert list(bt.keys()) == list(range(1, 101))
        bt.check_invariants()

    def test_duplicate_insert_replaces(self):
        bt = BTree(t=2)
        bt.insert(1, "a")
        bt.insert(1, "b")
        assert len(bt) == 1
        assert bt.get(1) == "b"

    def test_duplicate_replace_deep(self):
        bt = BTree(t=2)
        for k in range(50):
            bt.insert(k, k)
        for k in range(50):
            bt.insert(k, k + 1000)
        assert len(bt) == 50
        for k in range(50):
            assert bt.get(k) == k + 1000
        bt.check_invariants()

    def test_remove_leaf_and_internal(self):
        bt = BTree(t=2)
        for k in range(30):
            bt.insert(k, k)
        for k in [0, 29, 15, 7, 22]:
            assert bt.remove(k)
            assert k not in bt
            bt.check_invariants()
        assert not bt.remove(15)
        assert len(bt) == 25

    def test_remove_everything(self):
        bt = BTree(t=2)
        keys = list(range(64))
        random.Random(5).shuffle(keys)
        for k in keys:
            bt.insert(k, k)
        random.Random(6).shuffle(keys)
        for k in keys:
            assert bt.remove(k)
            bt.check_invariants()
        assert len(bt) == 0

    def test_range_scan(self):
        bt = BTree(t=3)
        for k in range(0, 100, 2):
            bt.insert(k, k)
        assert [k for k, _ in bt.range(10, 21)] == [10, 12, 14, 16, 18, 20]
        assert [k for k, _ in bt.range(-5, 5)] == [0, 2, 4]
        assert [k for k, _ in bt.range(97, 200)] == [98]
        assert [k for k, _ in bt.range(200, 300)] == []

    def test_composite_keys(self):
        bt = BTree(t=2)
        bt.insert(("k", (2, "A")), "v2")
        bt.insert(("k", (1, "A")), "v1")
        bt.insert(("j", (9, "B")), "v9")
        assert bt.get(("k", (1, "A"))) == "v1"
        assert [k for k, _ in bt.range(("k", (0, "")), ("k", (99, "")))] == [
            ("k", (1, "A")),
            ("k", (2, "A")),
        ]

    def test_stats_counters(self):
        bt = BTree(t=2)
        for k in range(100):
            bt.insert(k, k)
        bt.stats.reset()
        bt.get(50)
        assert bt.stats.lookups == 1
        assert bt.stats.node_visits >= 1

    def test_dump_load_roundtrip(self, tmp_path):
        bt = BTree(t=4)
        for k in range(200):
            bt.insert(k, str(k))
        path = str(tmp_path / "tree.ckpt")
        assert bt.dump(path) == 200
        loaded = BTree.load(path)
        assert len(loaded) == 200
        assert list(loaded.items()) == list(bt.items())
        loaded.check_invariants()


class TestBTreeProperties:
    @given(st.lists(st.integers(-500, 500)), st.integers(2, 8))
    @settings(max_examples=100)
    def test_matches_dict(self, keys, t):
        bt = BTree(t=t)
        model = {}
        for k in keys:
            bt.insert(k, k * 3)
            model[k] = k * 3
        assert len(bt) == len(model)
        assert list(bt.items()) == sorted(model.items())
        bt.check_invariants()

    @given(
        st.lists(
            st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 60)),
            max_size=200,
        ),
        st.integers(2, 5),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_mixed_ops_match_dict(self, ops, t, record_keys):
        bt = BTree(t=t)
        model = {}
        for op, k in ops:
            if record_keys:
                k = record_key(k)
            if op == "ins":
                bt.insert(k, k)
                model[k] = k
            else:
                assert bt.remove(k) == (k in model)
                model.pop(k, None)
            bt.check_invariants()
        assert list(bt.items()) == sorted(model.items())
        for k in model:
            assert bt.get(k) == k
        if record_keys:
            lo, hi = ("k2", StateId(0, "")), ("k3", StateId(0, ""))
            assert [k for k, _ in bt.range(lo, hi)] == sorted(
                k for k in model if k[0] == "k2"
            )

    @given(st.lists(st.integers(0, 300), min_size=1), st.integers(0, 300), st.integers(0, 300))
    @settings(max_examples=100)
    def test_range_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        bt = BTree(t=3)
        for k in keys:
            bt.insert(k, k)
        expected = sorted(k for k in set(keys) if lo <= k < hi)
        assert [k for k, _ in bt.range(lo, hi)] == expected
