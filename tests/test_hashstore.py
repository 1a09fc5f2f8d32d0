"""Tests for the hash record engine (after TARDiS-MDB, §6.6)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import OCCStore, TwoPhaseLockingStore
from repro.storage.hashstore import HashStore


class TestHashStore:
    def test_basics(self):
        hs = HashStore()
        assert len(hs) == 0
        hs.insert("a", 1)
        hs.insert("a", 2)
        assert hs.get("a") == 2
        assert "a" in hs
        assert hs.get("missing", "d") == "d"
        assert hs.remove("a")
        assert not hs.remove("a")

    def test_ordered_iteration(self):
        hs = HashStore()
        for k in [5, 1, 3]:
            hs.insert(k, k)
        assert list(hs.keys()) == [1, 3, 5]
        assert [k for k, _v in hs.range(2, 5)] == [3]

    def test_dump_load(self, tmp_path):
        hs = HashStore()
        for i in range(50):
            hs.insert(i, str(i))
        path = str(tmp_path / "hash.ckpt")
        assert hs.dump(path) == 50
        loaded = HashStore.load(path)
        assert list(loaded.items()) == list(hs.items())

    def test_stats(self):
        hs = HashStore()
        hs.insert("a", 1)
        hs.get("a")
        assert hs.stats.inserts == 1
        assert hs.stats.lookups == 1
        hs.stats.reset()
        assert hs.stats.lookups == 0

    @given(st.lists(st.tuples(st.sampled_from(["i", "d"]), st.integers(0, 30))))
    @settings(max_examples=100)
    def test_matches_dict(self, ops):
        hs = HashStore()
        model = {}
        for op, key in ops:
            if op == "i":
                hs.insert(key, key)
                model[key] = key
            else:
                assert hs.remove(key) == (key in model)
                model.pop(key, None)
        assert list(hs.items()) == sorted(model.items())


class TestHashBackedStore:
    """The engine registry serves the single-version baselines."""

    def test_store_with_hash_backend(self):
        store = OCCStore(engine="hash")
        txn = store.begin()
        txn.put("x", 1)
        txn.commit()
        assert isinstance(store.records, HashStore)
        assert store.begin().get("x") == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            OCCStore(engine="rocksdb")

    def test_backends_equivalent_on_random_history(self):
        """Identical schedule => identical behaviour across backends."""
        rng = random.Random(5)
        schedule = [
            [
                ("r" if rng.random() < 0.5 else "w",
                 "k%d" % rng.randrange(6), rng.randrange(100))
                for _ in range(rng.randint(1, 4))
            ]
            for _ in range(80)
        ]

        def run(store):
            out = []
            for ops in schedule:
                txn = store.begin()
                seen = []
                for kind, key, value in ops:
                    if kind == "r":
                        seen.append(txn.get(key, default=None))
                    else:
                        txn.put(key, value)
                txn.commit()
                out.append(tuple(seen))
            return out, sorted(store.records.items())

        for cls in (OCCStore, TwoPhaseLockingStore):
            assert run(cls(engine="btree")) == run(cls(engine="hash"))
