"""Unit and property tests for the per-key version list.

``VersionedRecordStore`` keeps, per key, one list of ``(state_id,
value)`` pairs in ascending id order (docs/internals.md §10). These
tests drive it through its public lookups — ``write``, ``versions_of``,
``record``, ``num_records`` — and through ``promote_and_prune``, the
only path that removes a version.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TardisStore
from repro.core.ids import StateId
from repro.core.state_dag import StateDAG
from repro.core.versions import VersionedRecordStore


def live_ids(n, site="d"):
    """A DAG with ``n`` children of its root, and their ids (counters
    1..n): versions tagged with them survive pruning."""
    dag = StateDAG(site)
    ids = [dag.create_state([dag.root]).id for _ in range(n)]
    assert ids == [StateId(k, site) for k in range(1, n + 1)]
    return dag, ids


def ghost(counter):
    """An id no DAG here knows: its version is an orphan (§6.5)."""
    return StateId(counter, "gone")


class TestVersionListBasics:
    def test_empty(self):
        versions = VersionedRecordStore()
        dag = StateDAG("e")
        assert versions.num_records() == 0
        assert versions.num_keys() == 0
        assert list(versions.keys()) == []
        assert versions.versions_of("x") == []
        assert versions.num_versions("x") == 0
        assert versions.record("x", StateId(1, "e")) is None
        assert versions.record("x", StateId(1, "e"), "d") == "d"
        assert versions.read_visible("x", dag.root, dag) is None

    def test_write_and_record(self):
        versions = VersionedRecordStore()
        a, b, c = StateId(1, "s"), StateId(2, "s"), StateId(3, "s")
        versions.write("x", c, "c")
        versions.write("x", a, "a")
        versions.write("x", b, "b")
        assert versions.num_versions("x") == 3
        assert versions.num_records() == 3
        assert versions.num_keys() == 1
        assert versions.record("x", a) == "a"
        assert versions.record("x", b) == "b"
        assert versions.record("x", c) == "c"
        # An id between two present ones, or past either end, is absent.
        assert versions.record("x", StateId(2, "t"), "d") == "d"
        assert versions.record("x", StateId(0, "s"), "d") == "d"
        assert versions.record("x", StateId(4, "s"), "d") == "d"
        assert versions.record("y", a, "d") == "d"

    def test_versions_newest_first(self):
        versions = VersionedRecordStore()
        for k in [5, 3, 9, 1, 7]:
            versions.write("x", StateId(k, "s"), k * 10)
        assert versions.versions_of("x") == [StateId(k, "s") for k in [9, 7, 5, 3, 1]]
        assert [versions.record("x", StateId(k, "s")) for k in [1, 3, 5, 7, 9]] == [
            10,
            30,
            50,
            70,
            90,
        ]

    def test_duplicate_write_replaces(self):
        versions = VersionedRecordStore()
        sid = StateId(1, "s")
        versions.write("x", sid, "a")
        versions.write("x", sid, "b")
        assert versions.versions_of("x") == [sid]
        assert versions.num_records() == 1
        assert versions.record("x", sid) == "b"

    def test_site_breaks_counter_ties(self):
        versions = VersionedRecordStore()
        versions.write("x", StateId(1, "A"), None)
        versions.write("x", StateId(2, "A"), None)
        versions.write("x", StateId(1, "B"), None)
        assert versions.versions_of("x") == [
            StateId(2, "A"),
            StateId(1, "B"),
            StateId(1, "A"),
        ]

    def test_values_never_compared(self):
        # Values of unorderable types share a list: placement compares
        # ids only.
        versions = VersionedRecordStore()
        versions.write("x", StateId(2, "s"), {"b": 2})
        versions.write("x", StateId(1, "s"), {"a": 1})
        versions.write("x", StateId(1, "s"), {"a": 3})
        versions.write("x", StateId(1, "r"), object)
        assert versions.versions_of("x") == [
            StateId(2, "s"),
            StateId(1, "s"),
            StateId(1, "r"),
        ]
        assert versions.record("x", StateId(1, "s")) == {"a": 3}

    def test_newest_visible_version_wins(self):
        store = TardisStore("f")
        sess = store.session("a")
        ids = [store.put("x", i, session=sess) for i in range(4)]
        with store._lock:
            versions, dag = store.versions, store.dag
            assert versions.versions_of("x") == ids[::-1]
            assert versions.read_visible("x", dag.root, dag) is None
            for i, sid in enumerate(ids):
                assert versions.read_visible("x", dag.resolve(sid), dag) == (sid, i)

    def test_prune_some_orphans(self):
        dag, ids = live_ids(5)
        versions = VersionedRecordStore()
        for k, sid in enumerate(ids, start=1):
            versions.write("x", sid, k)
            versions.write("x", ghost(k), -k)
        assert versions.num_records() == 10
        assert versions.promote_and_prune(dag) == (0, 5)
        assert versions.versions_of("x") == ids[::-1]
        assert versions.num_records() == 5
        assert [versions.record("x", sid) for sid in ids] == [1, 2, 3, 4, 5]
        assert versions.record("x", ghost(3)) is None
        # Nothing left to prune: a second pass is a no-op.
        assert versions.promote_and_prune(dag) == (0, 0)
        assert versions.versions_of("x") == ids[::-1]

    def test_prune_all(self):
        dag, _ = live_ids(0)
        versions = VersionedRecordStore()
        for k in range(20):
            versions.write("x", ghost(k), k)
        assert versions.promote_and_prune(dag) == (0, 20)
        assert versions.num_records() == 0
        assert versions.num_keys() == 0
        assert versions.versions_of("x") == []
        # The key can be written again from scratch.
        versions.write("x", ghost(3), "again")
        assert versions.versions_of("x") == [ghost(3)]
        assert versions.num_records() == 1

    def test_gc_prunes_superseded_versions(self):
        store = TardisStore("A")
        sess = store.session("w")
        for i in range(20):
            txn = store.begin(session=sess)
            txn.put("x", i)
            txn.commit()
        sess.place_ceiling()
        stats = store.collect_garbage()
        assert stats.records_dropped == 19
        assert store.get("x") == 19
        with store._lock:
            assert store.versions.num_records() == 1
            assert store.versions.num_versions("x") == 1


ids_strategy = st.builds(
    StateId, st.integers(0, 50), st.sampled_from(["a", "b", "c"])
)


class TestVersionListProperties:
    @given(st.lists(st.tuples(ids_strategy, st.integers())))
    @settings(max_examples=200)
    def test_matches_sorted_set(self, writes):
        versions = VersionedRecordStore()
        model = {}
        for sid, value in writes:
            versions.write("x", sid, value)
            model[sid] = value
        assert versions.versions_of("x") == sorted(model, reverse=True)
        assert versions.num_records() == len(model)
        for sid, value in model.items():
            assert versions.record("x", sid) == value

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("w"), st.integers(1, 30), st.booleans(), st.integers()
                ),
                st.just(("gc",)),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200)
    def test_mixed_writes_and_prunes_match_dict(self, ops):
        dag, ids = live_ids(30)
        versions = VersionedRecordStore()
        model = {}
        for op in ops:
            if op[0] == "w":
                _, k, live, value = op
                sid = ids[k - 1] if live else ghost(k)
                versions.write("x", sid, value)
                model[sid] = value
            else:
                orphans = [sid for sid in model if sid.site == "gone"]
                assert versions.promote_and_prune(dag) == (0, len(orphans))
                for sid in orphans:
                    del model[sid]
            assert versions.versions_of("x") == sorted(model, reverse=True)
            assert versions.num_records() == len(model)
        assert versions.num_keys() == (1 if model else 0)
        for sid, value in model.items():
            assert versions.record("x", sid) == value

    def test_large_randomized(self):
        rng = random.Random(42)
        dag, ids = live_ids(100)
        versions = VersionedRecordStore()
        model = {}
        for step in range(5000):
            key = "k%d" % rng.randrange(5)
            k = rng.randrange(1, 101)
            sid = ids[k - 1] if rng.random() < 0.7 else ghost(k)
            versions.write(key, sid, step)
            model.setdefault(key, {})[sid] = step
            if step % 500 == 499:
                dropped = 0
                for key_model in model.values():
                    orphans = [s for s in key_model if s.site == "gone"]
                    dropped += len(orphans)
                    for s in orphans:
                        del key_model[s]
                assert versions.promote_and_prune(dag) == (0, dropped)
        assert sorted(versions.keys()) == sorted(k for k, m in model.items() if m)
        for key, key_model in model.items():
            assert versions.versions_of(key) == sorted(key_model, reverse=True)
            for sid, value in key_model.items():
                assert versions.record(key, sid) == value
        assert versions.num_records() == sum(len(m) for m in model.values())
