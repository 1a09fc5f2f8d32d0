"""Coverage for smaller surfaces: errors, reprs, edge paths, cross-site apps."""

import json
import subprocess
import sys

import pytest

from repro import (
    AncestorConstraint,
    AncestryIndex,
    ForkPoint,
    KBranchingConstraint,
    NoBranchingConstraint,
    Or,
    ROOT_ID,
    SerializabilityConstraint,
    StateId,
    TardisStore,
)
from repro.apps.retwis import RetwisApp, retwis_merge_resolver
from repro.errors import (
    DeadlockError,
    GarbageCollectedError,
    KeyNotFound,
    MultipleValuesError,
    TardisError,
    TransactionAborted,
)
from repro.replication import Cluster


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            TransactionAborted("x"),
            KeyNotFound("k"),
            GarbageCollectedError(ROOT_ID),
            DeadlockError(1, cycle=[1, 2]),
            MultipleValuesError("k", [(ROOT_ID, 1)]),
        ):
            assert isinstance(exc, TardisError)

    def test_attributes(self):
        exc = MultipleValuesError("key", [(ROOT_ID, 1), (ROOT_ID, 2)])
        assert exc.key == "key"
        assert len(exc.candidates) == 2
        assert DeadlockError(7).txn_id == 7
        assert DeadlockError(7).cycle == []
        assert KeyNotFound("k").key == "k"
        assert GarbageCollectedError(ROOT_ID).state_id == ROOT_ID
        assert TransactionAborted("why").reason == "why"


class TestReprsAndHelpers:
    def test_state_id_repr(self):
        assert repr(ROOT_ID) == "s0"
        assert repr(StateId(3, "A")) == "s3@A"

    def test_fork_path_repr_and_choices(self):
        index = AncestryIndex()
        mask = index.mask_of([ForkPoint(StateId(1, "A"), 0), ForkPoint(StateId(2, "A"), 1)])
        assert "(s1@A,0)" in repr(list(index.points_of(mask)))
        choices = index.choices_by_fork(mask)
        assert sorted(choices) == [StateId(1, "A"), StateId(2, "A")]
        assert [choices[s] for s in sorted(choices)] == [{0}, {1}]

    def test_state_repr_counts_fork_points(self):
        store = TardisStore("A")
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 2)
        t1.commit()
        t2.commit()
        merge = store.begin_merge(session=a)
        merge.put("x", 3)
        merge_id = merge.commit()
        with store._lock:
            merged = store.dag.resolve(merge_id)
        assert "fork_points=2" in repr(merged)
        assert "fork_points=0" in repr(store.dag.root)

    def test_store_and_session_repr(self):
        store = TardisStore("A")
        sess = store.session("me")
        assert "site=A" in repr(store)
        assert "me" in repr(sess)

    def test_txn_reprs(self):
        store = TardisStore("A")
        txn = store.begin()
        assert "Transaction" in repr(txn)
        txn.abort()
        store.put("x", 1)
        store.put("y", 1, session=store.session("b"))
        merge = store.begin_merge()
        assert "MergeTransaction" in repr(merge)
        merge.abort()

    def test_constraint_or_capabilities(self):
        combo = Or(AncestorConstraint(), SerializabilityConstraint())
        assert combo.can_begin  # Ancestor side
        assert combo.can_end    # Serializability side
        assert "|" in combo.name

    def test_kbranching_as_begin_constraint(self):
        store = TardisStore("A")
        store.put("x", 1)
        txn = store.begin(KBranchingConstraint(3))
        assert txn.get("x") == 1
        txn.commit()

    def test_no_branching_as_begin_constraint(self):
        store = TardisStore("A")
        store.put("x", 1)
        txn = store.begin(NoBranchingConstraint())
        assert txn.read_state.is_leaf
        txn.commit()


class TestVersionsEdges:
    def test_items_at_snapshot(self):
        store = TardisStore("A")
        with store.begin() as t:
            t.put("a", 1)
            t.put("b", 2)
        mid = store.session("s").last_commit_id
        with store._lock:
            mid_state = store.dag.leaves()[0]
        with store.begin() as t:
            t.put("a", 10)
        with store._lock:
            snapshot = dict(store.versions.items_at(mid_state, store.dag))
        assert snapshot == {"a": 1, "b": 2}

    def test_read_candidates_superseded_dropped(self):
        store = TardisStore("A")
        store.put("x", 1)
        with store._lock:
            s1 = store.dag.leaves()[0]
        store.put("x", 2)
        with store._lock:
            s2 = store.dag.leaves()[0]
        # s1 is an ancestor of s2: only s2's version is maximal.
        with store._lock:
            candidates = store.versions.read_candidates("x", [s1, s2], store.dag)
        assert len(candidates) == 1
        assert candidates[0][1] == 2


class TestClusterEdges:
    def test_converged_false_when_diverged(self):
        cluster = Cluster(n_sites=2, default_latency_ms=5)
        us, eu = cluster.stores["us"], cluster.stores["eu"]
        us.put("x", 1)
        cluster.run(until=50)
        t = eu.begin(session=eu.session("w"))
        t.put("x", t.get("x") + 1)
        t.commit()
        t2 = us.begin(session=us.session("w"))
        t2.put("x", t2.get("x") + 5)
        t2.commit()
        cluster.run(until=200)
        assert not cluster.converged("x")  # two branches everywhere

    def test_geo_latency_pairs_applied(self):
        cluster = Cluster(n_sites=3)
        assert cluster.network.latency("us", "eu") == 50.0
        assert cluster.network.latency("eu", "asia") == 125.0

    def test_state_counts(self):
        cluster = Cluster(n_sites=2)
        counts = cluster.state_counts()
        assert counts == {"us": 1, "eu": 1}


class TestRetwisAcrossSites:
    def test_posts_replicate_and_merge_across_sites(self):
        cluster = Cluster(n_sites=2, default_latency_ms=5)
        app_us = RetwisApp(cluster.stores["us"])
        app_us.create_account("alice")
        app_us.create_account("carla")
        app_us.follow("carla", "alice")
        cluster.run(until=50)

        app_eu = RetwisApp(cluster.stores["eu"])
        # Concurrent posts at both sites.
        app_us.post("alice", "from us")
        app_eu.post("alice", "from eu")
        cluster.run(until=200)

        resolved = app_us.merge_branches()
        assert resolved >= 1
        cluster.run(until=500)
        timeline_us = [c for _a, c in app_us.read_own_timeline("carla")]
        assert set(timeline_us) == {"from us", "from eu"}
        # The merge replicated; eu serves the merged timeline too.
        timeline_eu = [
            c for _a, c in RetwisApp(cluster.stores["eu"]).read_own_timeline("carla")
        ]
        assert set(timeline_eu) == {"from us", "from eu"}


class TestLazyPackages:
    """``repro``, ``repro.core`` and ``repro.obs`` re-export lazily (PEP 562)."""

    @staticmethod
    def _modules_after(fresh_python, source):
        """Every module a fresh interpreter holds after running ``source``."""
        run = fresh_python(
            "-c", source + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err[-2000:]
        return json.loads(out)

    def test_importing_the_version_lists_loads_no_store(self, fresh_python):
        modules = self._modules_after(fresh_python, "import repro.core.versions")
        assert "repro.core.versions" in modules
        assert "repro.core.store" not in modules

    def test_the_cli_imports_what_its_command_runs(self, fresh_python):
        modules = self._modules_after(fresh_python, "import repro.tools.cli, repro.server.server")
        unused_by_serve = ("repro.sim", "repro.analysis", "repro.replication", "repro.workload")
        assert [m for m in modules if m.startswith(unused_by_serve)] == []

    def test_every_name_in_all_resolves(self):
        namespace = {}
        exec("from repro import TardisStore, errors", namespace)
        assert namespace["errors"].TardisError is TardisError
        for package in ("repro", "repro.core", "repro.obs"):
            namespace = {}
            exec("from %s import *" % package, namespace)
            assert set(sys.modules[package].__all__) <= set(namespace), package

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.core.Nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from repro import Nope", {})
