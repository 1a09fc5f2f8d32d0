"""A trace id is a state id, and every event goes to its store's tracer.

``trace_ids_cluster.json`` holds ``[kind, attrs]`` for every event a
seeded ``Cluster(trace=True)`` scenario recorded before trace ids were
derived at the emitter: forks, a partition and a heal, a GC with
``flush_promotions`` that forces ``repl.cache → repl.fetch → repl.apply``,
a merge, and a ``repl.drop``. The same scenario must still produce exactly
those events. The only extra events allowed are the GC events and the
user aborts, which used to skip the sites' tracers.
"""

import json
import os

from repro import TardisStore
from repro import obs
from repro.core.constraints import StateIdConstraint
from repro.obs import metrics as met
from repro.obs import tracing as trc
from repro.obs.context import causal_timeline, trace_id_of
from repro.replication import Cluster
from repro.speculation import SpeculativeExecutor
from repro.speculation.executor import RemoteTxn

FIXTURE = os.path.join(os.path.dirname(__file__), "trace_ids_cluster.json")


def run_scenario():
    cluster = Cluster(n_sites=2, default_latency_ms=10, trace=True,
                      trace_capacity=65536)
    us, eu = cluster.stores["us"], cluster.stores["eu"]
    net = cluster.network
    writer, local = us.session("writer"), eu.session("local")

    # Concurrent commits at both sites fork the shared base state.
    us.put("x", 0, session=writer)
    cluster.run()
    us.put("x", 1, session=writer)
    eu.put("y", 1, session=local)
    cluster.run()
    # A local fork: two read-modify-writes of the same key.
    t1, t2 = us.begin(session=writer), us.begin(session=us.session("other"))
    t1.put("x", t1.get("x") + 1)
    t2.put("x", t2.get("x") + 2)
    t1.commit()
    t2.commit()
    p = us.put("x", 5, session=writer)
    tip = us.put("x", 6, session=writer)
    cluster.run()
    aborted = eu.begin(session=local)
    aborted.put("y", 99)
    aborted.abort()

    # Partition. us forks at p with a transaction that read a key the
    # branch below p rewrote; eu collects p and flushes its promotion.
    net.partition("us", "eu")
    late = us.begin(StateIdConstraint([p]), session=us.session("late"))
    late.put("x", late.get("x") * 10)
    late.commit()
    local.ceiling = tip
    eu.collect_garbage(flush_promotions=True)
    assert p not in eu.dag
    # Heal: eu caches the late transaction, fetches p back from us,
    # applies p and then the late transaction.
    net.heal("us", "eu")
    cluster.run()

    # A merge of every branch at us, replicated to eu.
    merge = us.begin_merge(session=writer)
    for key in merge.find_conflict_writes():
        merge.put(key, max(v for v in merge.get_all(key) if v is not None))
    merge.commit()
    cluster.run()

    # Partition again: eu compresses past the base of a transaction us
    # commits meanwhile, so the transaction arrives below a promoted
    # state and is dropped (§6.4).
    net.partition("us", "eu")
    us.put("w", 1, session=writer)
    for i in range(12):
        eu.put("v", i, session=local)
    local.place_ceiling()
    eu.collect_garbage()
    net.heal("us", "eu")
    cluster.run()
    for store in (us, eu):
        store.collect_garbage()
    return cluster


#: events that went to the module default tracer instead of the site's
#: own before every store event took one route.
def _rerouted(kind, attrs):
    return kind.startswith("gc.") or (
        kind == "txn.abort" and attrs.get("reason") == "user"
    )


def _captured(cluster):
    return json.loads(
        json.dumps([[e.kind, e.attrs] for e in cluster.events()])
    )


class TestEquivalence:
    def test_cluster_events_match_the_fixture(self):
        cluster = run_scenario()
        assert all(t.dropped == 0 for t in cluster.tracers.values())
        events = _captured(cluster)
        with open(FIXTURE) as handle:
            fixture = json.load(handle)
        kinds = {kind for kind, _attrs in fixture}
        assert {
            "txn.commit", "branch.fork", "branch.merge", "repl.send",
            "repl.apply", "repl.cache", "repl.fetch", "repl.drop",
        } <= kinds
        assert [e for e in events if not _rerouted(*e)] == fixture

    def test_fetch_is_charged_to_the_waiting_transaction(self):
        cluster = run_scenario()
        cached = cluster.events(kind="repl.cache")[0].attrs
        fetch = cluster.events(kind="repl.fetch")[0].attrs
        assert fetch["state"] == cached["missing"]
        assert (fetch["trace"], fetch["parent"]) == (
            cached["trace"], cached["parent"],
        )
        assert cached["trace"] == cached["state"]


class TestOneRoute:
    def test_cluster_records_gc_and_user_aborts(self):
        cluster = Cluster(n_sites=3, trace=True)
        for i in range(20):
            store = cluster.stores[cluster.sites[i % 3]]
            store.put("k%d" % (i % 4), i)
        for site, store in cluster.stores.items():
            txn = store.begin()
            txn.put("k0", -1)
            txn.abort()
        cluster.run()
        for store in cluster.stores.values():
            store.collect_garbage()
        kinds = [e.kind for e in cluster.events()]
        assert kinds.count("gc.cycle") == 3
        aborts = cluster.events(kind="txn.abort")
        assert sorted(e.attrs["site"] for e in aborts) == sorted(cluster.sites)
        assert all(e.attrs["reason"] == "user" for e in aborts)
        assert {e.attrs["site"] for e in cluster.events(kind="gc.cycle")} == set(
            cluster.sites
        )

    def test_gc_promotions_reach_the_store_tracer(self):
        tracer = trc.Tracer(enabled=True, clock=lambda: 0.0)
        store = TardisStore("g")
        store.tracer = tracer
        sess = store.session("w")
        first = store.put("x", 0, session=sess)
        for i in range(3):
            store.put("x", i + 1, session=sess)
        sess.place_ceiling()
        stats = store.collect_garbage()
        promotions = tracer.events(kind="gc.promotion")
        assert len(promotions) == stats.states_removed > 0
        assert repr(first) in {e.attrs["state"] for e in promotions}
        assert all(e.attrs["trace"] == e.attrs["state"] for e in promotions)
        # The chain is spliced oldest first, so each state is the root
        # when it goes: no parent is left to name.
        assert all(e.attrs["parent"] is None for e in promotions)
        assert tracer.events(kind="gc.cycle")[0].attrs["removed"] == (
            stats.states_removed
        )

    def test_speculation_events_reach_the_store_tracer(self):
        tracer = trc.Tracer(enabled=True, clock=lambda: 0.0)
        executor = SpeculativeExecutor()
        executor.store.tracer = tracer

        def bump(txn):
            txn.put("x", txn.get("x", default=0) + 1)

        executor.submit(bump)
        executor.deliver_confirmed([RemoteTxn(writes={"y": 1})])
        executor.submit(bump)
        executor.deliver_confirmed([RemoteTxn(writes={"x": 9})])
        kinds = [e.kind for e in tracer.events()]
        assert kinds.count("spec.confirm") == 1
        assert kinds.count("spec.misspeculate") == 1

    def test_commit_schema_does_not_depend_on_wiring(self):
        def commit_attrs(store):
            a, b = store.session("a"), store.session("b")
            store.put("x", 0, session=a)
            t1, t2 = store.begin(session=a), store.begin(session=b)
            t1.put("x", t1.get("x") + 1)
            t2.put("x", t2.get("x") + 2)
            t1.commit()
            t2.commit()
            merge = store.begin_merge(session=a)
            merge.put("x", 3)
            merge.commit()

        own = trc.Tracer(enabled=True, clock=lambda: 0.0)
        wired = TardisStore("s")
        wired.tracer = own
        commit_attrs(wired)
        default = trc.Tracer(enabled=True, clock=lambda: 0.0)
        with trc.use_tracer(default):
            plain = TardisStore("s")
            commit_attrs(plain)
        schema = [(e.kind, e.attrs) for e in own.events()]
        assert [(e.kind, e.attrs) for e in default.events()] == schema
        assert {kind for kind, _attrs in schema} == {
            "txn.commit", "branch.fork", "branch.merge",
        }
        for _kind, attrs in schema:
            assert attrs["trace"] == attrs["state"]
            assert attrs["parent"] is not None

    def test_plain_store_timeline_under_obs_enable(self):
        tracer = trc.Tracer(enabled=False, clock=lambda: 0.0)
        with met.use_registry(met.MetricsRegistry(enabled=False)):
            with trc.use_tracer(tracer):
                obs.enable()
                store = TardisStore("us")
                sid = store.put("x", 1)
                child = store.put("x", 2)
                obs.enable(False)
        timeline = causal_timeline(tracer.events(), trace_id_of(sid))
        assert [e.kind for e in timeline] == ["txn.commit", "txn.commit"]
        assert timeline[0].attrs["trace"] == repr(sid)
        assert timeline[0].attrs["parent"] == repr(store.dag.root.id)
        assert timeline[1].attrs["trace"] == repr(child)
