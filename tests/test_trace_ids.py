"""A trace id is a state id, and every row goes to its store's recorder.

``trace_ids_cluster.json`` holds ``[kind, attrs]`` for every event a
seeded ``Cluster(trace=True)`` scenario recorded before trace ids were
derived at the emitter, and before events became rows: forks, a
partition and a heal, a GC with ``flush_promotions`` that forces
``repl.cache → repl.fetch → repl.apply``, a merge, and a ``repl.drop``.
The same scenario must still produce exactly those events, projected onto
the row columns (:func:`project`). The only extra rows allowed are the GC
rows and the user aborts, which used to skip the sites' tracers.
"""

import json
import os

from repro import TardisStore
from repro.core.constraints import StateIdConstraint
from repro.obs.context import causal_timeline, merge_events, trace_id_of
from repro.obs.tracing import Recorder
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


#: the attributes of a fixture event that no row column holds, by kind.
#: ``state`` is the row's ``txn`` (except on ``repl.fetch``, whose
#: fetched state is its ``ref``), ``site`` its recorder's store, a
#: ``repl.send``'s ``src`` that site too, a fetch's ``peer`` the site whose
#: ``repl.cache`` row carries the same ``txn``, a commit's ``ripple`` is in
#: ``tardis_commit_ripple_steps`` and its ``fork`` is the ``branch.fork``
#: row after it.
DROPPED = {
    "txn.commit": {"state", "ripple", "fork"},
    "branch.fork": {"state"},
    "branch.merge": {"state"},
    "repl.send": {"state", "src"},
    "repl.apply": {"state"},
    "repl.cache": {"state"},
    "repl.fetch": {"peer"},
    "repl.drop": {"state"},
}
#: the attribute a kind keeps in ``n``, and in ``ref``.
N_FROM = {"txn.commit": "writes", "branch.merge": "writes"}
REF_FROM = {
    "branch.merge": "parents", "repl.apply": "src",
    "repl.cache": "missing", "repl.fetch": "state",
}


def project(kind, attrs):
    """A fixture event as ``[site, layer, name, parent, txn, n, ref]``."""
    attrs = dict(attrs)
    site, txn, parent = attrs.pop("site"), attrs.pop("trace"), attrs.pop("parent")
    n = attrs.pop(N_FROM[kind]) if kind in N_FROM else 0
    ref = attrs.pop(REF_FROM[kind]) if kind in REF_FROM else None
    if kind == "branch.merge":  # the first parent is ``parent``
        assert ref[0] == parent
        ref = ref[1:]
    assert set(attrs) == DROPPED[kind]
    assert kind == "repl.fetch" or attrs["state"] == txn
    layer, name = kind.split(".")
    return [site, layer, name, parent, txn, n, ref]


#: rows that went to the module default tracer instead of the site's
#: own before every store event took one route.
def _rerouted(row):
    return row["layer"] == "gc" or (row["name"] == "abort" and row["ref"] == "user")


def _captured(cluster):
    return json.loads(json.dumps([
        [row[c] for c in ("site", "layer", "name", "parent", "txn", "n", "ref")]
        for row in cluster.events()
        if not _rerouted(row)
    ]))


class TestEquivalence:
    def test_cluster_rows_match_the_fixture(self):
        cluster = run_scenario()
        assert all(s.recorder.dropped == 0 for s in cluster.stores.values())
        with open(FIXTURE) as handle:
            fixture = json.load(handle)
        kinds = {kind for kind, _attrs in fixture}
        assert {
            "txn.commit", "branch.fork", "branch.merge", "repl.send",
            "repl.apply", "repl.cache", "repl.fetch", "repl.drop",
        } <= kinds
        assert _captured(cluster) == [project(*event) for event in fixture]

    def test_fetch_is_charged_to_the_waiting_transaction(self):
        cluster = run_scenario()
        cached = cluster.events(kind="repl.cache")[0]
        fetch = cluster.events(kind="repl.fetch")[0]
        assert fetch["ref"] == cached["ref"]  # the missing state is fetched
        assert (fetch["txn"], fetch["parent"]) == (cached["txn"], cached["parent"])
        assert fetch["site"] != cached["site"]  # the fetch's peer


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
        cycles = cluster.events(kind="gc.cycle")
        assert sorted(row["site"] for row in cycles) == sorted(cluster.sites)
        aborts = cluster.events(kind="txn.abort")
        assert sorted(row["site"] for row in aborts) == sorted(cluster.sites)
        assert all(row["ref"] == "user" for row in aborts)

    def test_gc_promotions_reach_the_store_recorder(self):
        store = TardisStore("g")
        store.recorder.enabled = True
        sess = store.session("w")
        first = store.put("x", 0, session=sess)
        for i in range(3):
            store.put("x", i + 1, session=sess)
        sess.place_ceiling()
        stats = store.collect_garbage()
        rows = merge_events({"g": store.recorder})
        promotions = [row for row in rows if row["name"] == "promotion"]
        assert len(promotions) == stats.states_removed > 0
        assert repr(first) in {row["txn"] for row in promotions}
        # the last state spliced out was promoted into a live one
        with store._lock:
            live = {repr(s.id) for s in store.dag.states()}
        assert promotions[-1]["ref"] in live
        # The chain is spliced oldest first, so each state is the root
        # when it goes: no parent is left to name.
        assert all(row["parent"] is None for row in promotions)
        (cycle,) = [row for row in rows if row["name"] == "cycle"]
        assert cycle["n"] == stats.states_removed

    def test_speculation_rows_reach_the_store_recorder(self):
        executor = SpeculativeExecutor()
        executor.store.recorder.enabled = True

        def bump(txn):
            txn.put("x", txn.get("x", default=0) + 1)

        executor.submit(bump)
        executor.deliver_confirmed([RemoteTxn(writes={"y": 1})])
        executor.submit(bump)
        executor.deliver_confirmed([RemoteTxn(writes={"x": 9})])
        spec = [(row["name"], row["n"]) for row in executor.store.recorder.rows()
                if row["layer"] == "spec"]
        assert spec == [("confirm", 1), ("misspeculate", 1)]

    def test_commit_fork_and_merge_rows_name_their_parents(self):
        store = TardisStore("s")
        store.recorder.enabled = True
        a, b = store.session("a"), store.session("b")
        store.put("x", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("x", t1.get("x") + 1)
        t2.put("x", t2.get("x") + 2)
        t1.commit()
        forked = t2.commit()
        merge = store.begin_merge(session=a)
        merge.put("x", 3)
        merged = merge.commit()
        rows = store.recorder.rows()
        assert [(row["layer"], row["name"]) for row in rows] == [
            ("txn", "commit"), ("txn", "commit"), ("txn", "commit"),
            ("branch", "fork"), ("branch", "merge"),
        ]
        assert all(row["parent"] is not None for row in rows)
        fork, merge_row = rows[3], rows[4]
        assert (fork["txn"], fork["parent"]) == (repr(forked), rows[2]["parent"])
        assert merge_row["txn"] == repr(merged) and merge_row["n"] == 1
        assert len(merge_row["ref"]) == 1  # the second parent

    def test_plain_store_timeline(self):
        store = TardisStore("us")
        store.recorder = Recorder(enabled=True, clock=lambda: 0.0)
        sid = store.put("x", 1)
        child = store.put("x", 2)
        store.recorder.enabled = False
        store.put("x", 3)  # not recorded
        timeline = causal_timeline(merge_events({"us": store.recorder}), trace_id_of(sid))
        assert [row["name"] for row in timeline] == ["commit", "commit"]
        assert timeline[0]["txn"] == repr(sid)
        with store._lock:
            assert timeline[0]["parent"] == repr(store.dag.root.id)
        assert timeline[1]["txn"] == repr(child)
