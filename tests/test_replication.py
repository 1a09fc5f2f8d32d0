"""Tests for multi-site replication: gossip, caching, partitions, GC modes."""

import random

import pytest

from repro.core.ids import CommitRecord, StateId
from repro.obs import metrics as met
from repro.obs.context import trace_id_of
from repro.replication import Cluster, SimNetwork
from repro.replication.cluster import (
    PESSIMISTIC,
    SITE_NAMES,
    run_replicated_workload,
)
from repro.replication.replicator import FetchRequest
from repro.sim.des import Simulator
from repro.workload import RunConfig, YCSBWorkload
from repro.errors import UnknownSiteError


def two_sites(latency=10.0, **kw):
    return Cluster(n_sites=2, default_latency_ms=latency, **kw)


class TestSimNetwork:
    def test_delivery_with_latency(self):
        sim = Simulator()
        net = SimNetwork(sim, default_latency_ms=5)
        inbox = []
        net.connect("b", lambda src, msg: inbox.append((sim.now, src, msg)))
        net.connect("a", lambda src, msg: None)
        net.send("a", "b", "hello")
        sim.run()
        assert inbox == [(5.0, "a", "hello")]

    def test_per_pair_latency(self):
        sim = Simulator()
        net = SimNetwork(sim, default_latency_ms=5)
        net.set_latency("a", "b", 100)
        inbox = []
        net.connect("b", lambda src, msg: inbox.append(sim.now))
        net.send("a", "b", "x")
        sim.run()
        assert inbox == [100.0]

    def test_unknown_site(self):
        net = SimNetwork(Simulator())
        with pytest.raises(UnknownSiteError):
            net.send("a", "nowhere", "x")

    def test_partition_buffers_and_heals(self):
        sim = Simulator()
        net = SimNetwork(sim, default_latency_ms=1)
        inbox = []
        net.connect("b", lambda src, msg: inbox.append(msg))
        net.connect("a", lambda src, msg: None)
        net.partition("a", "b")
        net.send("a", "b", 1)
        net.send("a", "b", 2)
        sim.run()
        assert inbox == []
        net.heal("a", "b")
        sim.run()
        assert inbox == [1, 2]

    def test_broadcast(self):
        sim = Simulator()
        net = SimNetwork(sim, default_latency_ms=1)
        got = {"b": [], "c": []}
        net.connect("a", lambda s, m: None)
        net.connect("b", lambda s, m: got["b"].append(m))
        net.connect("c", lambda s, m: got["c"].append(m))
        net.broadcast("a", "hi")
        sim.run()
        assert got == {"b": ["hi"], "c": ["hi"]}


class TestReplication:
    def test_simple_propagation(self):
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        a.put("x", 1)
        cluster.run(until=100)
        assert b.get("x") == 1
        assert cluster.replicators["eu"].applied == 1

    def test_state_ids_preserved_across_sites(self):
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        sid = a.put("x", 1)
        cluster.run(until=100)
        assert sid in b.dag
        with b._lock:
            assert b.dag.resolve(sid).id == sid

    def test_bidirectional_non_conflicting(self):
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        a.put("xa", 1)
        b.put("xb", 2)
        cluster.run(until=100)
        # Writes happened concurrently at different sites: each site now
        # holds both branches; values readable per branch.
        for store in (a, b):
            with store._lock:
                assert len(store.dag.leaves()) == 2

    def test_cross_site_conflict_and_merge(self):
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        a.put("x", 0)
        cluster.run(until=100)
        # Conflicting increments at both sites (the Wikipedia scenario).
        ta = a.begin(session=a.session("alice"))
        ta.put("x", ta.get("x") + 1)
        ta.commit()
        tb = b.begin(session=b.session("bruno"))
        tb.put("x", tb.get("x") + 5)
        tb.commit()
        cluster.run(until=300)
        # Both sites see both branches.
        for store in (a, b):
            merge = store.begin_merge()
            assert sorted(merge.get_all("x")) == [1, 5]
            assert merge.find_conflict_writes() == ["x"]
            merge.abort()
        # Merge at one site; the merge replicates.
        merge = a.begin_merge(session=a.session("alice"))
        fork = merge.find_fork_points()[0]
        base = merge.get_for_id("x", fork)
        merge.put("x", base + sum(v - base for v in merge.get_all("x")))
        merge.commit()
        cluster.run(until=600)
        assert cluster.converged("x")
        tb2 = b.begin(session=b.session("checker"))
        assert tb2.get("x") == 6  # 0 + 1 + 5, the three-way merge
        tb2.commit()

    def test_out_of_order_delivery_cached(self):
        """A child arriving before its parent is cached, then applied."""
        sim = Simulator()
        cluster = Cluster(n_sites=2, sim=sim, default_latency_ms=10)
        b = cluster.stores["eu"]
        rep_b = cluster.replicators["eu"]
        parent = StateId(1, "us")
        child = StateId(2, "us")
        # Deliver the child first, directly.
        rep_b.handle("us", CommitRecord(child, (parent,), {"k": 2}))
        assert rep_b.pending_count == 1
        assert child not in b.dag
        rep_b.handle("us", CommitRecord(parent, (b.dag.root.id,), {"k": 1}))
        assert rep_b.pending_count == 0
        assert child in b.dag
        assert b.get("k") == 2

    def test_duplicate_delivery_idempotent(self):
        cluster = two_sites()
        rep_b = cluster.replicators["eu"]
        msg = CommitRecord(StateId(1, "us"), (cluster.stores["eu"].dag.root.id,), {"k": 1})
        rep_b.handle("us", msg)
        rep_b.handle("us", msg)
        assert rep_b.applied == 1
        assert cluster.stores["eu"].get("k") == 1

    def test_partition_then_heal_converges(self):
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        a.put("x", 0)
        cluster.run(until=100)
        cluster.network.partition("us", "eu")
        a.put("x", 1)
        b_t = b.begin()
        b_t.put("y", 2)
        b_t.commit()
        cluster.run(until=200)
        assert b.get("x") == 0  # partition holds
        cluster.network.heal("us", "eu")
        cluster.run(until=400)
        assert b.get("x", session=b.session("fresh")) in (0, 1)
        t = b.begin(session=b.session("reader"))
        # The replicated branch is present even if not merged.
        with b._lock:
            assert len(b.dag.leaves()) == 2
        t.commit()

    def test_fetch_recovers_promoted_state(self):
        """Optimistic GC: a flushed promotion is refetched from a peer.

        Both sites share a replicated chain and collect it; ``eu``
        additionally flushes its promotion table. A late transaction
        referencing a collected state then arrives at ``eu``: the fetch
        returns the peer's promotion, which eu adopts and applies under.
        """
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        sess = a.session("writer")
        old = a.put("x", 1, session=sess)
        for i in range(3):
            t = a.begin(session=sess)
            t.put("x", i + 2)
            t.commit()
        cluster.run(until=200)
        assert old in b.dag
        # Both sites collect the chain; eu flushes promotions too.
        sess.place_ceiling()
        a.collect_garbage()  # us keeps its promotion table
        sess_b = b.session("local")
        t = b.begin(session=sess_b)
        t.put("z", 1)
        t.commit()
        sess_b.place_ceiling()
        b.collect_garbage(flush_promotions=True)
        assert old not in b.dag  # flushed
        assert old in a.dag      # promoted, promotion retained
        # A late transaction parented at the collected state reaches eu.
        # eu fetched the promotion, but it flushed past the target too:
        # the dependent transaction is aborted (dropped), as §6.4 says.
        late = CommitRecord(StateId(999, "us"), (old,), {"x": 99})
        cluster.replicators["eu"].handle("us", late)
        cluster.run(until=500)
        assert cluster.replicators["eu"].fetches >= 1
        assert cluster.replicators["eu"].dropped == 1
        assert cluster.replicators["eu"].pending_count == 0

    def test_fetch_promotion_adopted_when_target_live(self):
        """Optimistic GC: the fetched promotion resolves the missing id."""
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        sess = a.session("writer")
        old = a.put("x", 1, session=sess)
        for i in range(3):
            t = a.begin(session=sess)
            t.put("x", i + 2)
            t.commit()
        tip = sess.last_commit_id
        cluster.run(until=200)
        # eu collects up to the chain tip and flushes; the tip stays live.
        b.session("local").ceiling = tip
        b.collect_garbage(flush_promotions=True)
        assert old not in b.dag
        sess.place_ceiling()
        a.collect_garbage()  # us promotes old -> tip, keeps the table
        with a._lock:
            assert a.dag.resolve(old).id == tip
        late = CommitRecord(StateId(999, "us"), (old,), {"x": 99})
        cluster.replicators["eu"].handle("us", late)
        cluster.run(until=500)
        assert StateId(999, "us") in b.dag
        with b._lock:
            assert b.dag.resolve(StateId(999, "us")).parents[0].id == tip

    def test_fetch_content_recovers_lost_gossip(self):
        """A dropped gossip message is refetched by content on demand."""
        cluster = two_sites()
        a, b = cluster.stores["us"], cluster.stores["eu"]
        # Cut the link so eu misses the first commit entirely...
        cluster.network.partition("us", "eu")
        lost = a.put("x", 1)
        # ...simulate message loss: discard the buffer, then heal.
        assert cluster.network.drop_buffered("us", "eu") == 1
        cluster.network.heal("us", "eu")
        child = a.put("x", 2)
        cluster.run(until=400)
        # eu cached the child, fetched the lost parent, applied both.
        assert lost in b.dag
        assert child in b.dag
        assert b.get("x") == 2

    def test_pessimistic_gc_waits_for_peers(self):
        cluster = Cluster(n_sites=2, default_latency_ms=10, gc_mode=PESSIMISTIC)
        a = cluster.stores["us"]
        sess = a.session("w")
        for i in range(5):
            t = a.begin(session=sess)
            t.put("x", i)
            t.commit()
        sess.place_ceiling()
        # Peers have not applied anything yet: only the shared original
        # root (present at every site from birth) may be collected.
        stats = a.collect_garbage()
        assert stats.states_removed <= 1
        held_back = stats.live_states
        assert held_back >= 4
        cluster.run(until=200)
        stats = a.collect_garbage()
        assert stats.states_removed > 0
        assert stats.live_states < held_back

    def test_unknown_gc_mode(self):
        with pytest.raises(ValueError):
            Cluster(n_sites=2, gc_mode="yolo")

    def test_site_count_is_checked(self):
        assert Cluster(n_sites=len(SITE_NAMES)).sites == SITE_NAMES
        for n in (0, len(SITE_NAMES) + 1):
            with pytest.raises(ValueError):
                Cluster(n_sites=n)
        with pytest.raises(ValueError):
            Cluster(sites=[])
        with pytest.raises(ValueError):
            run_replicated_workload(
                len(SITE_NAMES) + 1, YCSBWorkload, RunConfig(duration_ms=1)
            )


class TestReplicatedWorkload:
    def test_aggregate_scales_with_sites(self):
        results = [
            run_replicated_workload(
                n,
                lambda: YCSBWorkload(n_keys=200),
                RunConfig(n_clients=4, duration_ms=80, warmup_ms=20, cores=2,
                          maintenance_interval_ms=10),
            )
            for n in (1, 2)
        ]
        assert results[1].aggregate_tps > 1.5 * results[0].aggregate_tps
        assert results[1].messages > 0

    def test_per_site_results_reported(self):
        result = run_replicated_workload(
            2,
            lambda: YCSBWorkload(n_keys=200),
            RunConfig(n_clients=2, duration_ms=60, warmup_ms=10, cores=2,
                      maintenance_interval_ms=10),
        )
        assert len(result.per_site) == 2
        assert all(r.commits > 0 for r in result.per_site)
        assert "sites=2" in result.summary()

    def test_per_site_results_carry_every_metric(self):
        """Each site reports what a one-site run does; the cluster-wide
        registry's run_* metrics add up the sites."""
        result = run_replicated_workload(
            2,
            lambda: YCSBWorkload(n_keys=200),
            RunConfig(n_clients=4, duration_ms=60, warmup_ms=10, cores=2,
                      seed=3, maintenance_interval_ms=10,
                      sample_interval_ms=10, collect_metrics=True),
        )
        commits = sum(r.commits for r in result.per_site)
        assert commits > 0
        obs = result.obs_metrics
        assert obs["run_commit_total"]["value"] == commits
        assert obs["run_txn_latency_ms"]["count"] == commits
        for site in result.per_site:
            assert {"begin", "get", "put", "commit"} <= set(site.op_breakdown_ms)
            assert 0 < site.goodput <= 1
            assert 0 < site.utilization <= 1
            assert site.samples


class TestNetworkMetrics:
    """tardis_net_* metrics mirror the SimNetwork instance counters."""

    def net_metrics(self, reg):
        data = reg.to_dict()
        return {
            name: entry["value"]
            for name, entry in data.items()
            if name.startswith("tardis_net_")
        }

    def test_send_deliver_mirrored(self):
        reg = met.MetricsRegistry()
        with met.use_registry(reg):
            cluster = two_sites()
            cluster.stores["us"].put("x", 1)
            cluster.run(until=100)
        net = cluster.network
        mirrored = self.net_metrics(reg)
        assert mirrored["tardis_net_messages_sent_total"] == net.messages_sent
        assert (
            mirrored["tardis_net_messages_delivered_total"]
            == net.messages_delivered
        )
        assert net.messages_sent > 0

    def test_partition_heal_drop_mirrored(self):
        reg = met.MetricsRegistry()
        with met.use_registry(reg):
            cluster = two_sites()
            a = cluster.stores["us"]
            cluster.network.partition("us", "eu")
            a.put("x", 1)
            a.put("x", 2)
            cluster.run(until=50)
            assert cluster.network.buffered_count == 2
            dropped = cluster.network.drop_buffered("us", "eu")
            assert dropped == 2
            a.put("x", 3)  # buffers again behind the same partition
            cluster.network.heal("us", "eu")
            cluster.run(until=200)
        net = cluster.network
        mirrored = self.net_metrics(reg)
        assert mirrored["tardis_net_buffered_total"] == net.messages_buffered == 3
        assert mirrored["tardis_net_buffered_dropped_total"] == 2
        assert mirrored["tardis_net_buffered_flushed_total"] == 1

    def test_counters_reconcile_at_any_instant(self):
        """sent == delivered + in_flight + buffered + dropped, always."""
        cluster = two_sites(latency=25.0)
        net = cluster.network
        a, b = cluster.stores["us"], cluster.stores["eu"]

        def reconciled():
            return net.messages_sent == (
                net.messages_delivered
                + net.in_flight
                + net.buffered_count
                + net.buffered_dropped
            )

        a.put("x", 1)
        assert net.in_flight == 1 and reconciled()  # mid-flight
        cluster.run(until=100)
        assert net.in_flight == 0 and reconciled()  # delivered
        net.partition("us", "eu")
        a.put("x", 2)
        b.put("y", 9)
        assert net.buffered_count == 2 and reconciled()  # parked
        net.drop_buffered("us", "eu")
        assert net.buffered_dropped == 2 and reconciled()  # lost
        a.put("x", 3)
        net.heal("us", "eu")
        assert net.buffered_count == 0 and reconciled()  # flushed to flight
        cluster.run(until=300)
        assert reconciled()


class TestTracePropagation:
    """Trace contexts ride replication across sites (the tentpole)."""

    def test_context_survives_partition_buffering(self):
        cluster = Cluster(n_sites=2, default_latency_ms=10, trace=True)
        a = cluster.stores["us"]
        cluster.network.partition("us", "eu")
        sid = a.put("x", 1)
        cluster.run(until=50)  # buffered: nothing applied at eu
        applies = [row for row in cluster.events(kind="repl.apply") if row["site"] == "eu"]
        assert applies == []
        cluster.network.heal("us", "eu")
        cluster.run(until=200)
        applies = [row for row in cluster.events(kind="repl.apply") if row["site"] == "eu"]
        assert [row["txn"] for row in applies] == [trace_id_of(sid)]
        # the full timeline reads commit -> send -> apply
        kinds = ["%s.%s" % (row["layer"], row["name"]) for row in cluster.timeline(trace_id_of(sid))]
        assert kinds[0] == "txn.commit"
        assert "repl.send" in kinds and "repl.apply" in kinds

    def test_three_site_fuzz_every_apply_resolves_to_one_commit(self):
        """Randomized puts over 3 sites: every repl.apply trace id maps
        back to exactly one txn.commit at the originating site."""
        rng = random.Random(20160814)
        cluster = Cluster(n_sites=3, trace=True, trace_capacity=65536)
        sites = cluster.sites
        for step in range(120):
            site = rng.choice(sites)
            key = "k%d" % rng.randrange(8)
            cluster.stores[site].put(key, (site, step))
            if rng.random() < 0.3:
                cluster.run(until=cluster.sim.now + rng.uniform(5.0, 120.0))
        cluster.run()  # drain all replication traffic

        assert all(s.recorder.dropped == 0 for s in cluster.stores.values())
        commits = {}
        for row in cluster.events(kind="txn.commit"):
            commits.setdefault(row["txn"], []).append(row)
        for row in cluster.events(kind="repl.apply"):
            trace = row["txn"]
            origin = commits.get(trace)
            assert origin is not None, "apply %r has no commit" % trace
            assert len(origin) == 1, "trace %r committed %d times" % (
                trace, len(origin),
            )
            # the commit happened at the trace id's origin site, the
            # apply anywhere else
            origin_site = origin[0]["site"]
            assert trace.endswith("@" + origin_site)
            assert row["site"] != origin_site
        # with 120 puts over 3 sites there was real replication traffic
        applies = cluster.events(kind="repl.apply")
        assert len(applies) >= 120  # each commit applies at >= 1 peer
