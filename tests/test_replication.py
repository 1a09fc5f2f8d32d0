"""Tests for multi-site replication: gossip, caching, partitions, GC modes.

The cross-site scenarios run on logged clusters and are judged by
:func:`tests.history.check_sites` against every site's own log.
"""

import random

import pytest

from repro.core.ids import ROOT_ID, CommitRecord, StateId
from repro.obs.context import trace_id_of
from repro.replication import Cluster, SimNetwork
from repro.replication.cluster import (
    PESSIMISTIC,
    SITE_NAMES,
    run_replicated_workload,
)
from repro.sim.des import Simulator
from repro.storage.wal import WriteAheadLog
from repro.workload import RunConfig, YCSBWorkload
from repro.errors import UnknownSiteError
from tests.history import check_log, check_sites, histories_of, settle
from tests.test_history import put, read


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

    def test_cross_site_conflict_and_merge(self, cluster_at):
        cluster = cluster_at(default_latency_ms=10)
        histories = histories_of(cluster)
        a, b = cluster.stores["us"], cluster.stores["eu"]
        alice, bruno = a.session("alice"), b.session("bruno")
        put(histories["us"], a, alice, "x", 0)
        cluster.run(until=100)
        # Conflicting increments at both sites (the Wikipedia scenario).
        for site, store, session, delta in (("us", a, alice, 1), ("eu", b, bruno, 5)):
            txn = histories[site].record(store.begin(session=session), session.name)
            txn.put("x", txn.get("x") + delta)
            txn.commit()
        cluster.run(until=300)
        # Both sites see both branches, and the conflict on x.
        for site, store in cluster.stores.items():
            merge = histories[site].record(store.begin_merge(), None)
            merge.get_all("x")
            merge.find_conflict_writes()
            assert len(merge.parents) == 2
            merge.abort()
        # A three-way merge at one site replicates, and eu adopts it.
        merge = histories["us"].record(a.begin_merge(session=alice), "alice")
        fork = merge.find_fork_points()[0]
        base = merge.get_for_id("x", fork)
        merge.put("x", base + sum(v - base for v in merge.get_all("x")))
        merged = merge.commit()
        cluster.run(until=600)
        assert b.adopt_merge(merged) == ["bruno"]
        read(histories["eu"], b, bruno, "x")
        settle(cluster, histories)
        assert check_sites(cluster, histories) == []
        assert cluster.converged("x")

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

    def test_partition_then_heal_converges(self, cluster_at):
        cluster = cluster_at(default_latency_ms=10)
        histories = histories_of(cluster)
        a, b = cluster.stores["us"], cluster.stores["eu"]
        writer, reader = a.session("writer"), b.session("reader")
        put(histories["us"], a, writer, "x", 0)
        cluster.run(until=100)
        cluster.network.partition("us", "eu")
        put(histories["us"], a, writer, "x", 1)
        put(histories["eu"], b, reader, "y", 2)
        cluster.run(until=200)
        assert cluster.network.buffered_count == 2  # the partition holds
        read(histories["eu"], b, reader, "x")
        cluster.network.heal("us", "eu")
        cluster.run(until=400)
        read(histories["eu"], b, b.session("fresh"), "x")
        # The replicated branch is present at eu; a merge there joins it.
        merge = histories["eu"].record(b.begin_merge(session=reader), "reader")
        assert len(merge.parents) == 2
        merged = merge.commit()
        cluster.run()
        a.adopt_merge(merged)
        settle(cluster, histories)
        assert check_sites(cluster, histories) == []
        assert cluster.converged("x") and cluster.converged("y")

    def test_fetch_recovers_promoted_state(self, cluster_at):
        """Optimistic GC: a flushed promotion is refetched from a peer.

        Behind a partition, ``us`` commits ``late`` under ``old`` and
        collects ``old`` into it, while ``eu`` commits under ``old`` too,
        collects it and flushes its promotion. On the heal, ``eu`` caches
        ``late`` and fetches ``old``: ``us`` answers with its promotion,
        whose target ``eu`` cannot place, so ``late`` is dropped (§6.4),
        and ``us`` drops ``eu``'s commit, whose parent now resolves to an
        heir with a larger id. Both drops are gap 1.
        """
        cluster = cluster_at(default_latency_ms=10)
        histories = histories_of(cluster)
        a, b = cluster.stores["us"], cluster.stores["eu"]
        writer, local = a.session("writer"), b.session("local")
        put(histories["us"], a, writer, "x", 1)  # old
        cluster.run(until=100)
        cluster.network.partition("us", "eu")
        put(histories["us"], a, writer, "x", 2)  # late
        put(histories["eu"], b, local, "z", 1)
        writer.place_ceiling()
        a.collect_garbage()
        local.place_ceiling()
        b.collect_garbage(flush_promotions=True)
        cluster.network.heal("us", "eu")
        settle(cluster, histories)
        replicator = cluster.replicators["eu"]
        assert (replicator.fetches, replicator.dropped, replicator.pending_count) == (1, 1, 0)
        assert check_sites(cluster, histories) == [
            "gap 1: s2@eu is not in us's log: its replicator dropped it",
            "gap 1: s2@us is not in eu's log: its replicator dropped it",
        ]

    def test_fetch_content_recovers_lost_gossip(self, cluster_at):
        """A dropped gossip message is refetched by content on demand."""
        cluster = cluster_at(default_latency_ms=10)
        histories = histories_of(cluster)
        a = cluster.stores["us"]
        writer = a.session("writer")
        # Cut the link so eu misses the first commit entirely...
        cluster.network.partition("us", "eu")
        put(histories["us"], a, writer, "x", 1)
        # ...simulate message loss: discard the buffer, then heal.
        assert cluster.network.drop_buffered("us", "eu") == 1
        cluster.network.heal("us", "eu")
        put(histories["us"], a, writer, "x", 2)
        settle(cluster, histories)
        # eu cached the child, fetched the lost parent, applied both.
        assert cluster.replicators["eu"].fetches == 1
        assert check_sites(cluster, histories) == []

    def test_three_site_fuzz_every_apply_resolves_to_one_commit(self, cluster_at):
        """Randomized puts over 3 sites: every record of every site's log
        was acknowledged exactly once, at its origin site (rule 8), and
        every log ends holding every commit (rule 7)."""
        rng = random.Random(20160814)
        cluster = cluster_at(n_sites=3)
        histories = histories_of(cluster)
        writers = {site: store.session("writer") for site, store in cluster.stores.items()}
        for step in range(120):
            site = rng.choice(cluster.sites)
            key = "k%d" % rng.randrange(8)
            put(histories[site], cluster.stores[site], writers[site], key, (site, step))
            if rng.random() < 0.3:
                cluster.run(until=cluster.sim.now + rng.uniform(5.0, 120.0))
        settle(cluster, histories)
        assert check_sites(cluster, histories) == []

    def test_each_site_logs_to_its_own_file(self, cluster_at, tmp_path):
        """A ``wal_path`` gives every site its own log, ``<path>.<site>``,
        holding every commit of the cluster once, with its write set."""
        cluster = cluster_at()
        acked = [
            (store.put(site, value), {site: value})
            for site, store in cluster.stores.items()
            for value in range(3)
        ]
        cluster.run()
        for site in cluster.sites:
            records = list(WriteAheadLog.read(str(tmp_path / ("wal." + site))))
            assert len(records) == 6
            assert check_log(records, acked) == []

    def test_a_dropped_commit_drops_the_commits_cached_under_it(self):
        cluster = two_sites()
        us, replicator = cluster.stores["us"], cluster.replicators["us"]
        us.registry.enabled = True
        writer = us.session("w")
        us.put("x", 0, session=writer)
        us.put("x", 1, session=writer)
        writer.place_ceiling()
        us.collect_garbage()  # s0's heir is now s2@us
        chain = [
            CommitRecord(StateId(n, "eu"), (StateId(n - 1, "eu") if n > 1 else ROOT_ID,), {"y": n})
            for n in range(1, 5)
        ]
        replicator.handle("eu", chain[2])
        replicator.handle("eu", chain[1])
        assert replicator.pending_count == 2
        replicator.handle("eu", chain[0])  # under s0: its heir's id is larger
        assert (replicator.pending_count, replicator.dropped) == (0, 3)
        fetches = replicator.fetches
        replicator.handle("eu", chain[3])  # dropped on arrival, no fetch
        cluster.run()
        assert (replicator.pending_count, replicator.fetches) == (0, fetches)
        assert replicator.dropped == us.registry.counter_value("tardis_repl_drop_total") == 4

    def test_a_dropped_merge_leaves_no_entry_under_its_other_parent(self):
        cluster = two_sites()
        replicator = cluster.replicators["eu"]
        merge = CommitRecord(StateId(5, "us"), (StateId(3, "us"), StateId(4, "us")), {"x": 1})
        replicator.handle("us", merge)
        assert (replicator.fetches, replicator.pending_count) == (1, 2)
        cluster.run()  # us knows no s3@us: the fetch finds no record
        assert (replicator.dropped, replicator.pending_count) == (1, 0)

    @pytest.mark.parametrize("gc_mode", ["optimistic", PESSIMISTIC])
    def test_a_dropped_branch_costs_at_most_one_fetch_per_commit(self, gc_mode):
        """``us`` drops ``eu``'s concurrent commits after one local GC
        cycle (gap 1); every later commit of that branch is dropped too,
        with nothing left cached and at most one fetch round each."""
        cluster = two_sites(gc_mode=gc_mode)
        us, eu = cluster.stores["us"], cluster.stores["eu"]
        writer, local = us.session("w"), eu.session("e")
        us.put("x", 0, session=writer)
        us.put("x", 1, session=writer)
        eu.put("y", 0, session=local)  # concurrent: under s0
        writer.place_ceiling()
        us.collect_garbage()
        replicator = cluster.replicators["us"]
        for value in range(1, 10):
            fetches = replicator.fetches
            cluster.run(until=cluster.sim.now + 5)
            eu.put("y", value, session=local)
            cluster.run()
            assert replicator.fetches - fetches <= 1
            assert replicator.pending_count == 0
        assert (replicator.applied, replicator.dropped) == (0, 10)

    def test_a_failed_fetch_drops_the_waiting_commit_not_the_parent_it_asked_for(self, cluster_at):
        """``asia`` gets ``eu``'s ``s3@eu`` before its parent ``s2@us``,
        which ``eu`` has collected into ``s3@eu``: the fetch finds no
        record, and only ``s3@eu`` is dropped. ``s2@us`` still arrives
        from its origin on the heal, and is applied."""
        cluster = cluster_at(n_sites=3, default_latency_ms=10)
        histories = histories_of(cluster)
        us, eu = cluster.stores["us"], cluster.stores["eu"]
        u, e = us.session("u"), eu.session("e")
        cluster.network.partition("us", "asia")
        put(histories["us"], us, u, "k", 1)
        parent = put(histories["us"], us, u, "j", 1)
        cluster.run()
        child = put(histories["eu"], eu, e, "k", 2)
        e.place_ceiling()
        eu.collect_garbage()  # eu promotes s1@us and s2@us into s3@eu
        cluster.run()
        replicator = cluster.replicators["asia"]
        assert (replicator.fetches, replicator.dropped, replicator.pending_count) == (1, 1, 0)
        cluster.network.heal("us", "asia")
        settle(cluster, histories)
        assert parent in cluster.stores["asia"].dag
        assert (replicator.applied, replicator.dropped) == (2, 1)
        assert check_sites(cluster, histories) == [
            "gap 1: %r is not in asia's log: its replicator dropped it" % (child,)
        ]

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
        cluster = two_sites()
        net = cluster.network
        net.registry.enabled = True
        cluster.stores["us"].put("x", 1)
        cluster.run(until=100)
        mirrored = self.net_metrics(net.registry)
        assert mirrored["tardis_net_messages_sent_total"] == net.messages_sent
        assert (
            mirrored["tardis_net_messages_delivered_total"]
            == net.messages_delivered
        )
        assert net.messages_sent > 0

    def test_partition_heal_drop_mirrored(self):
        cluster = two_sites()
        net = cluster.network
        net.registry.enabled = True
        a = cluster.stores["us"]
        net.partition("us", "eu")
        a.put("x", 1)
        a.put("x", 2)
        cluster.run(until=50)
        assert net.buffered_count == 2
        dropped = net.drop_buffered("us", "eu")
        assert dropped == 2
        a.put("x", 3)  # buffers again behind the same partition
        net.heal("us", "eu")
        cluster.run(until=200)
        mirrored = self.net_metrics(net.registry)
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
