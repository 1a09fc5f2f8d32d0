"""Tests for windowed series, the divergence monitor, and cross-replica
timelines (repro.obs.series / repro.obs.context)."""

import pytest

from repro import TardisStore
from repro.obs import metrics as met
from repro.obs.context import (
    causal_timeline,
    format_timeline,
    merge_events,
    trace_id_of,
)
from repro.obs.series import (
    DivergenceMonitor,
    Trigger,
    WindowedGauge,
    dag_extent,
)
from repro.obs.tracing import Recorder
from repro.replication.cluster import Cluster
from repro.sim.des import Simulator


def branched_store(site="obs"):
    """One fork (two leaves) plus a merge back to a single leaf."""
    store = TardisStore(site)
    a, b = store.session("a"), store.session("b")
    store.put("x", 0, session=a)
    t1, t2 = store.begin(session=a), store.begin(session=b)
    t1.put("x", t1.get("x") + 1)
    t2.put("x", t2.get("x") + 2)
    t1.commit()
    t2.commit()
    return store


class TestWindowedSeries:
    def test_gauge_samples_and_last(self):
        g = WindowedGauge("g", capacity=8)
        assert len(g) == 0 and g.last() is None
        g.sample(1.0, 10.0)
        g.sample(2.0, 20.0)
        assert g.samples() == [(1.0, 10.0), (2.0, 20.0)]
        assert g.last() == (2.0, 20.0)

    def test_gauge_window_is_bounded(self):
        g = WindowedGauge("g", capacity=4)
        for i in range(10):
            g.sample(float(i), float(i))
        assert len(g) == 4
        assert g.samples()[0] == (6.0, 6.0)  # oldest samples evicted

    def test_gauge_to_dict(self):
        g = WindowedGauge("g", capacity=4)
        g.sample(1.0, 2.0)
        data = g.to_dict()
        assert data["type"] == "series"
        assert data["samples"] == [[1.0, 2.0]]


class TestTrigger:
    def fired(self):
        hits = []
        trigger = Trigger(
            "s", threshold=2.0, hold_ms=10.0,
            action=lambda mon, trg, now, name, value: hits.append((now, value)),
        )
        return trigger, hits

    def test_fires_after_hold(self):
        trigger, hits = self.fired()
        trigger.observe(None, "s@a", 0.0, 5.0)
        assert hits == []  # over threshold, hold not yet served
        trigger.observe(None, "s@a", 9.0, 5.0)
        assert hits == []
        trigger.observe(None, "s@a", 10.0, 6.0)
        assert hits == [(10.0, 6.0)]

    def test_fires_once_per_excursion_then_rearms(self):
        trigger, hits = self.fired()
        for t in (0.0, 10.0, 20.0):
            trigger.observe(None, "s@a", t, 5.0)
        assert len(hits) == 1  # held over: still one dump
        trigger.observe(None, "s@a", 30.0, 1.0)  # falls back: re-arms
        trigger.observe(None, "s@a", 40.0, 5.0)
        trigger.observe(None, "s@a", 50.0, 5.0)
        assert len(hits) == 2

    def test_per_series_arming(self):
        trigger, hits = self.fired()
        trigger.observe(None, "s@a", 0.0, 5.0)
        trigger.observe(None, "s@b", 0.0, 5.0)
        trigger.observe(None, "s@a", 10.0, 5.0)
        trigger.observe(None, "s@b", 10.0, 5.0)
        assert len(hits) == 2  # one per watched series


class TestDagExtent:
    def test_linear_chain(self):
        store = TardisStore("lin")
        for i in range(3):
            store.put("k", i)
        with store._lock:
            width, depth = dag_extent(store.dag)
        assert width == 1
        assert depth == 3  # root at depth 0, three commits

    def test_forked_dag_width(self):
        store = branched_store()
        with store._lock:
            width, depth = dag_extent(store.dag)
            assert len(store.dag.leaves()) == 2
        assert width == 2  # the two conflicting commits share a level


class TestDivergenceMonitor:
    def test_single_site_series(self):
        store = branched_store()
        now = {"t": 0.0}
        monitor = DivergenceMonitor({"obs": store}, clock=lambda: now["t"])
        monitor.sample()
        now["t"] = 5.0
        monitor.sample()
        data = monitor.to_dict()
        assert data["tardis_branch_count@obs"]["samples"] == [[0.0, 2], [5.0, 2]]
        assert data["tardis_merge_debt@obs"]["samples"][-1] == [5.0, 1]
        # diverged the whole time: staleness grows with the clock
        assert data["tardis_staleness_ms@obs"]["samples"] == [[0.0, 0.0], [5.0, 5.0]]

    def test_staleness_resets_on_convergence(self):
        store = branched_store()
        now = {"t": 0.0}
        monitor = DivergenceMonitor({"obs": store}, clock=lambda: now["t"])
        monitor.sample()
        merge = store.begin_merge(session=store.session("a"))
        merge.put("x", max(merge.get_all("x")))
        merge.commit()
        now["t"] = 7.0
        monitor.sample()
        data = monitor.to_dict()
        assert data["tardis_branch_count@obs"]["samples"][-1] == [7.0, 1]
        assert data["tardis_staleness_ms@obs"]["samples"][-1] == [7.0, 0.0]

    def test_replication_lag_between_sites(self):
        a, b = TardisStore("us"), TardisStore("eu")
        a.put("x", 1)  # committed at us, never replicated
        monitor = DivergenceMonitor(
            {"us": a, "eu": b}, clock=lambda: 0.0
        )
        monitor.sample()
        data = monitor.to_dict()
        assert data["tardis_repl_lag@us->eu"]["samples"] == [[0.0, 1]]
        assert data["tardis_repl_lag@eu->us"]["samples"] == [[0.0, 0]]
        assert data["tardis_repl_lag@total"]["samples"] == [[0.0, 1]]

    def test_branch_count_is_per_site_and_only_in_the_series(self):
        cluster = Cluster(n_sites=3)
        us = cluster.stores["us"]
        us.put("x", 0)
        t1 = us.begin(session=us.session("a"))
        t2 = us.begin(session=us.session("b"))
        for i, txn in enumerate((t1, t2)):
            txn.put("x", txn.get("x") + i + 1)
        t1.commit()
        t2.commit()  # us forks; nothing has replicated yet
        for store in cluster.stores.values():
            store.registry.enabled = True
        monitor = cluster.monitor()
        monitor.sample()
        counts = {
            site: monitor.gauge("tardis_branch_count@%s" % site).last()[1]
            for site in ("us", "eu", "asia")
        }
        assert counts == {"us": 2, "eu": 1, "asia": 1}
        # no registry copy that would hold whichever site came last
        for store in cluster.stores.values():
            assert not [n for n in store.registry.names() if n.split("@")[0] in met.SERIES_NAMES]

    def test_install_samples_on_des_ticks(self):
        store = TardisStore("des")
        sim = Simulator()
        monitor = DivergenceMonitor({"des": store}, clock=lambda: sim.now)
        monitor.install(sim, interval_ms=10.0)
        sim.run(until=45.0)
        assert monitor.samples_taken == 4
        ts = [t for t, _ in monitor.gauge("tardis_branch_count@des").samples()]
        assert ts == [10.0, 20.0, 30.0, 40.0]


class TestTimelineReconstruction:
    def test_rows_derive_ids_from_the_state(self):
        store = TardisStore("us")
        store.recorder.enabled = True
        sid = store.put("x", 1)
        (row,) = store.recorder.rows()
        assert (row["layer"], row["name"]) == ("txn", "commit")
        assert (row["txn"], row["parent"]) == (trace_id_of(sid), "s0")
        assert row["t_start"] == row["t_end"] and row["cpu"] == 0.0

    def test_merge_events_orders_and_tags_sites(self):
        r_us = Recorder(clock=lambda: 0.0)
        r_eu = Recorder(clock=lambda: 0.0)
        r_us.event("x", "a", None)
        r_eu.event("x", "b", None)
        merged = merge_events({"us": r_us, "eu": r_eu})
        # equal timestamps: ties break by site name, deterministically
        assert [row["site"] for row in merged] == ["eu", "us"]
        assert [row["name"] for row in merged] == ["b", "a"]
        assert merge_events({"us": r_us, "eu": r_eu}, kind="x.a") == [merged[1]]

    def test_causal_timeline_includes_consumers(self):
        rec = Recorder(clock=lambda: 0.0)
        rec.event("txn", "commit", "s1@us", None)
        rec.event("repl", "apply", "s1@us", None, ref="us")
        rec.event("txn", "commit", "s2@eu", "s1@us")
        rec.event("branch", "merge", "s3@eu", "s2@eu", ref=("s1@us",))
        rec.event("txn", "commit", "s9@eu", "s8@eu")
        rec.event("repl", "cache", "s10@eu", "s9@eu", ref="s1@us")  # names it, not its consumer
        timeline = causal_timeline(merge_events({"eu": rec}), "s1@us")
        kinds = ["%s.%s" % (row["layer"], row["name"]) for row in timeline]
        assert kinds == ["txn.commit", "repl.apply", "txn.commit", "branch.merge"]
        text = format_timeline(timeline, "s1@us")
        assert text.startswith("trace s1@us: 4 events")
        assert "branch.merge   s3@eu parent=s2@eu n=0 ref=s1@us" in text

    def test_store_events_reconstruct_locally(self):
        store = TardisStore("us")
        store.recorder = Recorder(enabled=True, clock=lambda: 0.0)
        sid = store.put("x", 1)
        timeline = causal_timeline(
            merge_events({"us": store.recorder}), trace_id_of(sid)
        )
        assert [row["name"] for row in timeline] == ["commit"]
        assert timeline[0]["txn"] == repr(sid)


class TestRecorderDropAccounting:
    def test_dropped_counts_evictions(self):
        rec = Recorder(capacity=3)
        for i in range(5):
            rec.event("e", "e", None, n=i)
        assert rec.dropped == 2
        assert [row["n"] for row in rec.rows()] == [2, 3, 4]
        assert [row["seq"] for row in rec.rows()] == [2, 3, 4] and rec.seq == 5

    def test_dropped_metric_mirrored(self):
        """The store mirrors its recorder's drop count into its registry."""
        store = TardisStore("drops")
        store.registry.enabled = True
        rec = store.recorder = Recorder(capacity=2)
        for i in range(3):
            rec.event("e", "e", None, n=i)
        assert store.registry.counter_value("tardis_trace_dropped_total") == 1
        rec.add((0.0, 1.0, 0.5, "server.request", "READ", -1, 7, 10),
                [(0.0, 0.5, 0.2, "server.wait")])
        assert rec.dropped == 3
        assert store.registry.to_dict()["tardis_trace_dropped_total"]["value"] == 3

