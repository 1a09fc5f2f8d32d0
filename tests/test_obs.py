"""Tests for the observability subsystem (repro.obs)."""

import json
import math
import random
import sys
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Recorder,
    export,
)
from repro.obs import metrics as met


class TestCounterGauge:
    def test_counter(self):
        c = Counter("c")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.to_dict() == {"type": "counter", "value": 6}

    def test_counter_merge(self):
        a, b = Counter("c"), Counter("c")
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7

    def test_gauge(self):
        g = Gauge("g")
        g.set(10.0)
        g.add(-2.5)
        assert g.value == 7.5
        other = Gauge("g")
        other.set(2.5)
        g.merge(other)  # site gauges merge by sum
        assert g.value == 10.0


class TestHistogramBuckets:
    def test_zero_and_negative_hit_zero_bucket(self):
        assert Histogram.bucket_index(0.0) is None
        assert Histogram.bucket_index(-1.0) is None
        h = Histogram("h")
        h.record(0.0)
        h.record(-3.0)
        assert h.count == 2
        assert h.quantile(0.5) == 0.0

    def test_value_falls_within_its_bucket_bounds(self):
        rng = random.Random(7)
        values = [rng.uniform(1e-6, 1e6) for _ in range(200)]
        values += [1e-9, 0.5, 1.0, 2.0, 1023.999, 1024.0, 1e12]
        for v in values:
            index = Histogram.bucket_index(v)
            lo, hi = Histogram.bucket_bounds(index)
            assert lo <= v < hi or math.isclose(v, lo), v
            # relative bucket width bounds the quantile error
            assert (hi - lo) / lo <= 1.0 / Histogram.SUBBUCKETS + 1e-12

    def test_bucket_indices_are_monotonic_in_value(self):
        values = sorted(abs(math.sin(i)) * 10**(i % 7) + 1e-9 for i in range(1, 300))
        indices = [Histogram.bucket_index(v) for v in values]
        assert indices == sorted(indices)

    def test_power_of_two_boundaries(self):
        # frexp(2**k) == (0.5, k+1): each power of two starts its octave.
        for k in (-3, 0, 1, 10):
            index = Histogram.bucket_index(2.0 ** k)
            lo, _hi = Histogram.bucket_bounds(index)
            assert math.isclose(lo, 2.0 ** k)

    def test_min_max_sum_mean(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.sum == 6.0
        assert h.mean == 2.0

    def test_empty_histogram_queries(self):
        h = Histogram("h")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.min == 0.0
        assert h.max == 0.0
        assert h.quantile(0.99) == 0.0
        assert h.buckets() == []


class TestHistogramQuantiles:
    def test_quantile_relative_error_bound(self):
        """Estimates stay within the documented 1/SUBBUCKETS bound."""
        rng = random.Random(42)
        samples = [rng.expovariate(1.0 / 5.0) + 0.01 for _ in range(10_000)]
        h = Histogram("lat")
        for s in samples:
            h.record(s)
        samples.sort()
        bound = 1.0 / Histogram.SUBBUCKETS
        for q in (0.10, 0.50, 0.90, 0.99, 0.999):
            exact = samples[min(len(samples) - 1, math.ceil(q * len(samples)) - 1)]
            estimate = h.quantile(q)
            assert abs(estimate - exact) / exact <= bound, q

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("h")
        h.record(5.0)
        assert h.quantile(0.0) == 5.0
        assert h.quantile(1.0) == 5.0

    def test_merge_equals_union(self):
        rng = random.Random(3)
        a, b, union = Histogram("h"), Histogram("h"), Histogram("h")
        for _ in range(500):
            v = rng.lognormvariate(0, 2)
            (a if rng.random() < 0.5 else b).record(v)
            union.record(v)
        a.merge(b)
        assert a.count == union.count
        assert a.sum == pytest.approx(union.sum)
        assert a.min == union.min
        assert a.max == union.max
        assert a.buckets() == union.buckets()
        for q in (0.5, 0.9, 0.99):
            assert a.quantile(q) == union.quantile(q)

    def test_percentile_and_properties(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.record(float(v))
        assert h.percentile(50) == h.p50
        assert h.percentile(99) == h.p99
        assert h.p50 == pytest.approx(50.0, rel=1.0 / Histogram.SUBBUCKETS)
        assert h.p99 == pytest.approx(99.0, rel=1.0 / Histogram.SUBBUCKETS)


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg
        assert reg.names() == ["a"]

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_disabled_recorders_noop(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("c")
        reg.observe("h", 1.0)
        reg.set_gauge("g", 2.0)
        assert len(reg) == 0

    def test_convenience_recorders(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("h", 1.5)
        reg.set_gauge("g", 3.0)
        data = reg.to_dict()
        assert data["c"]["value"] == 2
        assert data["h"]["count"] == 1
        assert data["g"]["value"] == 3.0

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.observe("h", 4.0)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.histogram("h").count == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert len(reg) == 0

    def test_thread_safety_under_concurrent_record(self):
        """No samples lost with many threads hammering one registry."""
        reg = MetricsRegistry()
        n_threads, per_thread = 8, 2_000

        def work(seed):
            rng = random.Random(seed)
            for _ in range(per_thread):
                reg.inc("ops")
                reg.observe("lat", rng.random() + 0.001)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("ops").value == n_threads * per_thread
        hist = reg.histogram("lat")
        assert hist.count == n_threads * per_thread
        assert sum(c for _ub, c in hist.buckets()) == hist.count

    def test_collect_hook_mirrors_on_every_read(self):
        """An owner's native count reaches its registry on read, and only
        while the registry is on."""
        native = {"n": 3}
        reg = MetricsRegistry(enabled=False)
        reg.collect = lambda: reg.counter("x").mirror(native["n"])
        assert "x" not in reg and reg.to_dict() == {}
        reg.enabled = True
        assert reg.counter_value("x") == 3
        native["n"] = 7
        assert reg.to_dict()["x"]["value"] == 7
        assert reg.get("x").value == 7 and len(reg) == 1

    def test_merge_reads_through_the_hook(self):
        native = {"n": 4}
        mine = MetricsRegistry()
        mine.collect = lambda: mine.counter("x").mirror(native["n"])
        view = MetricsRegistry()
        view.merge(mine)
        view.merge(mine)
        assert view.counter_value("x") == 8
        assert mine.counter_value("x") == 4  # mirroring is idempotent


class TestBufferedRecording:
    """``record``/``inc`` append to a per-metric list; the one that fills
    ``PENDING`` entries, or any reader, folds it under the lock."""

    def test_buffer_is_bounded_and_a_read_folds_it(self):
        hist, counter = Histogram("h"), Counter("c")
        for i in range(met.PENDING + 5):
            hist.record(float(i))
            counter.inc(2)
        assert len(hist._pending) == 5 and len(counter._pending) == 5
        assert hist.count == met.PENDING + 5 and hist.max == met.PENDING + 4
        assert counter.value == 2 * (met.PENDING + 5)
        assert hist._pending == [] and counter._pending == []

    def test_folds_racing_appends_lose_nothing(self):
        """Writers append while readers fold (and a fold slices off only
        what it counted), at a tiny switch interval."""
        was = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            hist, counter = Histogram("h"), Counter("c")
            n_writers, per_writer = 4, 3_000
            done = threading.Event()

            def write():
                for i in range(per_writer):
                    hist.record(1.0 + i % 7)
                    counter.inc()

            def read():
                while not done.is_set():
                    hist.quantile(0.5)
                    counter.value

            readers = [threading.Thread(target=read) for _ in range(2)]
            writers = [threading.Thread(target=write) for _ in range(n_writers)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join()
            done.set()
            for t in readers:
                t.join()
        finally:
            sys.setswitchinterval(was)
        assert counter.value == n_writers * per_writer
        assert hist.count == n_writers * per_writer
        assert sum(c for _ub, c in hist.buckets()) == hist.count
        assert hist.sum == sum(1.0 + i % 7 for i in range(per_writer)) * n_writers


class TestRecorder:
    def test_event_is_a_point_row(self):
        rec = Recorder(clock=lambda: 1.5)
        rec.event("branch", "fork", "s1", "s0")
        rec.event("txn", "abort", None, ref="user")
        assert len(rec) == 2
        assert rec.rows() == [
            {"seq": 0, "t_start": 1.5, "t_end": 1.5, "cpu": 0.0, "layer": "branch",
             "name": "fork", "parent": "s0", "txn": "s1", "n": 0, "ref": None},
            {"seq": 1, "t_start": 1.5, "t_end": 1.5, "cpu": 0.0, "layer": "txn",
             "name": "abort", "parent": None, "txn": None, "n": 0, "ref": "user"},
        ]

    def test_one_numbering_and_a_cursor(self):
        rec = Recorder()
        rec.event("txn", "commit", "s1", "s0", 2)
        rec.skip(4)  # a request numbered and not kept
        rec.add((1.0, 4.0, 2.0, "server.request", "READ", -1, 7, 30),
                [(1.0, 2.0, 0.5, "server.wait"), (2.0, 4.0, 1.5, "server.handle")])
        rec.event("gc", "cycle", None, n=3)
        rows = rec.rows()
        assert [row["seq"] for row in rows] == [0, 5, 6, 7, 8] and rec.seq == 9
        request, wait, handle = rows[1:4]
        assert (wait["parent"], handle["parent"]) == (request["seq"], request["seq"])
        assert [(r["layer"], r["name"], r["txn"], r["n"]) for r in (wait, handle)] == [
            ("server.wait", "READ", 7, 30), ("server.handle", "READ", 7, 30),
        ]
        assert rec.rows(after=6) == rows[3:]
        assert rec.rows(after=8) == []

    def test_ring_buffer_bounded(self):
        rec = Recorder(capacity=10)
        for i in range(25):
            rec.event("tick", "tick", None, n=i)
        assert [row["n"] for row in rec.rows()] == list(range(15, 25))
        assert rec.dropped == 15

    def test_new_stores_record_no_branch_rows(self):
        from repro.core.store import TardisStore

        store = TardisStore("quiet")
        store.put("k", 1)
        assert not store.recorder.enabled
        assert len(store.recorder) == 0 and store.recorder.seq == 0


class TestExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.inc("commits", 7)
        reg.set_gauge("live_states", 4.0)
        for v in (0.5, 1.0, 2.0, 0.0):
            reg.observe("lat_ms", v)
        return reg

    def test_json_round_trip(self):
        reg = self._registry()
        rec = Recorder()
        rec.event("branch", "merge", "s3", "s1", 2, ("s2",))
        doc = json.loads(export.to_json(reg, rec, include_buckets=True))
        assert doc["metrics"]["commits"] == {"type": "counter", "value": 7}
        assert doc["metrics"]["lat_ms"]["count"] == 4
        assert doc["metrics"]["lat_ms"]["zero"] == 1
        assert doc["events"][0]["name"] == "merge"
        assert doc["events"][0]["ref"] == ["s2"]
        assert json.loads(export.to_json(reg, rec, event_limit=0))["events"] == []
        assert "events" not in json.loads(export.to_json(reg))

    def test_prometheus_format(self):
        text = export.to_prometheus(self._registry())
        lines = text.splitlines()
        assert "# TYPE commits counter" in lines
        assert "commits 7" in lines
        assert "# TYPE live_states gauge" in lines
        assert "live_states 4" in lines
        assert "# TYPE lat_ms histogram" in lines
        assert 'lat_ms_bucket{le="+Inf"} 4' in lines
        assert "lat_ms_count 4" in lines
        assert "lat_ms_sum 3.5" in lines
        # cumulative bucket counts are non-decreasing
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith('lat_ms_bucket')
        ]
        assert counts == sorted(counts)

    def test_prometheus_name_sanitisation(self):
        reg = MetricsRegistry()
        reg.inc("1bad name-with.dots")
        text = export.to_prometheus(reg)
        assert "_1bad_name_with_dots 1" in text


class TestInstrumentation:
    """The store's hot paths feed its own registry and its recorder."""

    def test_store_counters_and_events(self):
        from repro.core.store import TardisStore

        store = TardisStore("obs")
        store.registry.enabled = True
        store.recorder.enabled = True
        a, b = store.session("a"), store.session("b")
        store.put("k", 0, session=a)
        t1, t2 = store.begin(session=a), store.begin(session=b)
        t1.put("k", t1.get("k") + 1)
        t2.put("k", t2.get("k") + 2)  # read-modify-write: true conflict
        t1.commit()
        t2.commit()  # conflicts -> fork
        merge = store.begin_merge(session=a)
        merge.put("k", max(merge.get_all("k")))
        merge.commit()
        data = store.registry.to_dict()
        assert data["tardis_txn_begin_total"]["value"] >= 3
        assert data["tardis_txn_commit_total"]["value"] >= 3
        assert data["tardis_branch_fork_total"]["value"] == 1
        assert data["tardis_branch_merge_total"]["value"] == 1
        kinds = {"%s.%s" % (row["layer"], row["name"]) for row in store.recorder.rows()}
        assert kinds == {"txn.commit", "branch.fork", "branch.merge"}

    def test_disabled_by_default(self):
        """A store's registry is off until a reader turns it on: nothing
        is recorded and nothing is mirrored."""
        from repro.core.store import TardisStore

        store = TardisStore("quiet")
        txn = store.begin()
        txn.put("k", 1)
        txn.commit()
        assert store.get("k") == 1
        assert not store.registry.enabled
        data = store.registry.to_dict()
        assert "tardis_vis_cache_miss_total" not in data
        assert all(entry.get("value", entry.get("count")) == 0 for entry in data.values())

    def test_run_simulation_folds_registry(self):
        from repro.sim.adapters import TardisAdapter
        from repro.workload import RunConfig, YCSBWorkload, run_simulation
        from repro.workload.mixes import WRITE_HEAVY

        adapter = TardisAdapter(branching=True)
        result = run_simulation(
            adapter,
            YCSBWorkload(mix=WRITE_HEAVY, n_keys=50),
            RunConfig(n_clients=4, duration_ms=30.0, warmup_ms=5.0, seed=1,
                      maintenance_interval_ms=5.0),
        )
        assert result.obs_metrics["tardis_txn_commit_total"]["value"] > 0
        assert result.obs_metrics["run_commit_total"]["value"] == result.commits
        assert result.obs_metrics["run_txn_latency_ms"]["count"] > 0
        # the run turned the store's own registry on and merged it in
        store_view = adapter.store.registry.to_dict()
        assert store_view == {n: result.obs_metrics[n] for n in store_view}

    def test_run_simulation_collect_metrics_off(self):
        from repro.sim.adapters import TardisAdapter
        from repro.workload import RunConfig, YCSBWorkload, run_simulation
        from repro.workload.mixes import READ_HEAVY

        result = run_simulation(
            TardisAdapter(branching=True),
            YCSBWorkload(mix=READ_HEAVY, n_keys=50),
            RunConfig(n_clients=2, duration_ms=20.0, warmup_ms=5.0, seed=1,
                      collect_metrics=False),
        )
        assert result.obs_metrics == {}


#: the metric names a fixed single-site TARDiS run reports
TARDIS_RUN_NAMES = {
    "run_abort_total", "run_commit_total", "run_txn_latency_ms",
    "tardis_begin_visits", "tardis_branch_fork_total", "tardis_branch_merge_total",
    "tardis_commit_ripple_steps", "tardis_dag_retro_updates_total", "tardis_dag_splice_total",
    "tardis_gc_cycle_total", "tardis_gc_live_records", "tardis_gc_live_states",
    "tardis_gc_promotion_table", "tardis_gc_records_dropped_total",
    "tardis_gc_records_promoted_total", "tardis_gc_states_removed_total",
    "tardis_merge_conflict_keys", "tardis_merge_parents", "tardis_txn_abort_total",
    "tardis_txn_begin_total", "tardis_txn_commit_readonly_total", "tardis_txn_commit_total",
    "tardis_txn_write_keys", "tardis_vis_cache_hit_total",
    "tardis_vis_cache_invalidations_total", "tardis_vis_cache_miss_total",
}


class TestRegistryAgreesWithNativeCounts:
    """A run's registries, merged, report exactly what the objects count
    natively: the store's pushed counters, the counts it mirrors from the
    layers below, and the same names a run reported when every object
    recorded into one shared registry."""

    CONFIG = dict(n_clients=8, duration_ms=100, warmup_ms=10, seed=3)

    def test_single_site_counters_equal_the_native_counts(self):
        from repro.sim.adapters import TardisAdapter
        from repro.workload import RunConfig, YCSBWorkload, run_simulation

        adapter = TardisAdapter()
        result = run_simulation(
            adapter, YCSBWorkload(n_keys=50), RunConfig(maintenance_interval_ms=20, **self.CONFIG)
        )
        store, obs = adapter.store, result.obs_metrics
        native = {
            "tardis_txn_commit_total": store.metrics.commits,
            "tardis_branch_fork_total": store.metrics.forks,
            "tardis_branch_merge_total": store.metrics.merges,
            "tardis_txn_commit_readonly_total": store.metrics.read_only_commits,
            "tardis_vis_cache_hit_total": store.versions.vis_hits,
            "tardis_vis_cache_miss_total": store.versions.vis_misses,
            "tardis_vis_cache_invalidations_total": store.versions.vis_invalidations,
            "tardis_gc_cycle_total": store.gc.cycles,
            "tardis_gc_states_removed_total": store.gc.states_removed,
        }
        assert {name: obs[name]["value"] for name in native} == native
        assert min(native.values()) > 0  # every count was exercised
        assert set(obs) == TARDIS_RUN_NAMES

    def test_baseline_and_cluster_runs_report_the_same_names(self):
        from repro.replication.cluster import run_replicated_workload
        from repro.sim.adapters import TwoPLAdapter
        from repro.workload import RunConfig, YCSBWorkload, run_simulation
        from repro.workload.mixes import WRITE_HEAVY

        bdb = run_simulation(TwoPLAdapter(), YCSBWorkload(n_keys=50), RunConfig(**self.CONFIG))
        assert set(bdb.obs_metrics) == {
            "baseline_2pl_abort_total", "baseline_2pl_commit_total", "baseline_2pl_deadlocks",
            "baseline_2pl_lock_waits", "run_abort_total", "run_commit_total", "run_txn_latency_ms",
        }
        config = RunConfig(**dict(self.CONFIG, n_clients=2), maintenance_interval_ms=20)
        cluster = run_replicated_workload(
            3, lambda: YCSBWorkload(mix=WRITE_HEAVY, n_keys=40), config
        )
        assert set(cluster.obs_metrics) == TARDIS_RUN_NAMES | {
            "tardis_net_messages_delivered_total", "tardis_net_messages_sent_total",
            "tardis_repl_apply_total", "tardis_repl_drop_total", "tardis_repl_send_total",
        }
        sent = cluster.obs_metrics["tardis_net_messages_sent_total"]["value"]
        assert sent == cluster.messages
