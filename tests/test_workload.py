"""Tests for workload generators, stats, and the simulation runner."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.adapters import OCCAdapter, TardisAdapter, TwoPLAdapter
from repro.workload import (
    LatencyStats,
    READ_HEAVY,
    READ_ONLY,
    RunConfig,
    UniformGenerator,
    WRITE_HEAVY,
    YCSBWorkload,
    ZipfianGenerator,
    run_simulation,
    sweep_clients,
)
from repro.workload.mixes import BLIND_WRITE, MIXED
from repro.workload.stats import OpBreakdown
from repro.workload.ycsb import make_generator


class TestGenerators:
    def test_uniform_range(self):
        gen = UniformGenerator(100)
        rng = random.Random(1)
        samples = [gen.next(rng) for _ in range(2000)]
        assert min(samples) >= 0 and max(samples) < 100
        assert len(set(samples)) > 80

    def test_zipfian_skew(self):
        gen = ZipfianGenerator(1000, theta=0.99)
        rng = random.Random(1)
        samples = [gen.next(rng) for _ in range(20000)]
        assert all(0 <= s < 1000 for s in samples)
        hot = sum(1 for s in samples if s < 10)
        # The top-10 keys must absorb a large fraction of accesses.
        assert hot / len(samples) > 0.3

    def test_zipfian_more_skewed_than_uniform(self):
        rng = random.Random(2)
        zipf = ZipfianGenerator(100, theta=0.99)
        z = [zipf.next(rng) for _ in range(5000)]
        top = sum(1 for s in z if s == 0) / len(z)
        assert top > 0.05  # uniform would give ~0.01

    def test_zipfian_scramble_spreads_hot_keys(self):
        gen = ZipfianGenerator(1000, theta=0.99, scramble=True)
        rng = random.Random(3)
        samples = [gen.next(rng) for _ in range(5000)]
        # Hot ranks no longer cluster at the low end of the key space.
        assert sum(1 for s in samples if s < 10) / len(samples) < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformGenerator(0)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, theta=1.5)
        with pytest.raises(ValueError):
            make_generator("gaussian", 10)

    @given(st.integers(1, 500), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_zipfian_always_in_range(self, n, seed):
        gen = ZipfianGenerator(n)
        rng = random.Random(seed)
        for _ in range(50):
            assert 0 <= gen.next(rng) < n


class TestMixes:
    def test_read_only_mix(self):
        wl = YCSBWorkload(mix=READ_ONLY, n_keys=50)
        rng = random.Random(0)
        for _ in range(20):
            spec = wl.next_txn(rng)
            assert spec.read_only
            assert len(spec.ops) == 6
            assert all(op[0] == "r" for op in spec.ops)

    def test_write_heavy_mix(self):
        wl = YCSBWorkload(mix=WRITE_HEAVY, n_keys=50)
        rng = random.Random(0)
        for _ in range(20):
            spec = wl.next_txn(rng)
            assert not spec.read_only
            reads = [op for op in spec.ops if op[0] == "r"]
            writes = [op for op in spec.ops if op[0] == "w"]
            assert len(reads) == 3 and len(writes) == 3
            # the paper's setup: reads and (blind) writes on distinct keys
            assert not ({op[1] for op in reads} & {op[1] for op in writes})

    def test_write_heavy_rmw_mix(self):
        wl = YCSBWorkload(mix=WRITE_HEAVY, n_keys=50, read_modify_write=True)
        rng = random.Random(0)
        for _ in range(20):
            spec = wl.next_txn(rng)
            if spec.read_only:
                continue
            reads = {op[1] for op in spec.ops if op[0] == "r"}
            writes = {op[1] for op in spec.ops if op[0] == "w"}
            assert reads == writes  # counter-style read-modify-write

    def test_read_heavy_ratio(self):
        wl = YCSBWorkload(mix=READ_HEAVY, n_keys=100)
        rng = random.Random(7)
        ro = sum(wl.next_txn(rng).read_only for _ in range(2000))
        assert 0.70 < ro / 2000 < 0.80

    def test_mixed_ratio(self):
        wl = YCSBWorkload(mix=MIXED, n_keys=100)
        rng = random.Random(7)
        ro = sum(wl.next_txn(rng).read_only for _ in range(2000))
        assert 0.20 < ro / 2000 < 0.30

    def test_blind_write_mix(self):
        wl = YCSBWorkload(mix=BLIND_WRITE, n_keys=50)
        spec = wl.next_txn(random.Random(0))
        assert len(spec.ops) == 1
        assert spec.ops[0][0] == "w"

    def test_preload_covers_keyspace(self):
        wl = YCSBWorkload(n_keys=10)
        assert len(wl.preload) == 10
        assert all(v == 0 for v in wl.preload.values())

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            YCSBWorkload(mix="chaos")


class TestStats:
    def test_latency_stats(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.p99 == 0.0
        for v in [1, 2, 3, 4, 5]:
            stats.record(v)
        assert stats.mean == 3
        assert stats.p50 == 3
        assert stats.percentile(0) == 1
        assert stats.percentile(100) == 5

    def test_percentile_sorted_view_cached(self):
        """Repeated percentile queries reuse one sorted view; a new
        sample invalidates it (regression: percentile() used to re-sort
        the full sample list on every call)."""
        stats = LatencyStats()
        for v in [5, 1, 4, 2, 3]:
            stats.record(v)
        assert stats.sort_count == 0
        assert stats.p50 == 3
        assert stats.p99 == pytest.approx(4.96)
        assert stats.percentile(25) == 2
        assert stats.sort_count == 1  # one sort served all three queries
        stats.record(0)
        assert stats.p50 == 2.5  # new sample is visible...
        assert stats.percentile(0) == 0
        assert stats.sort_count == 2  # ...at the cost of exactly one re-sort

    def test_op_breakdown(self):
        bd = OpBreakdown()
        bd.record("get", 0.010, count=2)
        bd.record("get", 0.030, count=2)
        assert bd.mean("get") == pytest.approx(0.01)
        assert bd.mean("put") == 0.0
        bd.record("warp", 1.0)  # unknown ops ignored
        assert "warp" not in bd.as_dict()


class TestRunner:
    def small_config(self, **kw):
        defaults = dict(n_clients=4, duration_ms=50, warmup_ms=5, cores=4, seed=3)
        defaults.update(kw)
        return RunConfig(**defaults)

    def test_tardis_run_commits(self):
        result = run_simulation(
            TardisAdapter(), YCSBWorkload(n_keys=100), self.small_config()
        )
        assert result.commits > 100
        assert result.throughput_tps > 0
        assert result.mean_latency_ms > 0
        assert 0 < result.utilization <= 1.0

    def test_deterministic_given_seed(self):
        r1 = run_simulation(
            TardisAdapter(), YCSBWorkload(n_keys=100), self.small_config()
        )
        r2 = run_simulation(
            TardisAdapter(), YCSBWorkload(n_keys=100), self.small_config()
        )
        assert r1.commits == r2.commits
        assert r1.throughput_tps == r2.throughput_tps

    def test_twopl_run_under_contention(self):
        result = run_simulation(
            TwoPLAdapter(),
            YCSBWorkload(mix=WRITE_HEAVY, n_keys=20, pattern="zipfian"),
            self.small_config(n_clients=8),
        )
        assert result.commits > 0
        assert result.lock_waits > 0
        assert result.goodput < 1.0

    def test_occ_run_has_aborts_under_contention(self):
        result = run_simulation(
            OCCAdapter(),
            YCSBWorkload(mix=WRITE_HEAVY, n_keys=10, pattern="zipfian"),
            self.small_config(n_clients=8),
        )
        assert result.commits > 0
        assert result.aborts > 0

    def test_more_clients_more_latency(self):
        small = run_simulation(
            TardisAdapter(), YCSBWorkload(n_keys=200), self.small_config(n_clients=2)
        )
        big = run_simulation(
            TardisAdapter(), YCSBWorkload(n_keys=200), self.small_config(n_clients=32)
        )
        assert big.mean_latency_ms > small.mean_latency_ms

    def test_maintenance_bounds_branches(self):
        adapter = TardisAdapter(branching=True)
        result = run_simulation(
            adapter,
            YCSBWorkload(mix=WRITE_HEAVY, n_keys=30, pattern="zipfian"),
            self.small_config(n_clients=8, maintenance_interval_ms=5),
        )
        assert result.commits > 0
        assert adapter.merges_run > 0
        # GC keeps the DAG bounded: after a final merge+collect cycle the
        # live states are a tiny fraction of the committed transactions.
        adapter.maintenance()
        assert len(adapter.store.dag) < result.commits / 2

    def test_samples_collected(self):
        result = run_simulation(
            TardisAdapter(),
            YCSBWorkload(n_keys=100),
            self.small_config(sample_interval_ms=10),
        )
        assert len(result.samples) >= 4
        assert all("commits" in s and "t_ms" in s for s in result.samples)
        commits = [s["commits"] for s in result.samples]
        assert commits == sorted(commits)

    def test_sweep_clients(self):
        results = sweep_clients(
            lambda: TardisAdapter(),
            lambda: YCSBWorkload(n_keys=100),
            [1, 4],
            self.small_config(),
        )
        assert [r.n_clients for r in results] == [1, 4]
        assert results[1].throughput_tps > results[0].throughput_tps

    def test_all_systems_agree_on_final_values(self):
        """Semantic cross-check: the same sequential transaction stream
        drives every system to the same final key values."""
        specs_source = YCSBWorkload(mix=WRITE_HEAVY, n_keys=10)
        rng = random.Random(11)
        specs = [specs_source.next_txn(rng) for _ in range(200)]
        finals = {}
        for name, adapter in (
            ("tardis", TardisAdapter()),
            ("bdb", TwoPLAdapter()),
            ("occ", OCCAdapter()),
        ):
            adapter.preload(specs_source.preload)
            for spec in specs:
                txn, _ = adapter.begin("solo")
                for op in spec.ops:
                    if op[0] == "r":
                        assert adapter.read(txn, op[1]).status == "ok"
                    else:
                        assert adapter.write(txn, op[1], op[2]).status == "ok"
                adapter.commit_request(txn)
                assert adapter.commit(txn).status == "ok"
            txn, _ = adapter.begin("checker")
            finals[name] = tuple(
                adapter.read(txn, "key%06d" % i).value for i in range(10)
            )
        assert finals["tardis"] == finals["bdb"] == finals["occ"]
