"""Tests for the discrete-event simulator, cost model, and adapters."""

import pytest

from repro.sim.des import Resource, Simulator
from repro.sim.costs import CostModel
from repro.sim.adapters import OCCAdapter, TardisAdapter, TwoPLAdapter


class TestSimulator:
    def test_event_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append("b"))
        sim.schedule(1, lambda: fired.append("a"))
        sim.schedule(9, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 9

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(10, lambda: fired.append(10))
        sim.run(until=5)
        assert fired == [1]
        assert sim.now == 5
        sim.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule(2, lambda: times.append(sim.now))

        sim.schedule(1, first)
        sim.run()
        assert times == [1, 3]


class TestResource:
    def test_capacity_respected(self):
        sim = Simulator()
        res = Resource(sim, 2)
        done = []
        for i in range(4):
            res.execute(1.0, lambda i=i: done.append((i, sim.now)))
        sim.run()
        # Two run at a time: finish at 1, 1, 2, 2.
        assert [t for _i, t in done] == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_no_starvation(self):
        """A continuation that immediately resubmits must not starve the queue."""
        sim = Simulator()
        res = Resource(sim, 1)
        order = []

        def greedy(n):
            order.append(("g", n))
            if n < 3:
                res.execute(1.0, lambda: greedy(n + 1))

        res.execute(1.0, lambda: greedy(0))
        res.execute(1.0, lambda: order.append(("other", 0)))
        sim.run()
        # "other" was queued second and must run before greedy's resubmission.
        assert order.index(("other", 0)) == 1

    def test_busy_time_accumulates(self):
        sim = Simulator()
        res = Resource(sim, 4)
        for _ in range(10):
            res.execute(2.0, lambda: None)
        sim.run()
        assert res.busy_time == pytest.approx(20.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), 0)


class TestCostModel:
    def test_defaults_positive(self):
        costs = CostModel()
        for name in costs.__dataclass_fields__:
            assert getattr(costs, name) > 0, name


class TestAdapters:
    def run_one_txn(self, adapter):
        adapter.preload({"a": 1, "b": 2})
        txn, cost = adapter.begin("c1")
        assert cost > 0
        r = adapter.read(txn, "a")
        assert r.status == "ok" and r.value == 1
        w = adapter.write(txn, "a", 10)
        assert w.status == "ok"
        pre = adapter.commit_request(txn)
        c = adapter.commit(txn)
        assert c.status == "ok"
        txn2, _ = adapter.begin("c1")
        assert adapter.read(txn2, "a").value == 10
        assert adapter.read(txn2, "missing").value is None
        return adapter

    def test_tardis_adapter_roundtrip(self):
        self.run_one_txn(TardisAdapter())

    def test_twopl_adapter_roundtrip(self):
        self.run_one_txn(TwoPLAdapter())

    def test_occ_adapter_roundtrip(self):
        self.run_one_txn(OCCAdapter())

    def test_tardis_nonbranching_aborts(self):
        adapter = TardisAdapter(branching=False)
        adapter.preload({"x": 0})
        t1, _ = adapter.begin("a")
        t2, _ = adapter.begin("b")
        adapter.read(t1, "x")
        adapter.read(t2, "x")
        adapter.write(t1, "x", 1)
        adapter.write(t2, "x", 2)
        assert adapter.commit(t1).status == "ok"
        assert adapter.commit(t2).status == "abort"

    def test_tardis_branching_never_aborts(self):
        adapter = TardisAdapter(branching=True)
        adapter.preload({"x": 0})
        t1, _ = adapter.begin("a")
        t2, _ = adapter.begin("b")
        adapter.read(t1, "x")
        adapter.read(t2, "x")
        adapter.write(t1, "x", 1)
        adapter.write(t2, "x", 2)
        assert adapter.commit(t1).status == "ok"
        assert adapter.commit(t2).status == "ok"
        assert adapter.stats()["forks"] == 1

    def test_tardis_maintenance_merges_and_collects(self):
        adapter = TardisAdapter(branching=True)
        adapter.preload({"x": 0})
        txns = [adapter.begin(client)[0] for client in ("a", "b")]
        for txn, client in zip(txns, ("a", "b")):
            adapter.read(txn, "x")
            adapter.write(txn, "x", client)
        for txn in txns:
            adapter.commit(txn)
        assert adapter.stats()["leaves"] == 2
        cost = adapter.maintenance()
        assert cost > 0
        assert adapter.stats()["leaves"] == 1
        assert adapter.merges_run == 1

    def test_twopl_wait_and_wakeup_tokens(self):
        adapter = TwoPLAdapter()
        adapter.preload({"x": 0})
        t1, _ = adapter.begin("a")
        t2, _ = adapter.begin("b")
        assert adapter.write(t1, "x", 1).status == "ok"
        waiting = adapter.read(t2, "x")
        assert waiting.status == "wait"
        assert waiting.serial > 0
        done = adapter.commit(t1)
        assert done.status == "ok"
        assert waiting.token in done.wakeups

    def test_occ_validation_abort_via_adapter(self):
        adapter = OCCAdapter()
        adapter.preload({"x": 0})
        t1, _ = adapter.begin("a")
        adapter.read(t1, "x")
        t2, _ = adapter.begin("b")
        adapter.write(t2, "x", 5)
        adapter.commit(t2)
        adapter.write(t1, "y", 1)
        result = adapter.commit(t1)
        assert result.status == "abort"

    def test_twopl_deadlock_aborts_via_adapter(self):
        adapter = TwoPLAdapter()
        adapter.preload({"a": 0, "b": 0})
        t1, _ = adapter.begin("c1")
        t2, _ = adapter.begin("c2")
        assert adapter.write(t1, "a", 1).status == "ok"
        assert adapter.write(t2, "b", 2).status == "ok"
        assert adapter.write(t1, "b", 1).status == "wait"
        victim = adapter.write(t2, "a", 2)
        assert victim.status == "abort"
        assert victim.reason == "deadlock"
        assert victim.cost == adapter.costs.deadlock_abort
        # The victim's abort hands its lock to the waiting survivor.
        assert [r.txn_id for r in victim.wakeups] == [t1.txn_id]
        assert adapter.stats() == {"deadlocks": 1, "lock_waits": 2, "aborts": 1}

    def test_record_access_charged_from_cost_model(self):
        costs = CostModel(btree_access=0.5)
        twopl = TwoPLAdapter(costs=costs)
        txn, _ = twopl.begin("c")
        assert twopl.read(txn, "k").cost == pytest.approx(
            costs.lock_acquire + 0.5
        )
        assert twopl.write(txn, "k", 1).cost == pytest.approx(
            costs.lock_acquire + 0.5 + costs.bdb_write_extra
        )
        occ = OCCAdapter(costs=costs)
        txn, _ = occ.begin("c")
        assert occ.read(txn, "k").cost == 0.5
        assert occ.write(txn, "k", 1).cost == costs.occ_buffer_write

    def test_twopl_commit_costs(self):
        adapter = TwoPLAdapter()
        costs = adapter.costs
        reader, _ = adapter.begin("r")
        adapter.read(reader, "a")
        adapter.read(reader, "b")
        assert adapter.commit_request(reader) is None  # nothing to log
        assert adapter.commit(reader).cost == pytest.approx(
            costs.commit_base + 2 * costs.lock_release
        )
        writer, _ = adapter.begin("w")
        adapter.write(writer, "a", 1)
        assert adapter.commit_request(writer).cost == costs.log_append
        assert adapter.commit(writer).cost == pytest.approx(
            costs.commit_base + costs.lock_release
        )

    def test_occ_validation_estimate_grows_with_committers(self):
        adapter = OCCAdapter()
        check = adapter.costs.validation_check
        txn, _ = adapter.begin("slow")
        adapter.read(txn, "x")
        assert adapter.commit_request(txn).serial == pytest.approx(check)
        for i in range(12):
            other, _ = adapter.begin("fast")
            adapter.write(other, "k%d" % i, i)
            assert adapter.commit(other).status == "ok"
        # Twelve committers since ``txn`` began; the estimate caps at eight.
        estimate = adapter.commit_request(txn)
        assert estimate.serial == estimate.cost == pytest.approx(9 * check)
        assert adapter.commit(txn).status == "ok"
        assert adapter.stats()["validation_checks"] == 12

    def test_pressure_default_and_configured(self):
        plain = TardisAdapter()
        assert plain.pressure() == 1.0
        squeezed = TardisAdapter(
            pressure_per_item=0.001, pressure_threshold=0, gc_enabled=False
        )
        squeezed.preload({"k%d" % i: 0 for i in range(10)})
        assert squeezed.pressure() > 1.0
