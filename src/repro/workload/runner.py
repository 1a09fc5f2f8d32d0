"""Closed-loop client runner over the discrete-event simulation (§7.1).

``run_simulation`` drives ``n_clients`` logical clients against one
system adapter: each client repeatedly draws a transaction from the
workload, executes it operation by operation (suspending on lock waits,
retrying from ``begin`` on aborts), and the simulated service time of
every operation is executed on a bounded pool of server cores. The
result captures the paper's measurements: throughput, latency
distribution, per-operation cost breakdown (Table 3), abort/retry
counts, and the fraction of useful work (Figure 14d). ``_Site`` is one
site's half of that loop; ``run_replicated_workload`` runs one per
replica on a shared simulator (Figure 12).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.store import TardisStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.series import DivergenceMonitor
from repro.sim.adapters import SystemAdapter
from repro.sim.des import Resource, Simulator
from repro.workload.stats import LatencyStats, OpBreakdown


@dataclass
class RunConfig:
    n_clients: int = 8
    duration_ms: float = 300.0
    warmup_ms: float = 30.0
    cores: int = 8
    seed: int = 0
    #: run adapter.maintenance() (merge + GC for TARDiS) this often.
    maintenance_interval_ms: Optional[float] = None
    #: record a time-series sample this often (Figure 13).
    sample_interval_ms: Optional[float] = None
    #: sample the DivergenceMonitor's windowed series (branch count, DAG
    #: width/depth, merge debt, replication lag) this often; folded into
    #: ``obs_metrics`` as ``{"type": "series", ...}`` entries.
    series_interval_ms: Optional[float] = None
    #: turn on the stores' registries and fold them, with the run's own,
    #: into ``RunResult.obs_metrics``.
    collect_metrics: bool = True


@dataclass
class RunResult:
    system: str
    n_clients: int
    duration_ms: float
    commits: int = 0
    aborts: int = 0
    lock_waits: int = 0
    throughput_tps: float = 0.0
    mean_latency_ms: float = 0.0
    p50_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    goodput: float = 1.0
    utilization: float = 0.0
    op_breakdown_ms: Dict[str, float] = field(default_factory=dict)
    adapter_stats: Dict[str, Any] = field(default_factory=dict)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    #: snapshot of the run's registries merged (counter values,
    #: histogram summaries), keyed by metric name.
    obs_metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            "%-8s clients=%-3d tput=%8.0f txn/s  lat=%.3f ms (p99 %.3f)  "
            "aborts=%-5d goodput=%.2f"
            % (
                self.system,
                self.n_clients,
                self.throughput_tps,
                self.mean_latency_ms,
                self.p99_latency_ms,
                self.aborts,
                self.goodput,
            )
        )


class _Measure:
    """Shared measurement state for one run."""

    def __init__(self, warmup: float, collect: bool):
        self.warmup = warmup
        #: the run's own registry, on when ``collect``. Its run_* metrics
        #: are pre-registered (so they are present in obs_metrics even
        #: for an idle run) but only written by :meth:`flush` —
        #: per-transaction they would duplicate the native counters
        #: below at a measurable wall cost.
        self.registry = MetricsRegistry(enabled=collect)
        if collect:
            self.commit_counter = self.registry.counter("run_commit_total")
            self.abort_counter = self.registry.counter("run_abort_total")
            self.latency_hist = self.registry.histogram("run_txn_latency_ms")
        self.commits = 0
        self.aborts = 0
        self.lock_waits = 0
        self.latency = LatencyStats()
        self.breakdown = OpBreakdown()
        self.useful_work = 0.0
        self.wasted_work = 0.0
        self.wait_time = 0.0
        self.maintenance_work = 0.0
        self.commits_total = 0  # including warmup, for time series

    def flush(self) -> None:
        """Mirror the natively tracked run counters into the registry."""
        if not self.registry.enabled:
            return
        self.commit_counter.inc(self.commits)
        self.abort_counter.inc(self.aborts)
        self.latency_hist.record_many(self.latency.samples)


class _Client:
    def __init__(
        self,
        cid: str,
        sim: Simulator,
        cores: Resource,
        adapter: SystemAdapter,
        workload,
        rng: random.Random,
        measure: _Measure,
        waiters: Dict[Any, "_Client"],
        serial: Resource,
    ):
        self.cid = cid
        self.sim = sim
        self.cores = cores
        self.adapter = adapter
        self.workload = workload
        self.rng = rng
        self.m = measure
        self.waiters = waiters
        self.serial = serial
        self.gen = None
        self.outcome = None
        self.spec = None
        self.txn_start = 0.0
        self.attempt_work = 0.0
        self.attempt_costs: Dict[str, float] = {}
        self.attempt_counts: Dict[str, int] = {}
        self.block_start = 0.0
        self.block_op = "get"

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._next_txn()

    def _next_txn(self) -> None:
        self.spec = self.workload.next_txn(self.rng)
        self.txn_start = self.sim.now
        self._start_attempt()

    def _start_attempt(self) -> None:
        self.attempt_work = 0.0
        self.attempt_costs = {}
        self.attempt_counts = {}
        self.gen = self._run_txn()
        self._advance()

    def _advance(self) -> None:
        try:
            directive = next(self.gen)
        except StopIteration:
            self._finish_attempt()
            return
        kind = directive[0]
        if kind == "work":
            _kind, op, cost, serial = directive
            self._charge(op, cost)
            pressure = self.adapter.pressure()
            if serial > 0:
                parallel = max(cost - serial, 0.0) * pressure
                self.serial.execute(
                    serial * pressure,
                    lambda: self.cores.execute(parallel, self._advance),
                )
            else:
                self.cores.execute(cost * pressure, self._advance)
        elif kind == "block":
            _kind, token, op = directive
            self.block_start = self.sim.now
            self.block_op = op
            if getattr(token, "granted", False):
                # The lock was handed over while this client was still
                # paying for the acquire attempt; don't sleep forever.
                self.sim.schedule(0.0, self.wake)
            else:
                self.waiters[id(token)] = self
        else:  # pragma: no cover - defensive
            raise RuntimeError("unknown directive %r" % (directive,))

    def wake(self) -> None:
        waited = self.sim.now - self.block_start
        # Lock waiting counts into the blocked operation's latency
        # (Table 3: BDB get/put costs grow with contention) but not
        # into useful work (Figure 14d).
        self.attempt_costs[self.block_op] = (
            self.attempt_costs.get(self.block_op, 0.0) + waited
        )
        self.m.wait_time += waited
        self.m.lock_waits += 1
        self._advance()

    def _charge(self, op: str, cost: float) -> None:
        self.attempt_work += cost
        self.attempt_costs[op] = self.attempt_costs.get(op, 0.0) + cost
        self.attempt_counts[op] = self.attempt_counts.get(op, 0) + 1

    # -- the transaction itself ------------------------------------------------

    def _run_txn(self):
        adapter = self.adapter
        self.outcome = None
        txn, cost = adapter.begin(self.cid, self.spec.read_only)
        # The fixed per-transaction server overhead is charged under its
        # own label so the Table 3 begin column reports only the
        # consistency-layer work.
        overhead = min(getattr(adapter.costs, "txn_overhead", 0.0), cost)
        if overhead:
            yield ("work", "overhead", overhead, 0.0)
        yield ("work", "begin", cost - overhead, 0.0)
        if self.spec.program is not None:
            program = self.spec.program()
            feed = None
            advance = lambda: program.send(feed)
        else:
            static = iter(self.spec.ops)
            feed = None
            advance = lambda: next(static)
        while True:
            try:
                op = advance()
            except StopIteration:
                break
            op_name = "get" if op[0] == "r" else "put"
            while True:
                if op[0] == "r":
                    result = adapter.read(txn, op[1])
                else:
                    result = adapter.write(txn, op[1], op[2])
                self._release(result.wakeups)
                if result.cost:
                    yield ("work", op_name, result.cost, result.serial)
                if result.status == "ok":
                    feed = result.value if op[0] == "r" else None
                    break
                if result.status == "wait":
                    yield ("block", result.token, op_name)
                    continue
                self.outcome = "abort"
                return
        pre = adapter.commit_request(txn)
        if pre is not None and pre.cost:
            # Commit pre-phase: time elapses while the transaction is
            # still live (locks held / waiting for the validator).
            yield ("work", "commit", pre.cost, pre.serial)
        result = adapter.commit(txn)
        self._release(result.wakeups)
        yield ("work", "commit", result.cost, result.serial)
        self.outcome = "ok" if result.status == "ok" else "abort"

    def _release(self, wakeups) -> None:
        for token in wakeups:
            client = self.waiters.pop(id(token), None)
            if client is not None:
                self.sim.schedule(0.0, client.wake)

    def _finish_attempt(self) -> None:
        # Registry-side run_* metrics are NOT recorded here: they are
        # exact duplicates of what _Measure already tracks natively, so
        # the runner flushes them once at end of run (_Measure.flush)
        # instead of paying a per-transaction counter/histogram call.
        measuring = self.sim.now >= self.m.warmup
        if self.outcome == "ok":
            self.m.commits_total += 1
            if measuring:
                self.m.commits += 1
                latency = self.sim.now - self.txn_start
                self.m.latency.record(latency)
                self.m.breakdown.merge_costs(self.attempt_costs, self.attempt_counts)
                self.m.useful_work += self.attempt_work
            self.adapter_commit_hook()
            self._next_txn()
        else:
            if measuring:
                self.m.aborts += 1
                self.m.wasted_work += self.attempt_work
            self._start_attempt()  # retry the same transaction

    def adapter_commit_hook(self) -> None:
        hook = getattr(self.adapter, "on_client_commit", None)
        if hook is not None:
            hook(self.cid)


class _Site:
    """One site's closed-loop clients on a shared simulator.

    Building a site gives it its own cores and serial resource and a
    ``_Measure`` whose window opens ``config.warmup_ms`` after the site
    starts; it then starts the clients and schedules the maintenance and
    sample ticks, in that order (the DES breaks ties by schedule order).
    ``run_simulation`` drives one site, ``run_replicated_workload`` one
    per cluster store, through the same loop. ``site`` names the replica
    (``None`` for a lone system) and ``index`` offsets its client seeds.
    """

    def __init__(
        self,
        sim: Simulator,
        adapter: SystemAdapter,
        workload,
        config: RunConfig,
        site: Optional[str] = None,
        index: int = 0,
    ):
        self.sim = sim
        self.adapter = adapter
        self.config = config
        self.system = adapter.name if site is None else "%s@%s" % (adapter.name, site)
        self.cores = Resource(sim, config.cores)
        serial = Resource(sim, 1)  # per-system critical section (OCC validation)
        self.measure = _Measure(sim.now + config.warmup_ms, config.collect_metrics)
        self.samples: List[Dict[str, Any]] = []
        prefix = "client" if site is None else "%s-client" % site
        waiters: Dict[Any, _Client] = {}
        clients = [
            _Client(
                "%s-%d" % (prefix, i),
                sim,
                self.cores,
                adapter,
                workload,
                random.Random(config.seed * 7919 + index * 131 + i),
                self.measure,
                waiters,
                serial,
            )
            for i in range(config.n_clients)
        ]
        for client in clients:
            client.start()
        if config.maintenance_interval_ms:
            self._every(config.maintenance_interval_ms, self._maintain)
        if config.sample_interval_ms:
            self._every(config.sample_interval_ms, self._sample)

    def _every(self, interval_ms: float, tick: Callable[[], None]) -> None:
        def run() -> None:
            tick()
            self.sim.schedule(interval_ms, run)

        self.sim.schedule(interval_ms, run)

    def _maintain(self) -> None:
        cost = self.adapter.maintenance()
        self.measure.maintenance_work += cost
        if cost:
            self.cores.execute(cost, lambda: None)

    def _sample(self) -> None:
        entry = {"t_ms": self.sim.now, "commits": self.measure.commits_total}
        entry.update(self.adapter.stats())
        self.samples.append(entry)

    def result(self) -> RunResult:
        """What the site measured; call once, after the run."""
        measure, config = self.measure, self.config
        measure.flush()
        window_s = max(config.duration_ms - config.warmup_ms, 1e-9) / 1000.0
        total_work = (
            measure.useful_work
            + measure.wasted_work
            + measure.wait_time
            + measure.maintenance_work
        )
        return RunResult(
            system=self.system,
            n_clients=config.n_clients,
            duration_ms=config.duration_ms,
            commits=measure.commits,
            aborts=measure.aborts,
            lock_waits=measure.lock_waits,
            throughput_tps=measure.commits / window_s,
            mean_latency_ms=measure.latency.mean,
            p50_latency_ms=measure.latency.p50,
            p99_latency_ms=measure.latency.p99,
            goodput=(measure.useful_work / total_work) if total_work > 0 else 1.0,
            # busy_time counts service scheduled before the cutoff even when
            # it completes after it, so clamp the rounding overshoot.
            utilization=min(
                1.0, self.cores.busy_time / (config.cores * config.duration_ms)
            ),
            op_breakdown_ms=measure.breakdown.as_dict(),
            adapter_stats=self.adapter.stats(),
            samples=self.samples,
        )


def _obs_snapshot(
    registries: Iterable[MetricsRegistry], monitor: Optional[DivergenceMonitor]
) -> Dict[str, Any]:
    """``registries`` merged, in order, plus the monitor's series: one
    view over every owner of counts in the run."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    obs = merged.to_dict()
    if monitor is not None:
        obs.update(monitor.to_dict())
    return obs


def run_simulation(
    adapter: SystemAdapter, workload, config: RunConfig
) -> RunResult:
    """Execute one closed-loop run and aggregate the measurements.

    With ``config.collect_metrics`` the adapter's store records into its
    registry from the preload on; ``obs_metrics`` merges it with the
    run's own.
    """
    sim = Simulator()
    monitor = None
    store = adapter.store
    if config.collect_metrics:
        store.registry.enabled = True
    preload = getattr(workload, "preload", None)
    if preload:
        adapter.preload(preload)
    site = _Site(sim, adapter, workload, config)
    # The divergence series describe a branching DAG: only a TARDiS
    # store has one (the baselines' stores have no site and no DAG).
    if config.series_interval_ms and isinstance(store, TardisStore):
        monitor = DivergenceMonitor({store.site: store}, clock=lambda: sim.now)
        monitor.install(sim, config.series_interval_ms)
    sim.run(until=config.duration_ms)
    result = site.result()
    registries = [site.measure.registry, store.registry] if config.collect_metrics else []
    result.obs_metrics = _obs_snapshot(registries, monitor)
    return result


def sweep_clients(
    adapter_factory: Callable[[], SystemAdapter],
    workload_factory: Callable[[], Any],
    client_counts: List[int],
    config: Optional[RunConfig] = None,
) -> List[RunResult]:
    """Run the same workload at increasing client counts.

    Fresh adapter and workload per point — this is how the paper's
    throughput/latency curves (Figures 9 and 10) are produced.
    """
    base = config or RunConfig()
    return [
        run_simulation(
            adapter_factory(), workload_factory(), replace(base, n_clients=n)
        )
        for n in client_counts
    ]
