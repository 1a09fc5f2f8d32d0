"""Multi-site cluster harness (§6.4, §7.1.6).

``Cluster`` wires N TARDiS stores together over the simulated network,
one Replicator per site, with optimistic or pessimistic replicated
garbage collection. ``run_replicated_workload`` reproduces the Figure 12
methodology: closed-loop clients at every site, asynchronous
replication between them, aggregate throughput reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.ids import ROOT_ID
from repro.core.store import TardisStore
from repro.obs import metrics as _met
from repro.obs import tracing as _trc
from repro.obs.context import causal_timeline, merge_events
from repro.obs.series import DivergenceMonitor
from repro.replication.network import SimNetwork
from repro.replication.replicator import Replicator
from repro.sim.adapters import TardisAdapter
from repro.sim.des import Resource, Simulator
from repro.workload.runner import RunConfig, RunResult, _Client, _Measure

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"

#: one-way latencies (ms) between the three zones of §7.1.6
#: (us-central1-f, europe-west1-b, asia-east1), order of magnitude.
GEO_LATENCIES = {
    ("us", "eu"): 50.0,
    ("eu", "us"): 50.0,
    ("us", "asia"): 80.0,
    ("asia", "us"): 80.0,
    ("eu", "asia"): 125.0,
    ("asia", "eu"): 125.0,
}

SITE_NAMES = ["us", "eu", "asia", "s4", "s5", "s6"]


class Cluster:
    """N fully replicated TARDiS sites over a simulated WAN."""

    def __init__(
        self,
        sites: Optional[List[str]] = None,
        n_sites: int = 3,
        sim: Optional[Simulator] = None,
        latencies: Optional[Dict] = None,
        default_latency_ms: float = 50.0,
        gc_mode: str = OPTIMISTIC,
        store_kwargs: Optional[dict] = None,
        trace: bool = False,
        trace_capacity: int = 4096,
    ):
        if sites is None:
            sites = SITE_NAMES[:n_sites]
        store_kwargs = store_kwargs or {}
        self.sim = sim or Simulator()
        self.network = SimNetwork(self.sim, default_latency_ms=default_latency_ms)
        for pair, lat in (latencies or GEO_LATENCIES).items():
            if pair[0] in sites and pair[1] in sites:
                self.network.set_latency(pair[0], pair[1], lat)
        self.stores: Dict[str, TardisStore] = {}
        self.replicators: Dict[str, Replicator] = {}
        #: per-site ring buffers on the simulated clock (trace=True).
        self.tracers: Dict[str, _trc.Tracer] = {}
        for site in sites:
            store = TardisStore(site, **store_kwargs)
            if trace:
                tracer = _trc.Tracer(
                    capacity=trace_capacity,
                    enabled=True,
                    clock=lambda: self.sim.now,
                )
                store.tracer = tracer
                self.tracers[site] = tracer
            self.stores[site] = store
            self.replicators[site] = Replicator(store, self.network)
        self.gc_mode = gc_mode
        if gc_mode == PESSIMISTIC:
            for site, store in self.stores.items():
                store.gc.consent_filter = self._make_consent_filter(site)
        elif gc_mode != OPTIMISTIC:
            raise ValueError("unknown gc mode %r" % gc_mode)

    @property
    def sites(self) -> List[str]:
        return list(self.stores)

    def _make_consent_filter(self, site: str) -> Callable:
        """Pessimistic GC: collect only states every replica has applied.

        The paper gathers unanimous consent through the Replicators; in
        the simulation all sites share a process, so consent reduces to
        checking presence at every peer directly.
        """

        def consent(candidate_ids):
            peers = [s for name, s in self.stores.items() if name != site]
            return {
                sid
                for sid in candidate_ids
                if all(sid in peer.dag for peer in peers)
            }

        return consent

    def run(self, until: Optional[float] = None) -> float:
        """Drain the simulator (deliver replication traffic)."""
        return self.sim.run(until=until)

    def converged(self, key: Any) -> bool:
        """True when every site's merged view agrees on ``key``.

        Each site must have a single leaf (all branches merged) and the
        leaves' visible values must match across sites.
        """
        values = []
        for store in self.stores.values():
            leaves = store.dag.leaves()
            if len(leaves) != 1:
                return False
            with store._lock:
                hit = store.versions.read_visible(key, leaves[0], store.dag)
            values.append(hit if hit is None else hit[1])
        return all(v == values[0] for v in values)

    def state_counts(self) -> Dict[str, int]:
        return {site: len(store.dag) for site, store in self.stores.items()}

    # -- cross-replica tracing ------------------------------------------------

    def events(self, kind: Optional[str] = None):
        """All sites' trace events merged into one time-ordered stream."""
        return merge_events(self.tracers, kind=kind)

    def timeline(self, trace_id: str):
        """One transaction's causally ordered multi-site timeline.

        ``trace_id`` is the repr of the transaction's state id (e.g.
        ``"s14@us"``); requires the cluster to have been built with
        ``trace=True``.
        """
        return causal_timeline(self.events(), str(trace_id))

    def monitor(self, capacity: int = 512, network: Any = None) -> DivergenceMonitor:
        """A divergence monitor over every site (sample via DES ticks)."""
        return DivergenceMonitor(
            dict(self.stores),
            clock=lambda: self.sim.now,
            network=network if network is not None else self.network,
            capacity=capacity,
        )


@dataclass
class ReplicatedRunResult:
    n_sites: int
    per_site: List[RunResult] = field(default_factory=list)
    aggregate_tps: float = 0.0
    messages: int = 0
    #: cluster-wide observability registry snapshot (all sites fold into
    #: one registry: replication counters, forks, merges, GC).
    obs_metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return "sites=%d aggregate=%8.0f txn/s (%s)" % (
            self.n_sites,
            self.aggregate_tps,
            ", ".join("%.0f" % r.throughput_tps for r in self.per_site),
        )


def _make_maintenance(sim, adapter, measure, cores, config):
    """Per-site periodic merge+GC task (bound per site: the obvious
    closure-over-loop-variable version reschedules the wrong site's)."""

    def run_maintenance() -> None:
        cost = adapter.maintenance()
        measure.maintenance_work += cost
        if cost:
            cores.execute(cost, lambda: None)
        sim.schedule(config.maintenance_interval_ms, run_maintenance)

    return run_maintenance


def run_replicated_workload(
    n_sites: int,
    workload_factory: Callable[[], Any],
    config: RunConfig,
    branching: bool = True,
    remote_apply_cost: float = 0.005,
    default_latency_ms: float = 50.0,
    settle_ms: float = 150.0,
) -> ReplicatedRunResult:
    """Closed-loop clients at every site with async replication (Fig 12).

    ``config.n_clients`` and ``config.cores`` are per site. One site
    seeds the database and the seed replicates for ``settle_ms`` before
    any client starts (every site measures against a populated store).
    Remote transaction application charges ``remote_apply_cost`` to the
    destination site's cores — by design it never contends with local
    transactions (§7.1.6), so aggregate throughput scales with sites.
    """
    sim = Simulator()
    cluster = Cluster(
        n_sites=n_sites,
        sim=sim,
        default_latency_ms=default_latency_ms,
    )
    measures = []
    adapters = []
    site_cores = {}
    registry = (
        _met.MetricsRegistry(enabled=True) if config.collect_metrics else None
    )
    monitor = None
    if config.series_interval_ms:
        monitor = cluster.monitor()
        monitor.install(sim, config.series_interval_ms)

    # One cluster-wide registry: every site's stores and replicators
    # record into it while the run executes (single simulator thread).
    previous_default = None
    if registry is not None:
        previous_default = _met.set_default_registry(registry)
    try:
        seed_workload = workload_factory()
        preload = getattr(seed_workload, "preload", None)
        site_adapters = {}
        for site in cluster.sites:
            site_adapters[site] = TardisAdapter(
                store=cluster.stores[site], branching=branching
            )
        if preload:
            site_adapters[cluster.sites[0]].preload(preload)
            sim.run(until=settle_ms)  # let the seed replicate everywhere

        start_at = sim.now
        warmup_abs = start_at + config.warmup_ms
        end_at = start_at + config.duration_ms

        for index, site in enumerate(cluster.sites):
            adapter = site_adapters[site]
            adapters.append(adapter)
            cores = Resource(sim, config.cores)
            serial = Resource(sim, 1)
            site_cores[site] = cores
            measure = _Measure(warmup_abs, registry)
            measures.append(measure)
            workload = workload_factory()
            waiters: Dict[Any, _Client] = {}
            clients = [
                _Client(
                    "%s-client-%d" % (site, i),
                    sim,
                    cores,
                    adapter,
                    workload,
                    random.Random(config.seed * 7919 + index * 131 + i),
                    measure,
                    waiters,
                    serial,
                )
                for i in range(config.n_clients)
            ]
            replicator = cluster.replicators[site]
            replicator.apply_listener = (
                lambda record, cores=cores: cores.execute(remote_apply_cost, lambda: None)
            )

            for client in clients:
                client.start()

            if config.maintenance_interval_ms:
                sim.schedule(
                    config.maintenance_interval_ms,
                    _make_maintenance(sim, adapter, measure, cores, config),
                )

        sim.run(until=end_at)
    finally:
        if registry is not None:
            _met.set_default_registry(previous_default)

    window_s = max(config.duration_ms - config.warmup_ms, 1e-9) / 1000.0
    per_site = []
    for adapter, measure in zip(adapters, measures):
        per_site.append(
            RunResult(
                system="tardis@%s" % adapter.store.site,
                n_clients=config.n_clients,
                duration_ms=config.duration_ms,
                commits=measure.commits,
                aborts=measure.aborts,
                throughput_tps=measure.commits / window_s,
                mean_latency_ms=measure.latency.mean,
                p50_latency_ms=measure.latency.p50,
                p99_latency_ms=measure.latency.p99,
                adapter_stats=adapter.stats(),
            )
        )
    obs_metrics = registry.to_dict() if registry is not None else {}
    if monitor is not None:
        obs_metrics.update(monitor.to_dict())
    return ReplicatedRunResult(
        n_sites=n_sites,
        per_site=per_site,
        aggregate_tps=sum(r.throughput_tps for r in per_site),
        messages=cluster.network.messages_sent,
        obs_metrics=obs_metrics,
    )
