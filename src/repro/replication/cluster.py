"""Multi-site cluster harness (§6.4, §7.1.6).

``Cluster`` wires N TARDiS stores together over the simulated network,
one Replicator per site, with optimistic or pessimistic replicated
garbage collection. ``run_replicated_workload`` reproduces the Figure 12
methodology: closed-loop clients at every site, asynchronous
replication between them, aggregate throughput reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.store import TardisStore
from repro.obs.context import causal_timeline, merge_events
from repro.obs.series import DivergenceMonitor
from repro.obs.tracing import Recorder
from repro.replication.network import SimNetwork
from repro.replication.replicator import Replicator
from repro.sim.adapters import TardisAdapter
from repro.sim.des import Simulator
from repro.workload.runner import (
    RunConfig,
    RunResult,
    _obs_snapshot,
    _Site,
)

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
    """N fully replicated TARDiS sites over a simulated WAN.

    ``store_kwargs`` go to every site's ``TardisStore``; a ``wal_path``
    ``p`` gives each site its own log, ``p.<site>``.
    """

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
            if not 1 <= n_sites <= len(SITE_NAMES):
                raise ValueError(
                    "n_sites must be 1..%d, got %r" % (len(SITE_NAMES), n_sites)
                )
            sites = SITE_NAMES[:n_sites]
        elif not sites:
            raise ValueError("a cluster needs at least one site")
        store_kwargs = store_kwargs or {}
        self.sim = sim or Simulator()
        self.network = SimNetwork(self.sim, default_latency_ms=default_latency_ms)
        for pair, lat in (latencies or GEO_LATENCIES).items():
            if pair[0] in sites and pair[1] in sites:
                self.network.set_latency(pair[0], pair[1], lat)
        self.stores: Dict[str, TardisStore] = {}
        self.replicators: Dict[str, Replicator] = {}
        for site in sites:
            kwargs = dict(store_kwargs)
            if kwargs.get("wal_path"):
                kwargs["wal_path"] = "%s.%s" % (kwargs["wal_path"], site)
            store = TardisStore(site, **kwargs)
            if trace:
                store.recorder = Recorder(
                    capacity=trace_capacity, enabled=True, clock=lambda: self.sim.now
                )
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
            with store._lock:
                leaves = store.dag.leaves()
                if len(leaves) != 1:
                    return False
                hit = store.versions.read_visible(key, leaves[0], store.dag)
            values.append(hit if hit is None else hit[1])
        return all(v == values[0] for v in values)

    def state_counts(self) -> Dict[str, int]:
        return {site: len(store.dag) for site, store in self.stores.items()}

    # -- cross-replica tracing ------------------------------------------------

    def events(self, kind: Optional[str] = None):
        """All sites' rows merged into one time-ordered stream (see
        :func:`~repro.obs.context.merge_events`)."""
        return merge_events(
            {site: store.recorder for site, store in self.stores.items()}, kind=kind
        )

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
    #: cluster-wide observability snapshot: every site's registries and
    #: the network's merged (replication counters, forks, merges, GC).
    obs_metrics: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        return "sites=%d aggregate=%8.0f txn/s (%s)" % (
            self.n_sites,
            self.aggregate_tps,
            ", ".join("%.0f" % r.throughput_tps for r in self.per_site),
        )


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

    ``config.n_clients`` and ``config.cores`` are per site; every site
    runs ``run_simulation``'s loop (``_Site``) on the cluster's simulator.
    One site seeds the database and the seed replicates for ``settle_ms``
    before any client starts (every site measures against a populated
    store). Remote transaction application charges ``remote_apply_cost``
    to the destination site's cores — by design it never contends with
    local transactions (§7.1.6), so aggregate throughput scales with sites.
    """
    sim = Simulator()
    cluster = Cluster(
        n_sites=n_sites,
        sim=sim,
        default_latency_ms=default_latency_ms,
    )
    monitor = None
    if config.series_interval_ms:
        monitor = cluster.monitor()
        monitor.install(sim, config.series_interval_ms)

    # Every site's store (and its replicator) and the network record into
    # their own registries from the preload on; the snapshot merges them.
    owners = [*cluster.stores.values(), cluster.network]
    if config.collect_metrics:
        for owner in owners:
            owner.registry.enabled = True
    preload = getattr(workload_factory(), "preload", None)
    adapters = [
        TardisAdapter(store=store, branching=branching)
        for store in cluster.stores.values()
    ]
    if preload:
        adapters[0].preload(preload)
        sim.run(until=settle_ms)  # let the seed replicate everywhere

    sites = []
    for index, adapter in enumerate(adapters):
        name = adapter.store.site
        site = _Site(sim, adapter, workload_factory(), config, name, index)
        cluster.replicators[name].apply_listener = (
            lambda record, cores=site.cores: cores.execute(
                remote_apply_cost, lambda: None
            )
        )
        sites.append(site)
    sim.run(until=sim.now + config.duration_ms)

    per_site = [site.result() for site in sites]
    registries = (
        [site.measure.registry for site in sites] + [owner.registry for owner in owners]
        if config.collect_metrics
        else []
    )
    return ReplicatedRunResult(
        n_sites=n_sites,
        per_site=per_site,
        aggregate_tps=sum(r.throughput_tps for r in per_site),
        messages=cluster.network.messages_sent,
        obs_metrics=_obs_snapshot(registries, monitor),
    )
