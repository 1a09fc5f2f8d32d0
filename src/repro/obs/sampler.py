"""Wall-clock observability sampling: the live ops plane's engine.

The windowed series and triggers (:mod:`repro.obs.series`) were built
for discrete-event-simulator ticks; this module drives the very same
machinery from wall-clock time against a *live* store — the network
server's. An :class:`ObsSampler` owns

* a :class:`~repro.obs.series.DivergenceMonitor` over the one store it
  watches (branch count, DAG width/depth, merge debt, staleness), with
  its clock rebased to wall milliseconds since the sampler was built;
* extra server-plane series fed from caller-supplied callables —
  sessions, in-flight requests, connections, cumulative request/commit
  counts, per-shard access totals, and per-worker queue depth/liveness
  from the proc-shard plane (the ``tardis_net_*`` / ``tardis_shard_*``
  entries of ``SERIES_NAMES``);
* triggers that run *live* on every sample: a threshold trip appends a
  JSON-safe alert to a bounded ring, so divergence excursions surface
  while the server is up instead of in a post-mortem file.

``sample()`` builds one JSON-safe *snapshot* document — the unit the
wire protocol ships for ``OBS_SNAPSHOT``, and the thing ``tardis top``
renders. Schema (all values plain JSON; docs/internals.md §14 is the
reference):

.. code-block:: python

    {
        "obs_schema": 2,
        "seq": 7,                 # monotonically increasing sample number
        "t_ms": 1234.5,           # wall ms since the sampler started
        "site": "net",
        "gauges": {"branch_count", "dag_width", "dag_depth",
                   "merge_debt", "staleness_ms", "states",
                   "sessions", "inflight", "connections"},
        "counters": {...},        # cumulative server stats + store commits
        "latency_ms": {"COMMIT": {"count", "mean", "p50", "p90",
                                  "p99", "max"}, ...},
        "shards": None | {"n_shards", "accesses", "n_workers",
                          "workers": [{"worker", "shards", "alive",
                                       "queue_depth", "pid", "ping_ms"}],
                          "workers_alive", "workers_dead",
                          "leaked_workers"},
        "series": {"tardis_branch_count@net": [[t, v], ...], ...},
        "alerts": [{"t_ms", "series", "value", "threshold",
                    "hold_ms", "reason"}, ...],
        "alerts_total": 1,        # trips since the sampler started
    }

Thread-safety: the sampler has no lock of its own. The server calls
``sample()`` on its store thread (serialized with every other
store access) and hands the returned snapshot — a plain dict that is
never mutated afterwards — to the event loop for publishing, so readers
only ever see completed snapshots via :meth:`latest`.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.series import DivergenceMonitor

__all__ = ["ObsSampler", "DEFAULT_TRIGGERS", "OBS_SCHEMA_VERSION"]

#: schema version of snapshot documents (bumped on incompatible change).
OBS_SCHEMA_VERSION = 2

#: samples kept per series, and how many of the newest a snapshot ships.
SERIES_CAPACITY = 512
SNAPSHOT_TAIL = 60
#: alerts kept in the ring a snapshot ships.
ALERT_CAPACITY = 64

#: default armed triggers: ``(series_prefix, threshold, hold_ms)``.
#: Branch count / merge debt above 8 held for 2 wall-seconds is the
#: paper's "divergence is running away" shape; staleness catches a
#: branch frontier nobody merges down.
DEFAULT_TRIGGERS: Tuple[Tuple[str, float, float], ...] = (
    ("tardis_branch_count", 8.0, 2000.0),
    ("tardis_merge_debt", 8.0, 2000.0),
    ("tardis_staleness_ms", 60000.0, 2000.0),
)


class ObsSampler:
    """Samples one live store (plus server-plane callables) on demand.

    ``counters_fn`` returns cumulative server counters (requests_total,
    commits, ...); ``gauges_fn`` returns instantaneous server gauges
    (sessions, inflight, connections); ``latency_fn`` returns per-op
    latency summaries. All three are optional so the sampler also works
    bare against a store (tests, embedding).
    """

    def __init__(
        self,
        store: Any,
        site: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
        counters_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        gauges_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        latency_fn: Optional[Callable[[], Dict[str, Dict[str, Any]]]] = None,
    ) -> None:
        self.store = store
        self.site = site if site is not None else getattr(store, "site", "local")
        self._clock = clock
        self._t0 = clock()
        #: wall ms since construction — the monitor's time axis.
        monitor_clock = lambda: (self._clock() - self._t0) * 1000.0  # noqa: E731
        self.monitor = DivergenceMonitor(
            {self.site: store},
            clock=monitor_clock,
            capacity=SERIES_CAPACITY,
        )
        self.counters_fn = counters_fn
        self.gauges_fn = gauges_fn
        self.latency_fn = latency_fn
        self.alerts: deque = deque(maxlen=ALERT_CAPACITY)
        self.alerts_total = 0
        self.seq = 0
        #: the newest completed snapshot; never mutated once published.
        self.latest: Optional[Dict[str, Any]] = None
        for series, threshold, hold_ms in DEFAULT_TRIGGERS:
            self.arm(series, threshold, hold_ms)

    # -- triggers ----------------------------------------------------------

    def arm(self, series: str, threshold: float, hold_ms: float) -> None:
        """Alert when ``series`` > threshold holds for ``hold_ms`` wall
        milliseconds; re-arms per excursion."""

        def action(monitor, trigger, now, name, value):
            self.alerts_total += 1
            self.alerts.append(
                {
                    "t_ms": now,
                    "series": name,
                    "value": value,
                    "threshold": threshold,
                    "hold_ms": hold_ms,
                    "reason": "%s=%g > %g held %gms" % (name, value, threshold, hold_ms),
                }
            )

        self.monitor.add_trigger(series, threshold, hold_ms, action)

    # -- sampling ----------------------------------------------------------

    def sample(self) -> Dict[str, Any]:
        """Take one sample and return the snapshot document.

        Must run serialized with store mutations (the server calls it on
        the store thread); the returned dict is immutable by contract.
        """
        self.seq += 1
        # Feeds the divergence series and runs the triggers.
        self.monitor.sample()
        now = self.monitor.clock()
        store = self.store
        dag = store.dag
        gauges: Dict[str, Any] = {"states": len(dag)}
        for base in (
            "tardis_branch_count",
            "tardis_dag_width",
            "tardis_dag_depth",
            "tardis_merge_debt",
            "tardis_staleness_ms",
        ):
            last = self.monitor.gauge("%s@%s" % (base, self.site)).last()
            gauges[base[len("tardis_") :]] = last[1] if last else 0

        if self.gauges_fn is not None:
            g = self.gauges_fn()
            gauges["sessions"] = g.get("sessions", 0)
            gauges["inflight"] = g.get("inflight", 0)
            gauges["connections"] = g.get("connections", 0)
            self.monitor._feed("tardis_net_sessions@%s" % self.site, now, gauges["sessions"])
            self.monitor._feed("tardis_net_inflight@%s" % self.site, now, gauges["inflight"])
            self.monitor._feed(
                "tardis_net_connections@%s" % self.site, now, gauges["connections"]
            )

        counters: Dict[str, Any] = {}
        if self.counters_fn is not None:
            counters = dict(self.counters_fn())
            self.monitor._feed(
                "tardis_net_requests@%s" % self.site,
                now,
                counters.get("requests_total", 0),
            )
            self.monitor._feed(
                "tardis_net_commits@%s" % self.site, now, counters.get("commits", 0)
            )
        counters["store_commits"] = store.metrics.commits
        counters["store_merges"] = store.metrics.merges

        latency: Dict[str, Dict[str, Any]] = {}
        if self.latency_fn is not None:
            latency = self.latency_fn()

        shards = self._shard_section(now)

        snapshot: Dict[str, Any] = {
            "obs_schema": OBS_SCHEMA_VERSION,
            "seq": self.seq,
            "t_ms": now,
            "site": self.site,
            "gauges": gauges,
            "counters": counters,
            "latency_ms": latency,
            "shards": shards,
            "series": self.monitor.tails(SNAPSHOT_TAIL),
            "alerts": list(self.alerts),
            "alerts_total": self.alerts_total,
        }
        self.latest = snapshot
        return snapshot

    def _shard_section(self, now: float) -> Optional[Dict[str, Any]]:
        """Per-shard/per-worker health, or None for a flat store."""
        health = self.store.shard_health()
        if health is None:
            return None
        for i, count in enumerate(health.get("accesses", [])):
            self.monitor._feed("tardis_shard_accesses@s%d" % i, now, count)
        for worker in health.get("workers", []):
            self.monitor._feed(
                "tardis_shard_queue_depth@w%d" % worker["worker"],
                now,
                worker["queue_depth"],
            )
        if "workers_alive" in health:
            self.monitor._feed(
                "tardis_shard_workers_alive@%s" % self.site,
                now,
                health["workers_alive"],
            )
        return health

    def latest_or_sample(self) -> Dict[str, Any]:
        """The newest snapshot, sampling fresh when none exists yet."""
        return self.latest if self.latest is not None else self.sample()

    # -- views -------------------------------------------------------------

    @staticmethod
    def trim(snapshot: Dict[str, Any], tail: Optional[int]) -> Dict[str, Any]:
        """A copy of ``snapshot`` with series tails cut to ``tail``.

        ``tail=None`` returns the snapshot as-is; ``tail=0`` drops the
        series section entirely.
        """
        if tail is None:
            return snapshot
        out = dict(snapshot)
        if tail <= 0:
            out.pop("series", None)
        else:
            out["series"] = {
                name: samples[-tail:]
                for name, samples in snapshot.get("series", {}).items()
            }
        return out

    def __repr__(self) -> str:
        return "<ObsSampler site=%s seq=%d alerts=%d>" % (
            self.site,
            self.seq,
            self.alerts_total,
        )
