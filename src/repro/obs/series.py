"""Windowed time-series: how divergence evolves *over* a run.

Counters and histograms aggregate; they cannot answer the questions the
paper's Figures 10–13 are actually about — how branch count, DAG
width/depth, replication lag, and merge debt evolve over (simulated)
time. This module adds the missing shape:

* :class:`WindowedGauge` — a fixed-size ring of ``(sim_time_ms, value)``
  samples (memory bounded, O(1) append);
* :class:`DivergenceMonitor` — samples the branch-divergence state of
  one or many TARDiS stores on a discrete-event-simulator tick and
  feeds the series; in a cluster it also measures per-peer replication
  lag (states committed at one site, not yet applied at another);
* :class:`Trigger` — a threshold rule (``value > threshold`` held for
  ``hold_ms``) that fires an action once per excursion — the hook the
  live sampler (:mod:`repro.obs.sampler`) arms.

The series are the one home of divergence: nothing here writes the
metrics registry. Series serialize as
``{"type": "series", "samples": [[t, v], ...]}`` and are folded into
``RunResult.obs_metrics`` / ``BENCH_*.json`` alongside the run's own
registry (see docs/internals.md §8).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "WindowedGauge",
    "Trigger",
    "DivergenceMonitor",
    "dag_extent",
]


class WindowedGauge:
    """A named ring of ``(t, value)`` samples; newest ``capacity`` kept."""

    kind = "series"
    __slots__ = ("name", "help", "capacity", "_samples")

    def __init__(self, name: str, capacity: int = 512, help: str = ""):
        self.name = name
        self.help = help
        self.capacity = capacity
        self._samples: deque = deque(maxlen=capacity)

    def sample(self, t: float, value: float) -> None:
        self._samples.append((t, value))

    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)

    def last(self) -> Optional[Tuple[float, float]]:
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "samples": [[t, v] for t, v in self._samples],
        }

    def __repr__(self) -> str:
        return "<%s %s n=%d/%d>" % (
            type(self).__name__,
            self.name,
            len(self._samples),
            self.capacity,
        )


class Trigger:
    """``value > threshold`` held for ``hold_ms`` fires ``action`` once.

    ``series`` is matched as a prefix, so one rule can watch a family
    (``tardis_branch_count`` watches every site's branch count). The
    trigger re-arms when the value falls back to/below the threshold.
    """

    __slots__ = ("series", "threshold", "hold_ms", "action", "_over_since", "_fired")

    def __init__(
        self,
        series: str,
        threshold: float,
        hold_ms: float,
        action: Callable[["DivergenceMonitor", "Trigger", float, str, float], None],
    ):
        self.series = series
        self.threshold = threshold
        self.hold_ms = hold_ms
        self.action = action
        self._over_since: Dict[str, float] = {}
        self._fired: Dict[str, bool] = {}

    def observe(
        self, monitor: "DivergenceMonitor", name: str, now: float, value: float
    ) -> None:
        if value <= self.threshold:
            self._over_since.pop(name, None)
            self._fired.pop(name, None)
            return
        since = self._over_since.setdefault(name, now)
        if now - since >= self.hold_ms and not self._fired.get(name):
            self._fired[name] = True
            self.action(monitor, self, now, name, value)


def dag_extent(dag) -> Tuple[int, int]:
    """``(width, depth)`` of a State DAG.

    Depth is the longest root→leaf path; width is the largest number of
    states sharing one depth level (how broad the branch frontier got).
    State ids are monotonic along every branch, so one pass in id order
    computes both without recursion.
    """
    depth_of: Dict[Any, int] = {}
    level_counts: Dict[int, int] = {}
    for state in sorted(dag.states(), key=lambda s: s.id):
        d = 1 + max((depth_of.get(p.id, 0) for p in state.parents), default=-1)
        depth_of[state.id] = d
        level_counts[d] = level_counts.get(d, 0) + 1
    if not level_counts:
        return 0, 0
    return max(level_counts.values()), max(level_counts)


class DivergenceMonitor:
    """Samples branch-divergence series from one or many TARDiS stores.

    Per site and tick: ``tardis_branch_count@<site>`` (current leaves),
    ``tardis_dag_width@<site>`` / ``tardis_dag_depth@<site>`` (see
    :func:`dag_extent`), ``tardis_merge_debt@<site>`` (branches beyond
    one that must eventually merge), and
    ``tardis_staleness_ms@<site>`` (simulated time since the site last
    had a single leaf — how long it has been continuously diverged).
    With several stores, every ordered pair also gets
    ``tardis_repl_lag@<src>-><dst>``: states committed (present) at
    ``src`` but not yet applied at ``dst``.

    ``sample()`` is driven from discrete-event-simulator ticks
    (:meth:`install`) or by the live sampler.
    """

    def __init__(
        self,
        stores: Dict[str, Any],
        clock: Callable[[], float],
        network: Any = None,
        capacity: int = 512,
    ):
        self.stores = dict(stores)
        self.clock = clock
        self.network = network
        self.capacity = capacity
        self.series: Dict[str, WindowedGauge] = {}
        self.triggers: List[Trigger] = []
        self.samples_taken = 0
        self._last_converged: Dict[str, float] = {}

    # -- series management ---------------------------------------------------

    def gauge(self, name: str) -> WindowedGauge:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = WindowedGauge(name, capacity=self.capacity)
        return series

    def add_trigger(
        self,
        series: str,
        threshold: float,
        hold_ms: float,
        action: Callable[["DivergenceMonitor", Trigger, float, str, float], None],
    ) -> Trigger:
        trigger = Trigger(series, threshold, hold_ms, action)
        self.triggers.append(trigger)
        return trigger

    # -- sampling ------------------------------------------------------------

    def _feed(self, name: str, now: float, value: float) -> None:
        self.gauge(name).sample(now, value)
        for trigger in self.triggers:
            if name.startswith(trigger.series):
                trigger.observe(self, name, now, value)

    def sample(self) -> None:
        now = self.clock()
        self.samples_taken += 1
        # One store's lock at a time, never two nested.
        for site, store in self.stores.items():
            with store._lock:
                branch_count = len(store.dag.leaves())
                width, depth = dag_extent(store.dag)
            if branch_count <= 1:
                self._last_converged[site] = now
            staleness = now - self._last_converged.setdefault(site, now)
            merge_debt = max(0, branch_count - 1)
            self._feed("tardis_branch_count@%s" % site, now, branch_count)
            self._feed("tardis_dag_width@%s" % site, now, width)
            self._feed("tardis_dag_depth@%s" % site, now, depth)
            self._feed("tardis_merge_debt@%s" % site, now, merge_debt)
            self._feed("tardis_staleness_ms@%s" % site, now, staleness)
        if len(self.stores) > 1:
            ids = {}
            for site, store in self.stores.items():
                with store._lock:
                    ids[site] = {s.id for s in store.dag.states()}
            total_lag = 0
            for src, src_ids in ids.items():
                for dst, dst_ids in ids.items():
                    if src == dst:
                        continue
                    lag = len(src_ids - dst_ids)
                    total_lag += lag
                    self._feed("tardis_repl_lag@%s->%s" % (src, dst), now, lag)
            self._feed("tardis_repl_lag@total", now, total_lag)

    def install(self, sim, interval_ms: float) -> None:
        """Schedule a recurring sample every ``interval_ms`` on ``sim``."""

        def tick() -> None:
            self.sample()
            sim.schedule(interval_ms, tick)

        sim.schedule(interval_ms, tick)

    # -- export --------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """All series as ``{"name": {"type": "series", "samples": ...}}``."""
        return {name: s.to_dict() for name, s in sorted(self.series.items())}

    def tails(self, n: int = 32) -> Dict[str, List[List[float]]]:
        """The newest ``n`` samples of each series (snapshots)."""
        return {
            name: [[t, v] for t, v in s.samples()[-n:]]
            for name, s in sorted(self.series.items())
        }

    def __repr__(self) -> str:
        return "<DivergenceMonitor sites=%d series=%d samples=%d>" % (
            len(self.stores),
            len(self.series),
            self.samples_taken,
        )
