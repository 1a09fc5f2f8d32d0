"""Metrics primitives: counters, gauges, log-bucketed histograms.

A :class:`MetricsRegistry` is a thread-safe namespace of named metrics.
The registry carries a single cheap ``enabled`` flag so instrumented hot
paths can skip all work with one attribute check::

    reg = store.registry
    if reg.enabled:
        reg.inc("tardis_txn_commit_total")

Histograms are **fixed log-linear buckets** (HdrHistogram-style): each
power of two is split into :data:`Histogram.SUBBUCKETS` linear
sub-buckets, so ``record`` is O(1), memory is proportional to the number
of *occupied* buckets (a sparse dict) plus at most :data:`PENDING`
samples not yet folded into them, and two histograms recorded on
different threads or sites merge by adding bucket counts. Quantile
estimates are bucket midpoints, so the relative error is bounded by
``1 / SUBBUCKETS`` (see :meth:`Histogram.quantile`). This is the
contrast with :class:`repro.workload.stats.LatencyStats`, which keeps
every sample.

There is no process-wide registry. Each owner of counts has its own,
**disabled** until a reader turns it on: every
:class:`~repro.core.store.TardisStore` (``store.registry``, which its
pipeline, collector, merges, replicator and speculation executor record
into), each :class:`~repro.replication.network.SimNetwork`, each
baseline store, and each run of the workload runner. A reader that wants
one view merges the owners' registries (:meth:`MetricsRegistry.merge`).
A count an owner already keeps natively is not pushed per event: the
owner's ``collect`` hook mirrors it into the registry whenever the
registry is read (:meth:`Counter.mirror`).
"""

from __future__ import annotations

import math
import threading
from collections import Counter as _tally
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRIC_NAMES",
    "SERIES_NAMES",
]

#: samples a histogram (increments a counter) buffers before its
#: ``record`` (``inc``) folds them in under the lock; a reader folds
#: whatever is buffered first.
PENDING = 64


class Counter:
    """A monotonically increasing named count."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_lock", "_pending")

    _GUARDED_BY = {
        # see Histogram._pending
        "_pending": "external:atomic-list-ops",
        "_value": "self._lock",
    }

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()
        self._pending: List[int] = []

    @property
    def value(self) -> int:
        self._fold()
        return self._value

    def inc(self, n: int = 1) -> None:
        # one append, as Histogram.record; the lock is taken per batch
        pending = self._pending
        pending.append(n)
        if len(pending) >= PENDING:
            self._fold()

    def _fold(self) -> None:
        """Add the buffered increments to the value, under the lock."""
        with self._lock:
            pending = self._pending
            n = len(pending)
            if n:
                self._value += sum(pending[:n])
                del pending[:n]

    def mirror(self, total: int) -> None:
        """Set the value to ``total``, a count its owner keeps natively
        (a registry's ``collect`` hook calls it on every read)."""
        self.inc(total - self.value)

    def merge(self, other: "Counter") -> None:
        self.inc(other.value)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self.value}

    def __repr__(self) -> str:
        return "<Counter %s=%d>" % (self.name, self.value)


class Gauge:
    """A named value that can go up and down (live states, queue depth)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value", "_lock")

    _GUARDED_BY = {"_value": "self._lock"}

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        # An int zero: a gauge merged into a fresh one keeps its type.
        self._value: float = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    def merge(self, other: "Gauge") -> None:
        # Merging gauges across threads/sites: sum (live states per site
        # add up; consumers wanting max can read per-site registries).
        self.add(other._value)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": self.kind, "value": self._value}

    def __repr__(self) -> str:
        return "<Gauge %s=%r>" % (self.name, self._value)


class Histogram:
    """Streaming log-linear histogram: O(1) record, bounded error.

    Bucket layout: a positive value ``v`` with ``frexp(v) == (m, e)``
    (``m`` in ``[0.5, 1)``) lands in bucket ``e * SUBBUCKETS + sub``
    where ``sub = floor((2m - 1) * SUBBUCKETS)``. Bucket ``(e, sub)``
    spans ``[2**(e-1) * (1 + sub/S), 2**(e-1) * (1 + (sub+1)/S))`` so
    the relative bucket width is at most ``1/SUBBUCKETS``. Zero and
    negative values are counted in a dedicated zero bucket.
    """

    kind = "histogram"
    SUBBUCKETS = 16

    __slots__ = (
        "name",
        "help",
        "_buckets",
        "_zero",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
        "_pending",
    )

    _GUARDED_BY = {
        # appended to without the lock, and emptied (``del [:n]``) under
        # it: each is one list operation, atomic on its own
        "_pending": "external:atomic-list-ops",
        "_buckets": "self._lock",
        "_zero": "self._lock",
        "_count": "self._lock",
        "_sum": "self._lock",
        "_min": "self._lock",
        "_max": "self._lock",
    }

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()
        self._pending: List[float] = []

    # -- recording -------------------------------------------------------

    @classmethod
    def bucket_index(cls, value: float) -> Optional[int]:
        """The bucket index of ``value``; None for the zero bucket."""
        if value <= 0.0:
            return None
        m, e = math.frexp(value)
        sub = int((m * 2.0 - 1.0) * cls.SUBBUCKETS)
        if sub >= cls.SUBBUCKETS:  # m rounded up to 1.0
            sub = cls.SUBBUCKETS - 1
        return e * cls.SUBBUCKETS + sub

    @classmethod
    def bucket_bounds(cls, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` bounds of bucket ``index``."""
        e, sub = divmod(index, cls.SUBBUCKETS)
        base = math.ldexp(1.0, e - 1)
        lo = base * (1.0 + sub / cls.SUBBUCKETS)
        hi = base * (1.0 + (sub + 1) / cls.SUBBUCKETS)
        return lo, hi

    def record(self, value: float) -> None:
        # One append and no lock: record runs several times per served
        # request, where a lock and a bucketing per sample would be most
        # of what an enabled registry costs it.
        pending = self._pending
        pending.append(value)
        if len(pending) >= PENDING:
            self._fold()

    def record_many(self, values) -> None:
        """Record a batch of samples (the workload runner's latency
        list, at the end of a run) with one fold."""
        self._pending.extend(values)
        self._fold()

    def _fold(self) -> None:
        """Fold the buffered samples into the buckets, under the lock.
        Samples appended meanwhile land past the ``n`` taken here and
        wait for the next fold. Equal samples (most of the store's
        small counts) are bucketed once."""
        with self._lock:
            pending = self._pending
            n = len(pending)
            if not n:
                return
            batch = pending[:n]
            self._count += n
            self._sum += sum(batch)
            self._min = min(self._min, min(batch))
            self._max = max(self._max, max(batch))
            buckets = self._buckets
            for value, k in _tally(batch).items():
                index = self.bucket_index(value)
                if index is None:
                    self._zero += k
                else:
                    buckets[index] = buckets.get(index, 0) + k
            del pending[:n]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in (cross-thread / cross-site merge)."""
        other._fold()
        with other._lock:
            buckets = dict(other._buckets)
            zero, count = other._zero, other._count
            total, lo, hi = other._sum, other._min, other._max
        with self._lock:
            for index, n in buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._zero += zero
            self._count += count
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)

    # -- queries ---------------------------------------------------------

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def mean(self) -> float:
        self._fold()
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        self._fold()
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        self._fold()
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]).

        Returns the midpoint of the bucket holding the rank-``ceil(qN)``
        sample, clamped to the observed min/max — so the estimate's
        relative error is at most ``1 / SUBBUCKETS``.
        """
        self._fold()
        with self._lock:
            count = self._count
            if not count:
                return 0.0
            rank = max(1, min(count, math.ceil(q * count)))
            cumulative = self._zero
            if rank <= cumulative:
                return 0.0
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if rank <= cumulative:
                    lo, hi = self.bucket_bounds(index)
                    mid = (lo + hi) / 2.0
                    return max(self._min, min(self._max, mid))
            return self._max

    def percentile(self, p: float) -> float:
        return self.quantile(p / 100.0)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def buckets(self) -> List[Tuple[float, int]]:
        """Occupied buckets as ``(upper_bound, count)``, ascending."""
        self._fold()
        with self._lock:
            out = [(0.0, self._zero)] if self._zero else []
            for index in sorted(self._buckets):
                out.append((self.bucket_bounds(index)[1], self._buckets[index]))
        return out

    def to_dict(self, include_buckets: bool = False) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.quantile(0.90),
            "p99": self.p99,
        }
        if include_buckets:
            self._fold()
            with self._lock:
                data["zero"] = self._zero
                data["buckets"] = {str(i): n for i, n in sorted(self._buckets.items())}
        return data

    def __repr__(self) -> str:
        return "<Histogram %s n=%d mean=%.4g>" % (self.name, self.count, self.mean)


class MetricsRegistry:
    """A thread-safe namespace of named metrics.

    ``get-or-create`` accessors (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) are idempotent; convenience recorders
    (:meth:`inc`, :meth:`observe`, :meth:`set_gauge`) combine lookup and
    update and no-op when the registry is disabled, so call sites stay
    one line. Instrumented hot paths should still guard with
    ``if registry.enabled:`` to skip argument evaluation entirely.
    """

    _GUARDED_BY = {"_metrics": "self._lock"}

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()
        #: the owner's mirror of the counts it keeps natively, called
        #: before every read of an enabled registry (``names``, ``get``,
        #: ``counter_value``, ``len`` and ``in``, and so every export
        #: and merge).
        self.collect: Optional[Callable[[], None]] = None

    def _collected(self) -> Dict[str, Any]:
        if self.collect is not None and self.enabled:
            self.collect()
        return self._metrics

    # -- structure -------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, cls):
                raise TypeError(
                    "metric %r already registered as %s" % (name, metric.kind)
                )
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric %r already registered as %s" % (name, metric.kind)
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str):
        return self._collected().get(name)

    def counter_value(self, name: str, default: int = 0) -> int:
        """Current value of counter ``name``; ``default`` when absent.

        Read-side convenience for consumers summarizing related
        counters (e.g. ``tardis top`` computing cache hit rates from
        ``tardis_*_cache_hit_total`` / ``_miss_total``) without
        creating the metric as a side effect.
        """
        metric = self._collected().get(name)
        if metric is None or not isinstance(metric, Counter):
            return default
        return metric.value

    def names(self) -> List[str]:
        return sorted(self._collected())

    def metrics(self) -> Iterator[Any]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._collected())

    def __contains__(self, name: str) -> bool:
        return name in self._collected()

    # -- convenience recorders -------------------------------------------

    # The recorders bypass the typed accessors on a dict hit: these run
    # once per transaction, and the accessor's extra call frame plus
    # isinstance check measurably widens the instrumented/uninstrumented
    # gap. Trade-off: recording under a name registered as a different
    # kind raises AttributeError here instead of the accessors'
    # TypeError; creation (the cold path) still type-checks.

    def inc(self, name: str, n: int = 1) -> None:
        if self.enabled:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._get_or_create(Counter, name, "")
            metric.inc(n)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._get_or_create(Histogram, name, "")
            metric.record(value)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._get_or_create(Gauge, name, "")
            metric.set(value)

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in (same-named metrics must agree on kind)."""
        for theirs in other.metrics():
            mine = self._get_or_create(type(theirs), theirs.name, theirs.help)
            mine.merge(theirs)

    def to_dict(self, include_buckets: bool = False) -> Dict[str, Any]:
        out = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                out[metric.name] = metric.to_dict(include_buckets=include_buckets)
            else:
                out[metric.name] = metric.to_dict()
        return out

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __repr__(self) -> str:
        return "<MetricsRegistry enabled=%s metrics=%d>" % (
            self.enabled,
            len(self._metrics),
        )


# ---------------------------------------------------------------------------
# The metric name catalogue.
#
# The registry creates metrics on first use, so a typo'd name would
# silently split a metric in two. Every ``tardis_*`` registry metric the
# library records must be declared here, and every name declared here
# must have a producer; ``tardis check`` (rule ``metric-name-drift``)
# enforces both directions, plus that consumers (CLI, docs, tests) only
# reference declared names.

#: registry metrics (counters/gauges/histograms), name -> help.
METRIC_NAMES: Dict[str, str] = {
    "tardis_begin_visits": "DAG states visited per begin()",
    "tardis_branch_fork_total": "forks created by concurrent commits",
    "tardis_branch_merge_total": "merge commits",
    "tardis_commit_cross_shard_total": "commits whose write set spanned shards",
    "tardis_commit_ripple_steps": "states rippled past per commit",
    "tardis_commit_shard_abort_total": "commits aborted by a failed shard prepare",
    "tardis_dag_retro_updates_total": "retroactive path_mask widenings",
    "tardis_dag_splice_total": "states spliced out of the DAG",
    "tardis_gc_cycle_total": "GC cycles run",
    "tardis_gc_live_records": "records alive after a GC cycle",
    "tardis_gc_live_states": "states alive after a GC cycle",
    "tardis_gc_promotion_table": "promotion-table size after GC",
    "tardis_gc_records_dropped_total": "record versions GC reclaimed",
    "tardis_gc_records_promoted_total": "record versions GC promoted",
    "tardis_gc_states_removed_total": "DAG states GC removed",
    "tardis_merge_conflict_keys": "conflicting keys per merge",
    "tardis_merge_parents": "parents per merge commit",
    "tardis_net_buffered_dropped_total": "buffered messages dropped",
    "tardis_net_buffered_flushed_total": "buffered messages flushed",
    "tardis_net_buffered_total": "messages buffered by partitions",
    "tardis_net_messages_delivered_total": "network messages delivered",
    "tardis_net_messages_sent_total": "network messages sent",
    "tardis_repl_apply_total": "replicated commits applied locally",
    "tardis_repl_cache_total": "replication fetches served from cache",
    "tardis_repl_drop_total": "replication messages dropped",
    "tardis_repl_fetch_total": "replication state fetches",
    "tardis_repl_send_total": "replication messages sent",
    "tardis_shard_access_total": "record accesses routed to a shard (@s<i> per shard)",
    "tardis_spec_confirm_total": "speculative executions confirmed",
    "tardis_spec_misspec_total": "misspeculations detected",
    "tardis_spec_reexec_total": "speculative re-executions",
    "tardis_spec_submit_total": "speculative submissions",
    "tardis_trace_dropped_total": "rows evicted from a store recorder's ring",
    "tardis_txn_abort_total": "transactions aborted",
    "tardis_txn_begin_total": "transactions begun",
    "tardis_txn_commit_readonly_total": "read-only commit fast paths",
    "tardis_txn_commit_total": "transactions committed",
    "tardis_txn_write_keys": "keys written per committing transaction",
    "tardis_vis_cache_hit_total": "visibility-cache hits",
    "tardis_vis_cache_invalidations_total": "visibility-cache invalidations",
    "tardis_vis_cache_miss_total": "visibility-cache misses",
    "tardis_wal_group_flush_total": "WAL group-commit flushes",
}

#: windowed-series base names; instances carry an ``@<site>`` suffix
#: (``@s<i>`` per shard, ``@w<i>`` per worker for the shard-plane ones).
SERIES_NAMES: Dict[str, str] = {
    "tardis_branch_count": "leaves per site over time",
    "tardis_dag_depth": "DAG depth per site over time",
    "tardis_dag_width": "DAG width per site over time",
    "tardis_merge_debt": "branches beyond one pending merge",
    "tardis_net_commits": "cumulative server-side commits over time",
    "tardis_net_connections": "live server connections over time",
    "tardis_net_inflight": "requests in flight over time",
    "tardis_net_requests": "cumulative requests processed over time",
    "tardis_net_sessions": "open store sessions over time",
    "tardis_repl_lag": "states committed at src not applied at dst",
    "tardis_shard_accesses": "cumulative accesses per shard over time",
    "tardis_shard_queue_depth": "in-flight batches per shard worker over time",
    "tardis_shard_workers_alive": "live shard workers over time",
    "tardis_staleness_ms": "time since the site last had a single leaf",
}
