"""Observability: metrics registry, one row recorder per store, exporters.

Zero-dependency, near-zero-overhead when disabled. See
docs/internals.md §8 for the metric name catalogue, the row catalogue
and usage patterns.

Quick start::

    from repro import obs

    store = TardisStore("siteA")
    store.registry.enabled = True      # this store's metrics
    store.recorder.enabled = True      # and its branch rows
    ...                                # run transactions
    print(obs.to_prometheus(store.registry))
    for row in store.recorder.rows():
        print(obs.format_row(row))
"""

from repro.obs import metrics, tracing
from repro.obs.context import (
    causal_timeline,
    format_row,
    format_timeline,
    merge_events,
    trace_id_of,
)
from repro.obs.export import to_json, to_prometheus
from repro.obs.sampler import ObsSampler
from repro.obs.series import (
    DivergenceMonitor,
    Trigger,
    WindowedGauge,
    dag_extent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import Recorder

__all__ = [
    "Counter",
    "DivergenceMonitor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSampler",
    "Recorder",
    "Trigger",
    "WindowedGauge",
    "causal_timeline",
    "dag_extent",
    "format_row",
    "format_timeline",
    "merge_events",
    "metrics",
    "to_json",
    "to_prometheus",
    "trace_id_of",
    "tracing",
]
