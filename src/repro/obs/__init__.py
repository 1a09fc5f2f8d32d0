"""Observability: metrics registry, branch-aware tracing, exporters.

Zero-dependency, near-zero-overhead when disabled. See
docs/internals.md §8 for the metric name catalogue and usage patterns.

Quick start::

    from repro import obs

    obs.enable()                       # turn on the default registry+tracer
    store = TardisStore("siteA")
    ...                                # run transactions
    print(obs.to_prometheus(obs.metrics.DEFAULT))
    for event in obs.tracing.DEFAULT.events(kind="branch.fork"):
        print(event)
"""

from repro.obs import metrics, tracing
from repro.obs.context import (
    causal_timeline,
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
    default_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.tracing import TraceEvent, Tracer, set_default_tracer, use_tracer


def enable(on: bool = True) -> None:
    """Toggle both the default registry and the default tracer."""
    metrics.enable(on)
    tracing.enable(on)


__all__ = [
    "Counter",
    "DivergenceMonitor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSampler",
    "TraceEvent",
    "Tracer",
    "Trigger",
    "WindowedGauge",
    "causal_timeline",
    "dag_extent",
    "default_registry",
    "enable",
    "format_timeline",
    "merge_events",
    "metrics",
    "set_default_registry",
    "set_default_tracer",
    "to_json",
    "to_prometheus",
    "trace_id_of",
    "tracing",
    "use_registry",
    "use_tracer",
]
