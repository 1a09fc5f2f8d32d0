"""Render a registry to JSON or Prometheus text.

Each owner of counts has a registry of its own (``store.registry``, a
network's, a run's); a view over several owners is a fresh
:class:`~repro.obs.metrics.MetricsRegistry` they are merged into, as the
benchmark runner and the cluster runner build one.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Recorder

__all__ = ["to_json", "to_prometheus"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    clean = _NAME_RE.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return clean


# -- JSON ------------------------------------------------------------------


def to_json(
    registry: MetricsRegistry,
    recorder: Optional[Recorder] = None,
    indent: Optional[int] = 2,
    include_buckets: bool = False,
    event_limit: int = 100,
) -> str:
    """The registry (and optionally a recorder's newest rows, as
    ``events``) as a JSON doc."""
    payload: Dict[str, Any] = {"metrics": registry.to_dict(include_buckets)}
    if recorder is not None:
        rows = recorder.rows()
        payload["events"] = rows[-event_limit:] if event_limit > 0 else []
    return json.dumps(payload, indent=indent, default=str, sort_keys=True)


# -- Prometheus text exposition format -------------------------------------


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text format v0.0.4 (histograms as cumulative buckets)."""
    lines = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if metric.help:
            lines.append("# HELP %s %s" % (name, metric.help))
        if isinstance(metric, Counter):
            lines.append("# TYPE %s counter" % name)
            lines.append("%s %d" % (name, metric.value))
        elif isinstance(metric, Gauge):
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s %s" % (name, _fmt(metric.value)))
        elif isinstance(metric, Histogram):
            lines.append("# TYPE %s histogram" % name)
            cumulative = 0
            for upper, count in metric.buckets():
                cumulative += count
                lines.append(
                    '%s_bucket{le="%s"} %d' % (name, _fmt(upper), cumulative)
                )
            lines.append('%s_bucket{le="+Inf"} %d' % (name, metric.count))
            lines.append("%s_sum %s" % (name, _fmt(metric.sum)))
            lines.append("%s_count %d" % (name, metric.count))
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
