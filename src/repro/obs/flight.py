"""The branch-divergence flight dump.

A flight dump answers "what was the system doing when it went wrong?"
from the system's own state. :func:`flight_dump` freezes

* the newest trace events from every site's ring buffer (merged,
  causally ordered, with per-site drop counts so truncation is visible),
* the tails of every divergence series (the quantitative run-up), and
* a structural snapshot of each site's State DAG (states, parents,
  leaves, marks, promotion-table size),

into one JSON document. ``tardis trace --dump`` writes one;
``python -m repro.tools.cli flight <dump.json>`` pretty-prints it
(:func:`format_flight`). Live threshold trips are the sampler's alerts
(:mod:`repro.obs.sampler`), not dumps.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.context import merge_events
from repro.obs.series import DivergenceMonitor
from repro.obs.tracing import Tracer

__all__ = ["flight_dump", "dag_snapshot", "format_flight"]

#: schema version of flight dump documents.
FLIGHT_SCHEMA_VERSION = 1
#: newest merged trace events, and newest samples per series, a dump keeps.
DUMP_EVENTS = 200
DUMP_SERIES_TAIL = 32


def dag_snapshot(store) -> Dict[str, Any]:
    """A JSON-safe structural snapshot of one store's State DAG."""
    states = []
    for state in sorted(store.dag.states(), key=lambda s: s.id):
        states.append(
            {
                "id": repr(state.id),
                "parents": [repr(p.id) for p in state.parents],
                "children": len(state.children),
                "leaf": state.is_leaf,
                "merge": state.is_merge,
                "marked": state.marked,
                "write_keys": len(state.write_keys),
            }
        )
    with store._lock:
        records = store.versions.num_records()
    return {
        "site": store.site,
        "states": states,
        "leaves": [repr(s.id) for s in store.dag.leaves()],
        "promotion_table": store.dag.promotion_table_size,
        "records": records,
    }


def flight_dump(
    tracers: Dict[str, Tracer],
    stores: Dict[str, Any],
    monitor: Optional[DivergenceMonitor],
    reason: str,
) -> Dict[str, Any]:
    """One flight dump document, JSON-safe.

    ``tracers`` maps site name to that site's :class:`Tracer` (one entry
    for a single-site store); ``stores`` maps site name to the store
    whose DAG gets snapshotted; ``monitor``'s series tails ride along
    (none without one).
    """
    events = merge_events(tracers)[-DUMP_EVENTS:]
    return {
        "flight_schema": FLIGHT_SCHEMA_VERSION,
        "reason": reason,
        "events": [
            {"ts": e.ts, "kind": e.kind, **{k: repr(v) if not isinstance(v, (str, int, float, bool, type(None))) else v for k, v in e.attrs.items()}}
            for e in events
        ],
        "dropped_events": {
            site: tracer.dropped for site, tracer in sorted(tracers.items())
        },
        "series": monitor.tails(DUMP_SERIES_TAIL) if monitor is not None else {},
        "dag": {site: dag_snapshot(store) for site, store in sorted(stores.items())},
    }


# -- pretty printing ---------------------------------------------------------


def format_flight(doc: Dict[str, Any], event_limit: int = 50) -> str:
    """Render a flight dump for humans (``tardis flight <dump.json>``)."""
    lines = []
    lines.append("=" * 72)
    lines.append(
        "FLIGHT RECORDER DUMP — %s" % doc.get("reason", "(no reason recorded)")
    )
    lines.append("=" * 72)

    dropped = doc.get("dropped_events") or {}
    if any(dropped.values()):
        lines.append("")
        lines.append(
            "!! truncated timelines: %s"
            % ", ".join(
                "%s dropped %d" % (site, n) for site, n in sorted(dropped.items()) if n
            )
        )

    series = doc.get("series") or {}
    if series:
        lines.append("")
        lines.append("-- series (newest samples) " + "-" * 33)
        for name, samples in sorted(series.items()):
            if not samples:
                continue
            t, v = samples[-1]
            values = " ".join("%g" % s[1] for s in samples[-8:])
            lines.append("  %-32s last=%g @ %.1fms   tail: %s" % (name, v, t, values))

    dags = doc.get("dag") or {}
    if dags:
        lines.append("")
        lines.append("-- state DAGs " + "-" * 46)
        for site, snap in sorted(dags.items()):
            lines.append(
                "  %-6s states=%-4d leaves=%-3d promotions=%-3d records=%d"
                % (
                    site,
                    len(snap.get("states", [])),
                    len(snap.get("leaves", [])),
                    snap.get("promotion_table", 0),
                    snap.get("records", 0),
                )
            )
            for leaf in snap.get("leaves", []):
                lines.append("    leaf %s" % leaf)

    events = doc.get("events") or []
    if events:
        lines.append("")
        lines.append("-- last %d trace events " % min(len(events), event_limit) + "-" * 36)
        for event in events[-event_limit:]:
            attrs = {
                k: v
                for k, v in event.items()
                if k not in ("ts", "kind", "site")
            }
            rendered = " ".join("%s=%s" % kv for kv in sorted(attrs.items()))
            lines.append(
                "  %10.3fms  %-6s %-14s %s"
                % (event.get("ts", 0.0), event.get("site", "?"), event["kind"], rendered)
            )
    return "\n".join(lines)
