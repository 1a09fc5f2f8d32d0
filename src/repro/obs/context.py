"""Trace ids and causal timeline reconstruction across replicas.

A trace id is a state id: ``repr(StateId)``, e.g. ``s14@us``. State ids
are globally unique and replication carries them unchanged (§6.4), so the
id of the state a transaction committed *is* its distributed trace id —
no id allocator and no context object travel with the transaction. Each
emitter stamps ``trace`` (the commit's state id) and ``parent`` (its
first parent's, None for a root) from ids it already holds, through
:func:`stamp`. The one stamp not derivable from the event's own state is
``repl.fetch``: a fetch is charged to the transaction waiting on it, so
the fetch request carries that transaction's state id and first parent.

Because every site stamps the same ids, the event rings of N sites merge
back into one causally ordered timeline: commit at the origin →
replicate → apply at each peer → merge.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.tracing import TraceEvent, Tracer

__all__ = [
    "stamp",
    "trace_id_of",
    "merge_events",
    "causal_timeline",
    "format_timeline",
]


def trace_id_of(state_id: Any) -> str:
    """The trace id of the commit that created ``state_id``."""
    return repr(state_id)


def stamp(state_id: Any, parent_id: Any = None) -> Dict[str, Optional[str]]:
    """The ``trace``/``parent`` attrs of an event about ``state_id``.

    ``parent_id`` is the first parent of that state, None for a root.
    """
    return {
        "trace": repr(state_id),
        "parent": None if parent_id is None else repr(parent_id),
    }


# -- timeline reconstruction -------------------------------------------------


def merge_events(
    tracers: Dict[str, Tracer], kind: Optional[str] = None
) -> List[TraceEvent]:
    """Merge per-site ring buffers into one stream ordered by timestamp.

    Ties (same timestamp — common under the discrete-event clock) break
    by site name and then per-site buffer order, so the merged stream is
    deterministic. Events that lack a ``site`` attr are tagged with the
    tracer's key.
    """
    tagged = []
    for site in sorted(tracers):
        for index, event in enumerate(tracers[site].events(kind=kind)):
            event.attrs.setdefault("site", site)
            tagged.append((event.ts, site, index, event))
    tagged.sort(key=lambda item: item[:3])
    return [event for _ts, _site, _idx, event in tagged]


def _matches(event: TraceEvent, trace_id: str) -> bool:
    attrs = event.attrs
    if attrs.get("trace") == trace_id:
        return True
    # Downstream consumers: a merge (or child commit) whose causal parent
    # is the traced transaction belongs on its timeline.
    if attrs.get("parent") == trace_id:
        return True
    parents = attrs.get("parents")
    if parents and trace_id in parents:
        # merge events list their parents' trace-id strings
        return True
    return False


def causal_timeline(
    events: Iterable[TraceEvent], trace_id: str
) -> List[TraceEvent]:
    """The causally ordered slice of ``events`` involving ``trace_id``.

    Includes events stamped with the trace id itself (commit, send,
    apply, fetch, drop) and immediate downstream consumers — merge or
    commit events whose causal parent is the traced transaction — so the
    printed timeline reads commit → replicate → apply → merge. ``events``
    must already be time-ordered (see :func:`merge_events`).
    """
    return [e for e in events if _matches(e, trace_id)]


def format_timeline(
    timeline: List[TraceEvent], trace_id: str, sites: int = 0
) -> str:
    """Human-readable rendering of one transaction's multi-site timeline."""
    seen_sites = {e.attrs.get("site") for e in timeline} - {None}
    lines = [
        "trace %s: %d events across %d site%s"
        % (
            trace_id,
            len(timeline),
            len(seen_sites) or sites,
            "s" if (len(seen_sites) or sites) != 1 else "",
        )
    ]
    for event in timeline:
        attrs = dict(event.attrs)
        site = attrs.pop("site", "?")
        attrs.pop("trace", None)
        rendered = " ".join("%s=%s" % kv for kv in sorted(attrs.items()))
        lines.append(
            "  %10.3fms  %-6s %-14s %s" % (event.ts, site, event.kind, rendered)
        )
    return "\n".join(lines)
