"""Trace ids and causal timeline reconstruction across replicas.

A trace id is a state id: ``repr(StateId)``, e.g. ``s14@us``. State ids
are globally unique and replication carries them unchanged (§6.4), so the
id of the state a transaction committed *is* its distributed trace id —
no id allocator and no context object travel with the transaction. Each
emitter writes a branch row whose ``txn`` is the trace id of the state it
is about and whose ``parent`` is its first parent's (None for a root),
from ids it already holds. The one row whose ids are not its own state's
is ``repl.fetch``: a fetch is charged to the transaction waiting on it,
so the fetch request carries that transaction's state id and first
parent, and the fetched state goes in ``ref``.

Because every site records the same ids, the recorders of N sites merge
back into one causally ordered timeline: commit at the origin →
replicate → apply at each peer → merge.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.tracing import Recorder

__all__ = [
    "trace_id_of",
    "merge_events",
    "causal_timeline",
    "format_row",
    "format_timeline",
]


def trace_id_of(state_id: Any) -> str:
    """The trace id of the commit that created ``state_id``."""
    return repr(state_id)


# -- timeline reconstruction -------------------------------------------------


def merge_events(
    recorders: Dict[str, Recorder], kind: Optional[str] = None
) -> List[Dict[str, Any]]:
    """Merge per-site recorders into one stream of rows ordered by time.

    Each row is tagged with its recorder's key as ``site``; ``kind``
    (``"layer.name"``) keeps only rows of that kind. Ties (same time —
    common under the discrete-event clock) break by site name and then
    by ``seq``, so the merged stream is deterministic.
    """
    merged = []
    for site in sorted(recorders):
        for row in recorders[site].rows():
            if kind is None or "%s.%s" % (row["layer"], row["name"]) == kind:
                row["site"] = site
                merged.append(row)
    merged.sort(key=lambda row: row["t_start"])  # stable: site, seq kept
    return merged


def _matches(row: Dict[str, Any], trace_id: str) -> bool:
    # Downstream consumers — a merge (or child commit) whose causal
    # parent is the traced transaction — belong on its timeline; a merge
    # names its parents after the first in ``ref``.
    return (
        row["txn"] == trace_id
        or row["parent"] == trace_id
        or (row["layer"] == "branch" and row["name"] == "merge" and trace_id in row["ref"])
    )


def causal_timeline(
    rows: Iterable[Dict[str, Any]], trace_id: str
) -> List[Dict[str, Any]]:
    """The causally ordered slice of ``rows`` involving ``trace_id``.

    Includes rows of the trace id itself (commit, send, apply, fetch,
    drop) and immediate downstream consumers — merge or commit rows whose
    causal parent is the traced transaction — so the printed timeline
    reads commit → replicate → apply → merge. ``rows`` must already be
    time-ordered (see :func:`merge_events`).
    """
    return [row for row in rows if _matches(row, trace_id)]


def format_row(row: Dict[str, Any]) -> str:
    """One row as ``layer.name txn parent=… n=…`` (and ``ref=…``)."""
    ref = row["ref"]
    if isinstance(ref, tuple):
        ref = ",".join(ref)
    return "%-14s %s parent=%s n=%s%s" % (
        "%s.%s" % (row["layer"], row["name"]),
        row["txn"],
        row["parent"],
        row["n"],
        "" if ref is None else " ref=%s" % ref,
    )


def format_timeline(
    timeline: List[Dict[str, Any]], trace_id: str, sites: int = 0
) -> str:
    """Human-readable rendering of one transaction's multi-site timeline."""
    seen = len({row.get("site") for row in timeline} - {None}) or sites
    lines = [
        "trace %s: %d events across %d site%s"
        % (trace_id, len(timeline), seen, "s" if seen != 1 else "")
    ]
    for row in timeline:
        lines.append(
            "  %10.3fms  %-6s %s" % (row["t_start"], row.get("site", "?"), format_row(row))
        )
    return "\n".join(lines)
