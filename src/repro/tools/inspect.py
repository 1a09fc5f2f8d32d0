"""Introspection helpers: render the State DAG, summarize a store.

``dag_to_dot`` emits Graphviz DOT text for the current State DAG —
fork points, merge states, leaves, and ceiling-marked states are styled
so branch structure is readable at a glance. No graphviz dependency:
the output is plain text for any renderer.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.store import TardisStore


def _dot_id(state_id) -> str:
    return '"%d@%s"' % (state_id.counter, state_id.site or "root")


def dag_to_dot(
    store: TardisStore,
    show_writes: bool = True,
    max_label_keys: int = 3,
) -> str:
    """Graphviz DOT rendering of the store's State DAG."""
    lines = [
        "digraph tardis {",
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fillcolor=white, '
        'fontname="monospace", fontsize=10];',
    ]
    # A concurrent commit or GC cycle changes the DAG.
    with store._lock:
        for state in sorted(store.dag.states(), key=lambda s: s.id):
            label = repr(state.id)
            if show_writes and state.write_keys:
                keys = sorted(map(str, state.write_keys))
                shown = ",".join(keys[:max_label_keys])
                if len(keys) > max_label_keys:
                    shown += ",..."
                label += "\\n{%s}" % shown
            attrs = ['label="%s"' % label]
            if state.is_leaf:
                attrs.append("fillcolor=palegreen")
            if state.is_fork_point:
                attrs.append("fillcolor=lightblue")
                attrs.append("penwidth=2")
            if state.is_merge:
                attrs.append("fillcolor=khaki")
            if state.marked:
                attrs.append("fontcolor=gray40")
                attrs.append("style=\"rounded,filled,dashed\"")
            lines.append("  %s [%s];" % (_dot_id(state.id), ", ".join(attrs)))
        for state in store.dag.states():
            seen = set()
            for child in state.children:
                if id(child) in seen:
                    continue
                seen.add(id(child))
                lines.append("  %s -> %s;" % (_dot_id(state.id), _dot_id(child.id)))
    lines.append("}")
    return "\n".join(lines)


def store_summary(store: TardisStore) -> Dict[str, object]:
    """A metrics snapshot suitable for logging or JSON."""
    dag = store.dag
    with store._lock:  # a concurrent commit or GC cycle changes the DAG
        return {
            "site": store.site,
            "states": len(dag),
            "leaves": len(dag.leaves()),
            "fork_points": dag.num_forks(),
            "promotions": dag.promotion_table_size,
            "keys": store.versions.num_keys(),
            "records": store.versions.num_records(),
            "commits": store.metrics.commits,
            "read_only_commits": store.metrics.read_only_commits,
            "aborts": store.metrics.aborts,
            "forks": store.metrics.forks,
            "merges": store.metrics.merges,
            "remote_applied": store.metrics.remote_applied,
            "sessions": len(store.sessions()),
            "gc_cycles": store.gc.cycles,
        }


def describe_store(store: TardisStore, keys: Optional[List] = None) -> str:
    """Human-readable report: summary plus per-branch key values."""
    summary = store_summary(store)
    lines = ["TARDiS store @ site %r" % store.site, "-" * 40]
    for name, value in summary.items():
        if name == "site":
            continue
        lines.append("  %-18s %s" % (name, value))
    lines.append("")
    lines.append("branches (leaves, newest first):")
    with store._lock:
        for leaf in store.dag.leaves():
            points = sorted(store.dag.ancestry.points_of(leaf.path_mask))
            lines.append("  %r  path={%s}" % (leaf.id, "".join(map(repr, points))))
            for key in keys or []:
                hit = store.versions.read_visible(key, leaf, store.dag)
                lines.append(
                    "      %-16r = %r" % (key, None if hit is None else hit[1])
                )
    return "\n".join(lines)
