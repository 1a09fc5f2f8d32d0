#!/usr/bin/env python
"""Observability walkthrough: metrics, tracing, exporters.

Shows the full loop in under a minute:

1. install a registry + tracer and run conflicting transactions;
2. watch branch counters (forks, merges) and histograms accumulate;
3. count one window on its own registry — per-window counters;
4. render everything as Prometheus text and JSON;
5. replay the recent trace events (fork, merge, GC) as a story.

Run:  python examples/metrics_demo.py
"""

from repro import TardisStore
from repro.obs import (
    MetricsRegistry,
    Tracer,
    export,
    metrics as met,
    tracing as trc,
)


def contended_increments(store, sessions, rounds: int) -> None:
    """Concurrent read-modify-writes on one hot key: forks, then merges."""
    for _ in range(rounds):
        txns = [store.begin(session=s) for s in sessions]
        for txn in txns:
            txn.put("hits", txn.get("hits") + 1)
        for txn in txns:
            txn.commit()  # later committers conflict -> branch
        merge = store.begin_merge(session=sessions[0])
        fork = merge.find_fork_points()[0]
        base = merge.get_for_id("hits", fork)
        merge.put("hits", base + sum(v - base for v in merge.get_all("hits")))
        merge.commit()


def main() -> None:
    registry = MetricsRegistry()
    tracer = Tracer(capacity=256)

    with met.use_registry(registry), trc.use_tracer(tracer):
        store = TardisStore("demo")
        sessions = [store.session("s%d" % i) for i in range(3)]
        store.put("hits", 0, session=sessions[0])

        # -- 1+2: work, then read the registry ----------------------------
        contended_increments(store, sessions, rounds=4)
        print("hits =", store.get("hits", session=sessions[0]))
        data = registry.to_dict()
        print("commits:", data["tardis_txn_commit_total"]["value"])
        print("forks:  ", data["tardis_branch_fork_total"]["value"])
        print("merges: ", data["tardis_branch_merge_total"]["value"])
        fanin = registry.histogram("tardis_merge_parents")
        print("merge fan-in p50=%.1f max=%.0f" % (fanin.p50, fanin.max))

        # -- 3: a window counts on a registry of its own -------------------
        with met.use_registry(MetricsRegistry()) as window:
            contended_increments(store, sessions, rounds=2)
        print("\nlast window only: %d commits, %d merges" % (
            window.counter_value("tardis_txn_commit_total"),
            window.counter_value("tardis_branch_merge_total"),
        ))

        # -- 4: exporters --------------------------------------------------
        prom = export.to_prometheus(registry)
        print("\nPrometheus text (first lines):")
        print("\n".join(prom.splitlines()[:6]))
        doc = export.to_json(registry, tracer, event_limit=5, indent=None)
        print("\nJSON document: %d chars" % len(doc))

        # -- 5: the event log as a story ----------------------------------
        print("\nrecent branch events:")
        for event in tracer.events(limit=8):
            attrs = " ".join(
                "%s=%s" % kv for kv in sorted(event.attrs.items())
                if kv[0] in ("state", "parent", "parents", "reason", "removed")
            )
            print("  %-14s %s" % (event.kind, attrs))

    # Outside the context managers the library defaults are restored:
    # the store records nothing further.
    assert not met.DEFAULT.enabled


if __name__ == "__main__":
    main()
