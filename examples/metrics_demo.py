#!/usr/bin/env python
"""Observability walkthrough: metrics, the store's rows, exporters.

Shows the full loop in under a minute:

1. turn on the store's registry and its recorder and run conflicting
   transactions;
2. watch branch counters (forks, merges) and histograms accumulate;
3. count one window as two reads of the registry differenced;
4. render everything as Prometheus text and JSON;
5. replay the recent branch rows (commit, fork, merge) as a story.

Run:  python examples/metrics_demo.py
"""

from repro import TardisStore
from repro.obs import export, format_row


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
    store = TardisStore("demo")
    registry = store.registry  # the store's own, off until turned on
    registry.enabled = True
    store.recorder.enabled = True
    sessions = [store.session("s%d" % i) for i in range(3)]
    store.put("hits", 0, session=sessions[0])

    # -- 1+2: work, then read the registry --------------------------------
    contended_increments(store, sessions, rounds=4)
    print("hits =", store.get("hits", session=sessions[0]))
    data = registry.to_dict()
    print("commits:", data["tardis_txn_commit_total"]["value"])
    print("forks:  ", data["tardis_branch_fork_total"]["value"])
    print("merges: ", data["tardis_branch_merge_total"]["value"])
    fanin = registry.histogram("tardis_merge_parents")
    print("merge fan-in p50=%.1f max=%.0f" % (fanin.p50, fanin.max))

    # -- 3: a window is two reads differenced --------------------------------
    names = ("tardis_txn_commit_total", "tardis_branch_merge_total")
    before = {name: registry.counter_value(name) for name in names}
    contended_increments(store, sessions, rounds=2)
    window = {name: registry.counter_value(name) - before[name] for name in names}
    print("\nlast window only: %d commits, %d merges" % (
        window["tardis_txn_commit_total"],
        window["tardis_branch_merge_total"],
    ))

    # -- 4: exporters ------------------------------------------------------
    prom = export.to_prometheus(registry)
    print("\nPrometheus text (first lines):")
    print("\n".join(prom.splitlines()[:6]))
    doc = export.to_json(registry, store.recorder, event_limit=5, indent=None)
    print("\nJSON document: %d chars" % len(doc))

    # -- 5: the rows as a story --------------------------------------------
    print("\nrecent branch rows:")
    for row in store.recorder.rows()[-8:]:
        print("  " + format_row(row))


if __name__ == "__main__":
    main()
