"""Ablations: conflict-tracking metadata (§3) and merge scaling (§6.2).

1. The paper claims summarizing branches by *fork points* keeps metadata
   small because "conflicts are a small percentage of the total number
   of operations" — unlike causal-consistency systems that track
   per-operation dependencies. Measured here: mean/max fork-path length
   versus history length versus what explicit dependency tracking would
   store (one entry per predecessor state).
2. Merge cost as a function of the number of divergent branches — the
   price of the K-Branching knob's upper end.
"""

import random

import pytest

from repro import TardisStore
from repro.core.ancestry import popcount
from repro.errors import TransactionAborted

from common import Report, run_once


def run_contended(n_rounds=100, n_sessions=6, n_keys=20, merge_every=20, seed=1):
    """Rounds of concurrent read-modify-writes with periodic merge+GC.

    Each round opens one transaction per session from the same frontier
    (guaranteeing conflicts on hot keys) and commits them all; every
    ``merge_every`` rounds the branches are merged, sessions re-anchor,
    and garbage collection runs — the paper's steady-state deployment.
    """
    rng = random.Random(seed)
    store = TardisStore("A")
    store.path_samples = []  # (mean, max) sampled right before each GC
    sessions = [store.session("s%d" % i) for i in range(n_sessions)]
    commits = 0
    for round_index in range(n_rounds):
        txns = [store.begin(session=s) for s in sessions]
        for txn in txns:
            key = "k%d" % rng.randrange(n_keys)
            txn.put(key, txn.get(key, default=0) + 1)
        for txn in txns:
            try:
                txn.commit()
                commits += 1
            except TransactionAborted:
                pass
        if round_index % merge_every == merge_every - 1:
            if len(store.dag.leaves()) > 1:
                merge = store.begin_merge(session=sessions[0])
                for key in merge.find_conflict_writes():
                    values = merge.get_all(key)
                    if values:
                        merge.put(key, max(values))
                merge.commit()
                commits += 1
                merged = store.dag.resolve(merge.commit_id)
                for session in sessions:
                    anchor = store.dag.resolve(session.last_commit_id)
                    if store.dag.descendant_check(anchor, merged):
                        session.last_commit_id = merge.commit_id
            lengths = [popcount(s.path_mask) for s in store.dag.states()]
            store.path_samples.append(
                (sum(lengths) / len(lengths), max(lengths))
            )
            for session in sessions:
                session.place_ceiling()
            store.collect_garbage()
    return store


@pytest.mark.benchmark(group="ablation-metadata")
def test_ablation_forkpath_metadata(benchmark):
    store = run_once(benchmark, run_contended)
    paths = [popcount(s.path_mask) for s in store.dag.states()]
    n_states = len(store.dag)
    commits = store.metrics.commits - store.metrics.merges
    forks = store.metrics.forks
    mean_path = sum(paths) / len(paths)
    max_path = max(paths)
    peak_mean = max(m for m, _x in store.path_samples)
    peak_max = max(x for _m, x in store.path_samples)
    # Explicit dependency tracking stores one entry per causal
    # predecessor: on average half the history per state.
    dependency_entries = commits / 2

    report = Report(
        "ablation_metadata",
        "Ablation: conflict tracking vs dependency tracking metadata (§3)",
    )
    report.table(
        ["metric", "value"],
        [
            ["committed txns", "%d" % commits],
            ["forks (conflicts)", "%d  (%.1f%% of commits)" % (forks, 100 * forks / commits)],
            ["live states (final)", "%d" % n_states],
            ["fork-path mean/max (steady state)", "%.2f / %d entries" % (peak_mean, peak_max)],
            ["fork-path mean/max (after GC)", "%.2f / %d entries" % (mean_path, max_path)],
            ["causal-dependency equivalent", "~%.0f entries/state" % dependency_entries],
        ],
        widths=[36, 36],
    )
    report.line()
    report.line("fork paths track only live conflicts (%.1f entries at steady"
                % peak_mean)
    report.line("state, scrubbed to %.1f after compression) while dependency"
                % mean_path)
    report.line("tracking would grow with history (~%.0f entries/state):"
                % dependency_entries)
    report.line("the metadata reduction conflict tracking buys (§3, §6.1.3).")
    report.metric("commits", commits)
    report.metric("forks", forks)
    report.metric("fork_path_mean_steady", peak_mean)
    report.metric("fork_path_max_steady", peak_max)
    report.metric("fork_path_mean_after_gc", mean_path)
    report.metric("dependency_entries_equivalent", dependency_entries)
    report.finish()

    assert peak_mean < 20
    assert peak_max < commits / 4
    assert dependency_entries > 10 * peak_mean


@pytest.mark.benchmark(group="ablation-merge")
def test_ablation_merge_scaling(benchmark):
    def _measure():
        import time

        results = []
        for branches in (2, 4, 8, 16):
            store = TardisStore("A")
            store.put("seed", 0)
            sessions = [store.session("s%d" % i) for i in range(branches)]
            txns = [store.begin(session=s) for s in sessions]
            for i, txn in enumerate(txns):
                txn.put("hot", txn.get("hot", default=0) + 1)
                txn.put("own%d" % i, i)
            for txn in txns:
                txn.commit()
            assert len(store.dag.leaves()) == branches
            start = time.perf_counter()
            merge = store.begin_merge(session=sessions[0])
            conflicts = merge.find_conflict_writes()
            forks = merge.find_fork_points()
            base = merge.get_for_id("hot", forks[0], default=0) if forks else 0
            merge.put("hot", base + sum(v - base for v in merge.get_all("hot")))
            merge.commit()
            elapsed_ms = (time.perf_counter() - start) * 1000
            results.append((branches, len(conflicts), elapsed_ms))
            # Correctness: all increments survive the n-way merge.
            assert store.get("hot") == branches
        return results

    results = run_once(benchmark, _measure)
    report = Report("ablation_merge", "Ablation: merge cost vs branch count")
    report.table(
        ["branches", "conflicting keys", "merge wall time (ms)"],
        [[str(b), str(c), "%.3f" % ms] for b, c, ms in results],
        widths=[10, 18, 22],
    )
    report.line()
    report.line("merging more branches costs more — the complexity K-Branching")
    report.line("lets applications bound (§5.1).")
    for b, c, ms in results:
        report.metric(
            "branches_%d" % b, {"conflict_keys": c, "merge_wall_ms": ms}
        )
    report.finish()
    assert all(c >= 1 for _b, c, _ms in results)
