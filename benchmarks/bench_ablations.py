"""Ablations for DESIGN.md's called-out design choices.

1. Fork-path subset checking (§6.1.3) versus the traditional
   graph-walk ancestor check it replaces — real wall-clock time of the
   two visibility tests on an identical branched DAG. This quantifies
   the claim that summarizing branches by fork points beats dependency
   tracking.
2. K-Branching (§5.1): sweeping k trades the performance of
   branch-on-conflict against the number of branches a merge must
   reconcile.
"""

import random

import pytest

from repro.core.constraints import (
    AncestorConstraint,
    KBranchingConstraint,
    SerializabilityConstraint,
)
from repro.core.state_dag import StateDAG
from repro.sim.adapters import TardisAdapter
from repro.workload import WRITE_HEAVY, YCSBWorkload, run_simulation

from common import N_KEYS, Report, config


def build_branched_dag(n_states=2000, fork_prob=0.08, seed=7):
    rng = random.Random(seed)
    dag = StateDAG("bench")
    states = [dag.root]
    tip = dag.root
    for _ in range(n_states):
        parent = rng.choice(states[-40:]) if rng.random() < fork_prob else tip
        tip = dag.create_state([parent])
        states.append(tip)
    return dag, states


@pytest.fixture(scope="module")
def branched_dag():
    return build_branched_dag()


@pytest.mark.benchmark(group="ablation-forkpath")
def test_ablation_forkpath_subset_check(benchmark, branched_dag):
    dag, states = branched_dag
    rng = random.Random(3)
    pairs = [(rng.choice(states), rng.choice(states)) for _ in range(300)]

    def run():
        return sum(dag.descendant_check(x, y) for x, y in pairs)

    result = benchmark(run)
    assert result >= 0


@pytest.mark.benchmark(group="ablation-forkpath")
def test_ablation_graph_walk_check(benchmark, branched_dag):
    dag, states = branched_dag
    rng = random.Random(3)
    pairs = [(rng.choice(states), rng.choice(states)) for _ in range(300)]

    def run():
        return sum(dag.ancestor_walk_check(x, y) for x, y in pairs)

    result = benchmark(run)
    assert result >= 0


def test_forkpath_agrees_with_walk(branched_dag):
    dag, states = branched_dag
    rng = random.Random(5)
    for _ in range(300):
        x, y = rng.choice(states), rng.choice(states)
        assert dag.descendant_check(x, y) == dag.ancestor_walk_check(x, y)


@pytest.mark.benchmark(group="ablation-kbranching")
def test_ablation_kbranching_sweep(benchmark):
    def _measure():
        results = {}
        for k in (2, 3, 5, 9):
            adapter = TardisAdapter(
                begin_constraint=AncestorConstraint(),
                end_constraint=SerializabilityConstraint() & KBranchingConstraint(k),
            )
            results[k] = run_simulation(
                adapter,
                YCSBWorkload(mix=WRITE_HEAVY, n_keys=N_KEYS, read_modify_write=True),
                config(n_clients=16),
            )
        return results

    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    report = Report("ablation_kbranching", "Ablation: K-Branching degree vs throughput")
    rows = [
        [
            "k=%d" % k,
            "%8.0f" % r.throughput_tps,
            "%6d" % r.aborts,
            "%5d" % r.adapter_stats.get("forks", 0),
        ]
        for k, r in results.items()
    ]
    report.table(["k", "tput(txn/s)", "aborts", "forks"], rows, widths=[8, 13, 9, 8])
    report.line()
    report.line("k=2 is NoBranching (abort on conflict); larger k buys throughput")
    report.line("at the cost of more concurrent branches to merge.")
    for k, r in results.items():
        report.metric(
            "k%d" % k,
            {
                "throughput_tps": r.throughput_tps,
                "aborts": r.aborts,
                "forks": r.adapter_stats.get("forks", 0),
            },
        )
    report.finish()
    # More allowed branching -> fewer aborts and at least as much tput.
    assert results[9].aborts < results[2].aborts
    assert results[9].throughput_tps > results[2].throughput_tps
