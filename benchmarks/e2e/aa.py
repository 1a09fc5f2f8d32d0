"""A/A: run the same code in two interleaved sets and hold them to the bounds.

    python3 benchmarks/e2e/aa.py --sets 2 --runs 5

Runs the untraced benchmark ``2 x runs`` times, each run with its own seed,
dealing runs to the sets in turn (X, Y, X, Y, ...) so that slow drift of
the box lands on both. For every workload x end-to-end metric it prints
each set's median and quartiles, how far the set medians disagree, the
quartile spread of all runs together (what the driver holds against the
bound) beside the spread of the same runs as measured, before scaling, and
PASS/FAIL against the bound in ``BENCHMARK.json``. This is how the bounds
were chosen; the README carries the table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List

import harness
import run as bench


#: seed of the first run; run ``i`` uses ``FIRST_SEED + i``.
FIRST_SEED = 100


def _quartiles(values: List[float]) -> str:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return "%.4g..%.4g" % (q1, q3)


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2, choices=(2,), help="always two: X and Y")
    parser.add_argument("--runs", type=int, default=5, help="runs per set (at least 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs per set")

    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]
    names = [w["name"] for w in benchmark["workloads"]]
    sys.path.insert(0, harness.SRC_DIR)
    harness.raise_on_sigterm()
    harness.pin_to_one_cpu()

    # values[workload][metric][set] -> list over runs; unscaled likewise, unsplit
    values: Dict[str, Dict[str, List[List[float]]]] = {
        name: {m["name"]: [[], []] for m in metrics} for name in names
    }
    unscaled: Dict[str, Dict[str, List[float]]] = {
        name: {m["name"]: [] for m in metrics} for name in names
    }
    correct = True
    print("run set seed workload         segments steal_share ref_kernel_ms slowdown txn_per_s correct")
    for index in range(2 * args.runs):
        which = index % 2
        for name in names:
            result = bench.run_workload(name, FIRST_SEED + index, seconds, trace=False, smoke=False)
            correct = correct and result["correct"]
            for m in metrics:
                value = result["metrics"][m["name"]]
                values[name][m["name"]][which].append(value)
                unscaled[name][m["name"]].append(result["as_measured"].get(m["name"], value))
            print(
                "%3d %3s %4d %-17s %7d %11.4f %13.3f %8.2f %9.1f %s"
                % (
                    index, "XY"[which], FIRST_SEED + index, name, result["segments"],
                    result["env"]["steal_share"], result["env"]["ref_kernel_ms"],
                    result["env"]["slowdown"], result["metrics"]["txn_per_s"], result["correct"],
                ),
                flush=True,
            )

    failed = not correct
    print()
    print(
        "%-17s %-15s %10s %22s %10s %22s %8s %8s %8s %6s  %s"
        % ("workload", "metric", "median X", "quartiles X", "median Y", "quartiles Y",
           "disagree", "spread", "unscaled", "bound", "verdict")
    )
    for name in names:
        for m in metrics:
            sets = values[name][m["name"]]
            medians = [statistics.median(s) for s in sets]
            # Y against X, signed so that worse is positive
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            spread = harness.quartile_spread(sets[0] + sets[1])
            ok = abs(worse) <= m["bound"] and (m["name"] == "setup_s" or spread <= m["bound"])
            noisy = [
                "XY"[i] for i, s in enumerate(sets) if harness.quartile_spread(s) > 0.1
            ]
            verdict = "PASS" if ok else "FAIL"
            if noisy:
                verdict += " (set %s spread > 10%% of median)" % ",".join(noisy)
            failed = failed or not ok
            print(
                "%-17s %-15s %10.5g %22s %10.5g %22s %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s"
                % (
                    name, m["name"], medians[0], _quartiles(sets[0]), medians[1],
                    _quartiles(sets[1]), 100 * worse, 100 * spread,
                    100 * harness.quartile_spread(unscaled[name][m["name"]]),
                    100 * m["bound"], verdict,
                )
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
