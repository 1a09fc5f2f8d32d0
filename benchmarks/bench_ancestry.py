"""Ancestry-encoding microbenchmark: frozenset vs bitmask subset test.

The whole premise of fork paths (§6.1.3, Figure 7) is that the per-read
ancestry check is cheap. This benchmark measures exactly that check at
fork-path sizes 1, 8, and 64 in both representations:

* **set** — the original representation: a per-probe ``frozenset``
  ``<=`` comparison of fork points, with its hashing and allocation;
* **bitmask** — the interned-ancestry encoding the DAG now uses
  (``x_mask & y_mask == x_mask`` on plain ints).

Each size times the same mixed pool of (subset, non-subset) pairs so
branch prediction cannot trivialize either arm. The headline metric is
``speedup_<size>`` (set time / bitmask time); the acceptance floor is
3× at size 64, asserted by the pytest wrapper and the CI smoke step.
Results land in ``BENCH_ancestry.json``.
"""

import random
import time

from repro.core.ancestry import AncestryIndex, ForkPoint
from repro.core.ids import StateId

from common import Report

PATH_SIZES = [1, 8, 64]
N_PAIRS = 200
ROUNDS = 200
#: acceptance floor: bitmask must beat frozenset by this factor at the
#: largest path size (ISSUE 2 acceptance criterion).
MIN_SPEEDUP_AT_64 = 3.0


def _make_pairs(size: int, rng: random.Random):
    """Build (x, y) fork-path pairs, roughly half true subsets.

    Points are drawn from a universe twice the path size, so non-subset
    pairs still overlap heavily — the realistic (and for the set arm,
    expensive) case of close siblings sharing most of their history.
    """
    index = AncestryIndex()
    universe = [
        ForkPoint(StateId(i + 1, "A"), b) for i in range(size * 2) for b in (0, 1)
    ]
    pairs = []
    for i in range(N_PAIRS):
        y_points = rng.sample(universe, min(size, len(universe)))
        if i % 2 == 0 and size > 1:
            x_points = rng.sample(y_points, max(1, size // 2))  # subset
        else:
            x_points = rng.sample(universe, min(size, len(universe)))
        x_set, y_set = frozenset(x_points), frozenset(y_points)
        x_mask, y_mask = index.mask_of(x_points), index.mask_of(y_points)
        pairs.append((x_set, y_set, x_mask, y_mask))
    return pairs


def _time_set(pairs) -> float:
    start = time.perf_counter()
    acc = 0
    for _ in range(ROUNDS):
        for x_set, y_set, _xm, _ym in pairs:
            if x_set <= y_set:
                acc += 1
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return elapsed


def _time_mask(pairs) -> float:
    start = time.perf_counter()
    acc = 0
    for _ in range(ROUNDS):
        for _xs, _ys, x_mask, y_mask in pairs:
            if x_mask & y_mask == x_mask:
                acc += 1
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return elapsed


def run_bench() -> dict:
    rng = random.Random(42)
    report = Report(
        "ancestry",
        "Ancestry encoding: frozenset vs bitmask descendant_check",
        config={
            "path_sizes": PATH_SIZES,
            "n_pairs": N_PAIRS,
            "rounds": ROUNDS,
        },
    )
    checks = N_PAIRS * ROUNDS
    rows = []
    for size in PATH_SIZES:
        pairs = _make_pairs(size, rng)
        # Interleave arms and keep minima: least noise-contaminated.
        set_s = min(_time_set(pairs) for _ in range(3))
        mask_s = min(_time_mask(pairs) for _ in range(3))
        # Sanity: both representations agree on every pair.
        for x_set, y_set, x_mask, y_mask in pairs:
            assert (x_set <= y_set) == (x_mask & y_mask == x_mask)
        speedup = set_s / mask_s if mask_s else float("inf")
        report.metric("set_us_%d" % size, 1e6 * set_s / checks)
        report.metric("mask_us_%d" % size, 1e6 * mask_s / checks)
        report.metric("speedup_%d" % size, speedup)
        rows.append(
            [
                size,
                "%.4f" % (1e6 * set_s / checks),
                "%.4f" % (1e6 * mask_s / checks),
                "%.1fx" % speedup,
            ]
        )
    report.table(["size", "set us/check", "mask us/check", "speedup"], rows)
    report.finish()
    return report.metrics


def test_bitmask_speedup():
    """Pytest wrapper: the ISSUE 2 acceptance floor at path size 64."""
    metrics = run_bench()
    assert metrics["speedup_64"] >= MIN_SPEEDUP_AT_64, metrics


if __name__ == "__main__":
    run_bench()
