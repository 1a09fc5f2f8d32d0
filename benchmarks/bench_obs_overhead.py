"""Observability overhead A/B: fully instrumented vs flag-check-only runs.

Two arms of the identical simulation (same seed, same workload, same
duration): arm A runs with everything off — ``collect_metrics=False``,
no tracer, no divergence monitor — so every instrumentation site
reduces to one ``enabled`` attribute check; arm B runs the *full*
observability stack: per-run metrics registry, an enabled trace-event
ring buffer (every commit's events stamped with its trace ids), and the
windowed divergence series sampled every 5 simulated ms. Because none
of that charges *simulated* cost, the two arms must produce
bit-identical simulated results — that is the correctness assertion.
The interesting number is the wall-clock delta, which is the real price
of the subsystem; the design target (and the CI gate) is <10%.

Wall-clock ratios on a shared CI box are noisy, and the noise is
one-sided: thermal throttling, frequency scaling, and neighbour
preemption only ever make a run *slower*, in windows that persist for
many seconds. The estimator is therefore timeit-style **interleaved
min-of-N**: the two arms alternate for ``ROUNDS`` rounds — so both
sample the same thermal history — and each arm is summarized by its
*minimum* wall time, which approximates the uninterfered run. Runs are
kept short (60 simulated ms ≈ under a second of wall time) because the
slow windows last several seconds: a short run has a real chance of
landing entirely inside a clean window, where a multi-second run
almost never does, and the overhead *ratio* is duration-independent. (Paired
per-round ratios and block designs were tried first; with minute-long
correlated slow windows they read anywhere from +0.5% to +22% for
identical code, while interleaved minima reproduce within ~2 points.)
``gc.collect()`` runs before every timed region so a run is never
charged for collecting the previous arm's garbage. The in-test hard
assertion is deliberately loose (no false failures); the min-ratio
estimate is persisted in ``BENCH_obs_overhead.json`` and CI enforces
the 10% gate on it.

Beside the wall estimate, ``calls_overhead_pct`` counts what the
instrumented arm adds: one ``sys.setprofile`` pass per arm, outside the
timed rounds, counts every Python and C call of one run. The count is
deterministic (a fixed-seed simulation), so it resolves what a
wall-clock ratio on a shared box cannot, and ``calls_added_by_file``
says where the added calls go: a Python call is charged to the file of
the called function, a C call (``[C]``) to the file it was called from.
"""

import collections
import gc
import json
import os
import sys
import sysconfig
import time

import pytest

from repro.client.client import TardisClient
from repro.server.server import TardisServer
from repro.sim.adapters import TardisAdapter
from repro.workload import WRITE_HEAVY, YCSBWorkload, run_simulation

from common import N_KEYS, REPO_ROOT, Report, config, run_once, write_bench_json

ROUNDS = 14

#: rounds / ops-per-round for the live-sampler arm (real sockets are
#: slower per op than the simulator, so fewer, larger rounds).
LIVE_ROUNDS = 10
LIVE_OPS = 150


def _run(instrumented: bool):
    cfg = config(n_clients=16, duration_ms=60.0)
    cfg.collect_metrics = instrumented
    cfg.series_interval_ms = 5.0 if instrumented else None
    adapter = TardisAdapter(branching=True)
    workload = YCSBWorkload(mix=WRITE_HEAVY, n_keys=N_KEYS)
    recorder = adapter.store.recorder
    recorder.enabled = instrumented
    gc.collect()  # don't charge this run for the previous run's garbage
    start = time.perf_counter()
    result = run_simulation(adapter, workload, cfg)
    wall_s = time.perf_counter() - start
    return result, wall_s, recorder


def _measure():
    """Interleaved min-of-N (see module docstring): alternate the arms
    for ROUNDS rounds, summarize each by its minimum wall time."""
    walls = {False: [], True: []}
    results = {}
    tracers = {}
    _run(False)  # warm-up: imports, code objects, allocator pools
    for _ in range(ROUNDS):
        for instrumented in (False, True):
            result, wall_s, tracer = _run(instrumented)
            results[instrumented] = result
            tracers[instrumented] = tracer
            walls[instrumented].append(wall_s)
    minima = {arm: min(times) for arm, times in walls.items()}
    overhead = minima[True] / minima[False] - 1.0
    return results, minima, tracers, overhead


#: files listed in ``calls_added_by_file``, the largest additions first.
CALL_FILES = 12


#: where a counted file is named from: this checkout, then the stdlib.
_ROOTS = (REPO_ROOT, sysconfig.get_paths()["stdlib"])


def _where(path: str) -> str:
    for root in _ROOTS:
        if path.startswith(root + os.sep):
            return os.path.relpath(path, root)
    return path


def _count_calls(instrumented: bool) -> collections.Counter:
    """The Python and C calls of one ``_run`` of an arm, by source file."""
    calls: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename] += 1
        elif event == "c_call":
            calls[frame.f_code.co_filename + " [C]"] += 1

    sys.setprofile(profile)
    try:
        _run(instrumented)
    finally:
        sys.setprofile(None)
    return collections.Counter({_where(path): n for path, n in calls.items()})


def _call_overhead():
    """``(calls off, calls on, {file: calls added})`` over one run per arm."""
    off, on = _count_calls(False), _count_calls(True)
    added = {path: on[path] - off[path] for path in on.keys() | off.keys()}
    top = sorted(added.items(), key=lambda item: -abs(item[1]))[:CALL_FILES]
    return sum(off.values()), sum(on.values()), dict(top)


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_overhead(benchmark):
    results, walls, tracers, overhead = run_once(benchmark, _measure)
    calls_off, calls_on, calls_added = _call_overhead()
    calls_overhead = calls_on / calls_off - 1.0
    off, on = results[False], results[True]
    tracer = tracers[True]

    report = Report(
        "obs_overhead", "Observability overhead: tracing+monitoring on vs off"
    )
    report.table(
        ["arm", "sim tput(txn/s)", "sim p99(ms)", "wall(s)"],
        [
            ["all off", "%8.0f" % off.throughput_tps,
             "%6.3f" % off.p99_latency_ms, "%.3f" % walls[False]],
            ["full obs", "%8.0f" % on.throughput_tps,
             "%6.3f" % on.p99_latency_ms, "%.3f" % walls[True]],
        ],
        widths=[14, 17, 13, 10],
    )
    report.line()
    report.line(
        "wall-clock overhead: %+.1f%% — interleaved min-of-%d per arm"
        % (100 * overhead, ROUNDS)
    )
    report.line("(CI gate <10%; simulated results are identical by")
    report.line("construction — recording is free in simulated time, so")
    report.line("only the host pays)")
    report.line()
    report.line(
        "call overhead: %+.2f%% (%d calls off, %d on; one profiled run per arm)"
        % (100 * calls_overhead, calls_off, calls_on)
    )
    for path, added in calls_added.items():
        report.line("  %+9d  %s" % (added, path))
    report.metric("wall_overhead_pct", 100 * overhead)
    report.metric("calls_overhead_pct", 100 * calls_overhead)
    report.metric("calls_off", calls_off)
    report.metric("calls_on", calls_on)
    report.metric("calls_added_by_file", calls_added)
    report.metric("wall_s_off", walls[False])
    report.metric("wall_s_on", walls[True])
    report.metric("sim_tput_off", off.throughput_tps)
    report.metric("sim_tput_on", on.throughput_tps)
    report.metric("metrics_recorded", len(on.obs_metrics))
    report.metric("trace_events", len(tracer))
    report.metric("trace_dropped", tracer.dropped)
    report.finish()

    # Correctness: the full stack must not perturb the simulation.
    assert on.throughput_tps == off.throughput_tps
    assert on.commits == off.commits
    assert on.p99_latency_ms == off.p99_latency_ms
    # The enabled arm actually recorded all three layers.
    assert on.obs_metrics["tardis_txn_commit_total"]["value"] > 0
    assert len(tracer) > 0
    assert any(
        data.get("type") == "series" and data["samples"]
        for data in on.obs_metrics.values()
    )
    assert off.obs_metrics == {}
    # Loose wall-clock bound: catches pathological regressions (e.g. a
    # per-sample list sneaking back in) without CI-noise flakiness; the
    # strict 10% gate runs on BENCH_obs_overhead.json in CI.
    assert overhead < 0.5


# ---------------------------------------------------------------------------
# Live arm: the network server as ``tardis serve --obs-interval --metrics``
# runs it (the wall-clock ObsSampler of docs/internals.md §14, and the
# metrics registry, which also turns on the server's request rows) vs a
# plain server, same interleaved min-of-N estimator. Both share the store
# thread with request handlers, so their whole cost shows up as request
# latency — exactly what this measures. The registry is the hot server's
# store's own, so it is on for the hot arm only.


def _drive(client: TardisClient, ops: int) -> float:
    gc.collect()
    start = time.perf_counter()
    for i in range(ops):
        key = "k%d" % (i % 32)
        if i % 3 == 2:
            client.get(key)
        else:
            client.put(key, i)
    return time.perf_counter() - start


def _measure_live():
    cold = TardisServer(site="bench-cold").start()
    hot = TardisServer(site="bench-hot", obs_sample_interval=0.05)
    hot.store.registry.enabled = True  # as ``tardis serve --metrics`` does
    hot.start()
    try:
        clients = {
            False: TardisClient(port=cold.port),
            True: TardisClient(port=hot.port),
        }
        walls = {False: [], True: []}
        _drive(clients[False], LIVE_OPS)  # warm-up both paths
        _drive(clients[True], LIVE_OPS)
        for _ in range(LIVE_ROUNDS):
            for live in (False, True):
                walls[live].append(_drive(clients[live], LIVE_OPS))
        for client in clients.values():
            client.close()
    finally:
        report_cold = cold.shutdown()
        report_hot = hot.shutdown()
    minima = {arm: min(times) for arm, times in walls.items()}
    overhead = minima[True] / minima[False] - 1.0
    return minima, overhead, report_cold, report_hot, hot.store.recorder.seq, cold.store.recorder.seq


@pytest.mark.benchmark(group="obs-overhead")
def test_obs_live_sampler_overhead(benchmark):
    minima, overhead, report_cold, report_hot, rows_hot, rows_cold = run_once(
        benchmark, _measure_live
    )

    report = Report(
        "obs_overhead_live",
        "Live ops plane overhead: sampler and request rows on vs off (network server)",
    )
    report.table(
        ["arm", "wall(s)/round", "server commits", "rows"],
        [
            ["all off", "%.3f" % minima[False], str(report_cold["commits"]), str(rows_cold)],
            ["sampler+rows", "%.3f" % minima[True], str(report_hot["commits"]), str(rows_hot)],
        ],
        widths=[14, 16, 16, 8],
    )
    report.line()
    report.line(
        "live wall overhead: %+.1f%% — interleaved min-of-%d, %d ops/round"
        % (100 * overhead, LIVE_ROUNDS, LIVE_OPS)
    )
    report.line("(CI gate <10% on live_wall_overhead_pct in BENCH_obs_overhead.json)")
    report.finish()

    # The gate artifact is BENCH_obs_overhead.json: merge the live-arm
    # numbers into it rather than clobbering the A/B arm's metrics
    # (Report.finish overwrites whole files; this test may run alone).
    bench_path = os.path.join(REPO_ROOT, "BENCH_obs_overhead.json")
    merged = {}
    if os.path.exists(bench_path):
        with open(bench_path) as handle:
            merged = json.load(handle).get("metrics", {})
    merged["live_wall_overhead_pct"] = 100 * overhead
    merged["live_wall_s_off"] = minima[False]
    merged["live_wall_s_on"] = minima[True]
    merged["live_sampler_samples"] = report_hot["obs_samples"]
    merged["live_rows"] = rows_hot
    if os.environ.get("TARDIS_BENCH_JSON", "1") != "0":
        write_bench_json("obs_overhead", merged)

    # The sampler ran and the rows were recorded on the hot server only,
    # and both servers drained clean.
    assert report_hot["obs_samples"] > 0
    assert report_cold["obs_samples"] == 0
    assert rows_hot > 0 and rows_cold == 0
    assert report_cold["leaked_sessions"] == []
    assert report_hot["leaked_sessions"] == []
    # Loose in-test bound (CI enforces the strict 10% on the artifact).
    assert overhead < 0.5
