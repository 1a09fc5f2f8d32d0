"""The end-to-end benchmark: four fixed-sequence workloads, one command.

    python3 benchmarks/e2e/run.py --workload wire_read --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--smoke]       # all four

Prints every metric by name with its unit, checks the outputs, and ends
with one JSON object ``{"correct", "attempted", "failed", "metrics"}`` on
the last line of stdout: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Exit code 1 when a check fails.

Each workload runs in fresh generator processes (this file re-executes
itself with ``--phase``): ``SETUP_RUNS`` times for ``setup_s``, the last
of which goes on to measure a fixed number of segments. README.md has the
definitions and the reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import harness

#: set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
SMOKE_SEGMENTS = 2
#: segments the traced pass replays, whatever ``--seconds`` says: its
#: counts must repeat exactly.
TRACE_SEGMENTS = 12
#: a measured pass that has taken this many times ``--seconds`` stops at
#: the next segment boundary (never before ``MIN_SEGMENTS``): the driver's
#: budget is wall-clock and this box can run at half speed for an hour.
DEADLINE_FACTOR = 1.3
MIN_SEGMENTS = 8


# -- the generator process (one phase of one workload) ----------------------------


def _measure(workload: Any, args: argparse.Namespace, tracer: Any) -> Dict[str, Any]:
    """Run ``args.segments`` segments (fewer only past the deadline); verify."""
    import workloads as wl

    spec = workload.spec
    clock = time.perf_counter
    ref = workload.ref
    meter = harness.CpuMeter(workload.other_pids())
    obs_before = workload.obs_snapshot() if (workload.wire and tracer is not None) else None
    ticks_before = harness.cpu_ticks(workload.cpu)
    segments: List[Dict[str, float]] = []
    ref_from = ref.mark()
    t_begin = clock()
    t_first = t_last = t_begin
    for index in range(args.segments):
        ops = wl.segment_ops(spec.name, workload.seed, index)
        cuts = [len(ops) * j // wl.CHUNKS for j in range(wl.CHUNKS + 1)]
        lat: List[float] = []
        wall = cpu_s = 0.0
        mark = ref.mark()
        ref.sample()
        t_segment = clock()
        # Chunks of work with a reference sample between them: the wall
        # and CPU of the segment are those of its chunks alone.
        for lo, hi in zip(cuts, cuts[1:]):
            cpu_before = meter.read()
            start = clock()
            workload.run_chunk(ops[lo:hi], lat)
            wall += clock() - start
            cpu_s += meter.read() - cpu_before
            ref.sample()
        cpu_before = meter.read()
        gc_s = workload.end_of_segment()
        if gc_s:
            wall += gc_s
            cpu_s += meter.read() - cpu_before
            ref.sample()
        if index == 0:
            t_first = t_segment
        t_last = clock()
        lat.sort()
        segments.append(
            {
                "wall_s": wall,
                "txns": len(lat),
                "txn_time_s": sum(lat),
                "p50_ms": harness.percentile(lat, 0.50) * 1e3,
                "p95_ms": harness.percentile(lat, 0.95) * 1e3,
                "cpu_s": cpu_s,
                "gc_s": gc_s,
                "slowdown": ref.slowdown(mark),
            }
        )
        if args.deadline and index + 1 >= MIN_SEGMENTS and t_last - t_begin > args.deadline:
            break
    peak_rss = sum(harness.vm_hwm_mb(pid) for pid in workload.store_pids())
    steal = harness.steal_share(ticks_before, harness.cpu_ticks(workload.cpu))
    slowdown = ref.slowdown(ref_from)
    obs_after = workload.obs_snapshot() if obs_before is not None else None
    counts = workload.counts()
    problems = workload.verify()
    if workload.failed:
        problems.append("%d txns failed: %s" % (workload.failed, "; ".join(workload.errors)))

    def per_segment(value: Any, rate: bool = False) -> Dict[str, float]:
        """Median over segments, as measured and on the calm-box scale."""
        return {
            "raw": harness.median_of_segments(value(s) for s in segments),
            "calm": harness.median_of_segments(
                value(s) * s["slowdown"] if rate else value(s) / s["slowdown"]
                for s in segments
            ),
        }

    estimates = {
        "txn_per_s": per_segment(lambda s: s["txns"] / s["wall_s"], rate=True),
        "txn_p50_ms": per_segment(lambda s: s["p50_ms"]),
        "txn_p95_ms": per_segment(lambda s: s["p95_ms"]),
        "cpu_s_per_ktxn": per_segment(lambda s: s["cpu_s"] / (s["txns"] / 1000.0)),
    }
    txns = sum(s["txns"] for s in segments)
    result: Dict[str, Any] = {
        "segments": len(segments),
        "segments_planned": args.segments,
        "txns": txns,
        "txns_per_segment": segments[0]["txns"],
        "measured_s": t_last - t_first,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "problems": problems,
        "counts": counts,
        "env": {
            "cpu": workload.cpu,
            "steal_share": steal,
            "ref_kernel_ms": slowdown * harness.REF_NOMINAL_MS,
            "slowdown": slowdown,
        },
        "metrics": {
            "txn_per_s": estimates["txn_per_s"]["calm"],
            "txn_p50_ms": estimates["txn_p50_ms"]["calm"],
            "txn_p95_ms": estimates["txn_p95_ms"]["calm"],
            "ok_share": (workload.attempted - workload.failed) / max(1, workload.attempted),
            "peak_rss_mb": peak_rss,
            "cpu_s_per_ktxn": estimates["cpu_s_per_ktxn"]["calm"],
        },
        "as_measured": {name: both["raw"] for name, both in estimates.items()},
        "segments_raw": segments,
    }
    if getattr(workload, "FLUSH_POLICY", None):
        result["flush_policy"] = workload.FLUSH_POLICY
    if tracer is not None:
        result["per_layer"], result["layer_table"] = _per_layer(
            workload, tracer, segments, (t_first, t_last), obs_before, obs_after, result
        )
    return result


def _per_layer(
    workload: Any,
    tracer: Any,
    segments: List[Dict[str, float]],
    window: Any,
    obs_before: Any,
    obs_after: Any,
    result: Dict[str, Any],
) -> Any:
    """The traced pass's per-layer metrics and self-time table; keeps the spans."""
    import layers
    import tracewrap

    spec = workload.spec
    env = result["env"]
    server_rows: List[Any] = []
    os.makedirs(harness.SPAN_DIR, exist_ok=True)
    if workload.wire:
        server_rows = tracewrap.load_rows(workload.server.span_path)
        os.replace(
            workload.server.span_path,
            os.path.join(harness.SPAN_DIR, "%s-server.jsonl" % spec.name),
        )
    tracer.dump(os.path.join(harness.SPAN_DIR, "%s-generator.jsonl" % spec.name))
    per_layer, table = layers.per_layer(
        wire=workload.wire,
        gen_rows=tracer.rows,
        server_rows=server_rows,
        window=window,
        txns=result["txns"],
        txn_time=sum(s["txn_time_s"] for s in segments),
        segment_wall=sum(s["wall_s"] for s in segments),
        keys_read=len(segments) * spec.seg_keys_read,
        obs_before=obs_before,
        obs_after=obs_after,
        counts=result["counts"],
        gc_stats=getattr(workload, "gc_stats", []),
        recovery=getattr(workload, "recovery", {}),
    )
    per_layer["env.cpu"] = env["cpu"]
    per_layer["env.steal_share"] = env["steal_share"]
    per_layer["env.ref_kernel_ms"] = env["ref_kernel_ms"]
    per_layer["env.slowdown"] = env["slowdown"]
    per_layer["trace.segments"] = len(segments)
    forks = per_layer["dag.forks"]
    if (forks > 0) != (spec.name == "wire_conflict"):
        result["problems"].append("dag.forks == %d on %s" % (forks, spec.name))
    return per_layer, table


def child_main(args: argparse.Namespace) -> int:
    """One generator process: set up, maybe measure, tear down, print JSON."""
    harness.raise_on_sigterm()
    cpu = harness.pin_to_one_cpu()
    import workloads as wl

    run_dir = harness.make_run_dir(args.workload)
    tracer = None
    workload = None
    try:
        if args.phase == "trace":
            import tracewrap

            wire = args.workload.startswith("wire_")
            tracer = tracewrap.Tracer("generator")
            tracer.install(tracewrap.TARGETS["client" if wire else "embedded"])
        ref = harness.RefSampler()
        ref.sample()
        workload = wl.make_workload(args.workload, args.seed, run_dir, cpu, ref, tracer)
        try:
            workload.setup()
            ref.sample()
            # From the parent's Popen to the end of warm-up, less the time
            # the reference samples took, on the calm-box scale.
            setup_measured = (
                time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched - ref.spent_s
            )
            setup_s = setup_measured / ref.slowdown()
            result: Dict[str, Any] = {}
            if args.phase != "setup":
                result = _measure(workload, args, tracer)
            result.update(
                workload=args.workload, seed=args.seed, phase=args.phase,
                setup_s=setup_s, setup_measured_s=setup_measured,
            )
        finally:
            workload.close()
    finally:
        if tracer is not None:
            tracer.uninstall()
        harness.remove_run_dir(run_dir)
    print(json.dumps(result))
    return 0


# -- the orchestrator ------------------------------------------------------------


def _run_child(
    workload: str, seed: int, phase: str, segments: int = 0, deadline: float = 0.0
) -> Dict[str, Any]:
    argv = [
        sys.executable,
        os.path.abspath(__file__),
        "--phase", phase,
        "--workload", workload,
        "--seed", str(seed),
        "--segments", str(segments),
        "--deadline", str(deadline),
        "--launched", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    proc = subprocess.Popen(argv, env=harness.child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # timeout, Ctrl-C or SIGTERM: the child tears its own children down
        proc.terminate()
        try:
            proc.wait(20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError("%s/%s generator exited with %d" % (workload, phase, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def planned_segments(name: str, seconds: float) -> int:
    """Segments of a measured pass: a fixed count for a given ``--seconds``."""
    import workloads as wl

    return max(SMOKE_SEGMENTS, round(wl.SPECS[name].segments * seconds / wl.RUN_SECONDS))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict[str, Any]:
    """All phases of one workload; returns the merged result document."""
    if trace:
        segments = SMOKE_SEGMENTS if smoke else TRACE_SEGMENTS
        plain = _run_child(name, seed, "measure", segments)
        traced = _run_child(name, seed, "trace", segments)
        per_layer = traced["per_layer"]
        per_layer["trace.overhead_pct"] = 100.0 * (
            plain["metrics"]["txn_per_s"] / traced["metrics"]["txn_per_s"] - 1.0
        )
        traced["problems"] += plain["problems"]
        traced["attempted"] += plain["attempted"]
        traced["failed"] += plain["failed"]
        result = traced
        result["reported"] = {n: (per_layer[n], u) for n, u in harness.metric_units("per_layer")}
    else:
        setups = [] if smoke else [
            _run_child(name, seed, "setup") for _ in range(SETUP_RUNS - 1)
        ]
        if smoke:
            result = _run_child(name, seed, "measure", SMOKE_SEGMENTS)
        else:
            result = _run_child(
                name, seed, "measure", planned_segments(name, seconds), DEADLINE_FACTOR * seconds
            )
        setups.append(result)
        result["setup_runs_s"] = [s["setup_s"] for s in setups]
        result["metrics"]["setup_s"] = statistics.median(result["setup_runs_s"])
        result["as_measured"]["setup_s"] = statistics.median(
            s["setup_measured_s"] for s in setups
        )
        result["reported"] = {
            n: (result["metrics"][n], u) for n, u in harness.metric_units("end_to_end")
        }
    result["correct"] = not result["problems"] and result["failed"] == 0
    return result


def print_result(result: Dict[str, Any], trace: bool) -> None:
    name = result["workload"]
    print(
        "== %s seed=%d: %d segments x %d txns = %d txns in %.2f s (cpu %d, steal %.3f, slowdown %.2f)"
        % (
            name, result["seed"], result["segments"], result["txns_per_segment"],
            result["txns"], result["measured_s"], result["env"]["cpu"],
            result["env"]["steal_share"], result["env"]["slowdown"],
        )
    )
    if result["segments"] < result["segments_planned"]:
        print(
            "   stopped at the deadline after %d of %d segments"
            % (result["segments"], result["segments_planned"])
        )
    if "flush_policy" in result:
        print("   flush policy: %s" % result["flush_policy"])
    if not trace:
        print("   setup runs (s): %s" % ", ".join("%.3f" % s for s in result["setup_runs_s"]))
    for metric, (value, unit) in result["reported"].items():
        measured = result["as_measured"].get(metric) if not trace else None
        print(
            "   %-34s %14.6g %-6s%s"
            % (metric, value, unit, "" if measured is None else "  (as measured %.6g)" % measured)
        )
    if trace:
        total = sum(seconds for _layer, seconds in result["layer_table"]) or 1.0
        print("   -- self time per layer, per txn (adds up to the generator's calls)")
        for layer, seconds in result["layer_table"]:
            print(
                "   %-34s %10.4f ms %5.1f%%"
                % (layer, 1e3 * seconds / result["txns"], 100.0 * seconds / total)
            )
    for problem in result["problems"]:
        print("   CHECK FAILED: %s" % problem)
    print("   checks: %s" % ("ok" if result["correct"] else "FAILED"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="sizes the measured phase: a fixed segment count per workload, in proportion",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="1: replay the first segments with spans and report the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="2 segments each: schema and checks only")
    # internal: one generator process
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--segments", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(harness.SRC_DIR, "repro")):
        print("no src/repro beside the benchmark: nothing to measure", file=sys.stderr)
        return 2
    if harness.SRC_DIR not in sys.path:
        sys.path.insert(0, harness.SRC_DIR)
    if args.phase:
        return child_main(args)

    import workloads as wl

    names = [args.workload] if args.workload else list(wl.SPECS)
    for name in names:
        if name not in wl.SPECS:
            parser.error("unknown workload %r (have: %s)" % (name, ", ".join(wl.SPECS)))
    harness.raise_on_sigterm()
    harness.pin_to_one_cpu()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_result(result, bool(args.trace))
        results.append(result)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        summary["metrics"] = {
            n: {"value": value, "unit": unit} for n, (value, unit) in results[0]["reported"].items()
        }
    else:
        summary["metrics"] = {
            "%s/%s" % (r["workload"], n): {"value": value, "unit": unit}
            for r in results
            for n, (value, unit) in r["reported"].items()
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
