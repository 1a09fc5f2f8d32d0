"""Command-line interface: ``python -m repro.tools.cli <command>``.

Commands:

* ``bench`` — run one microbenchmark point (system × mix × pattern) and
  print the result row; useful for quick what-if runs without pytest.
* ``demo`` — run a canned branch/merge walkthrough and dump the State
  DAG as Graphviz DOT.
* ``recover`` — inspect a write-ahead log: replay it into a fresh store
  and print the recovery report and store summary.
* ``metrics`` — a "tardis top": run a short workload with the
  observability subsystem enabled and print branch health (per-branch
  depth, conflict rate, GC debt), the metric registry, and recent trace
  events; ``--json`` / ``--prometheus`` switch the output format.
* ``trace`` — run a scripted three-site replicated scenario (concurrent
  commits, replication, merge) and print one transaction's
  causally-ordered multi-site timeline; ``--dump`` also writes a
  flight dump (:func:`repro.obs.flight.flight_dump`) to JSON.
* ``flight`` — pretty-print a flight dump written by ``trace --dump``.
* ``check`` — run the static-analysis rules (lock discipline,
  metric-name drift, hygiene) over the package and
  exit nonzero on findings; ``--format=json`` is the CI gate's input.
* ``serve`` — run the network server (docs/internals.md §12):
  one TardisStore behind the length-prefixed JSON wire protocol, until
  SIGINT/SIGTERM; prints a ``TARDIS_SERVE_REPORT`` JSON line after the
  graceful drain and exits nonzero if any session leaked.
  ``--obs-interval`` turns on the live ops sampler (§14); ``--metrics``
  enables the store's metrics registry and prints it as Prometheus text
  before the report (the server's own counts are in the report).
* ``top`` — terminal dashboard against a running server: divergence
  gauges, sparkline series, per-op latency percentiles, per-shard and
  per-worker health, and the live alert strip. ``--live`` re-renders an
  ``OBS_SNAPSHOT`` every ``--interval``; without it, one snapshot table
  and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import analysis
from repro.core.ancestry import popcount
from repro.core.recovery import recover_store
from repro.core.store import TardisStore
from repro.obs import MetricsRegistry, Tracer, export
from repro.obs import metrics as _met
from repro.obs import tracing as _trc
from repro.obs.context import format_timeline, trace_id_of
from repro.obs.flight import flight_dump, format_flight
from repro.replication.cluster import Cluster
from repro.server.server import TardisServer, run_server
from repro.sim.adapters import OCCAdapter, TardisAdapter, TwoPLAdapter
from repro.tools.inspect import dag_to_dot, describe_store, store_summary
from repro.tools.top import cmd_top
from repro.workload import RunConfig, YCSBWorkload, run_simulation
from repro.workload.mixes import BLIND_WRITE, MIXED, READ_HEAVY, READ_ONLY, WRITE_HEAVY

SYSTEMS = {
    "tardis": lambda: TardisAdapter(branching=True),
    "tardis-nb": lambda: TardisAdapter(branching=False),
    "bdb": TwoPLAdapter,
    "occ": OCCAdapter,
}

MIXES = {
    "read-only": READ_ONLY,
    "read-heavy": READ_HEAVY,
    "mixed": MIXED,
    "write-heavy": WRITE_HEAVY,
    "blind-write": BLIND_WRITE,
}


def cmd_bench(args) -> int:
    adapter = SYSTEMS[args.system]()
    workload = YCSBWorkload(
        mix=MIXES[args.mix], n_keys=args.keys, pattern=args.pattern
    )
    config = RunConfig(
        n_clients=args.clients,
        duration_ms=args.duration,
        warmup_ms=args.duration * 0.1,
        cores=args.cores,
        seed=args.seed,
        maintenance_interval_ms=5.0 if args.system.startswith("tardis") else None,
    )
    result = run_simulation(adapter, workload, config)
    if args.json:
        payload = {
            "system": result.system,
            "mix": args.mix,
            "pattern": args.pattern,
            "clients": result.n_clients,
            "throughput_tps": result.throughput_tps,
            "mean_latency_ms": result.mean_latency_ms,
            "p99_latency_ms": result.p99_latency_ms,
            "aborts": result.aborts,
            "goodput": result.goodput,
            "op_breakdown_ms": result.op_breakdown_ms,
            "adapter_stats": result.adapter_stats,
        }
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(result.summary())
    return 0


def cmd_demo(args) -> int:
    store = TardisStore("demo")
    alice, bruno = store.session("alice"), store.session("bruno")
    store.put("counter", 0, session=alice)
    t1, t2 = store.begin(session=alice), store.begin(session=bruno)
    t1.put("counter", t1.get("counter") + 1)
    t2.put("counter", t2.get("counter") + 10)
    t1.commit()
    t2.commit()
    merge = store.begin_merge(session=alice)
    fork = merge.find_fork_points()[0]
    base = merge.get_for_id("counter", fork)
    merge.put("counter", base + sum(v - base for v in merge.get_all("counter")))
    merge.commit()
    if args.dot:
        print(dag_to_dot(store))
    else:
        print(describe_store(store, keys=["counter"]))
    return 0


def cmd_recover(args) -> int:
    store, report = recover_store("recovered", args.wal)
    print("recovery report:", json.dumps(report))
    print()
    print(describe_store(store))
    return 0


def cmd_metrics(args) -> int:
    adapter = SYSTEMS[args.system]()
    workload = YCSBWorkload(
        mix=MIXES[args.mix], n_keys=args.keys, pattern=args.pattern
    )
    config = RunConfig(
        n_clients=args.clients,
        duration_ms=args.duration,
        warmup_ms=args.duration * 0.1,
        cores=args.cores,
        seed=args.seed,
        maintenance_interval_ms=5.0 if args.system.startswith("tardis") else None,
        # The runner would swap in its own per-run registry; we install
        # ours instead so the tracer and exporters see live objects.
        collect_metrics=False,
    )
    registry = MetricsRegistry(enabled=True)
    tracer = Tracer(capacity=max(args.events * 8, 1024), enabled=True)
    previous_registry = _met.set_default_registry(registry)
    previous_tracer = _trc.set_default_tracer(tracer)
    try:
        result = run_simulation(adapter, workload, config)
    finally:
        _met.set_default_registry(previous_registry)
        _trc.set_default_tracer(previous_tracer)

    if args.json:
        print(export.to_json(registry, tracer, event_limit=args.events))
        return 0
    if args.prometheus:
        print(export.to_prometheus(registry))
        return 0

    data = registry.to_dict()

    def counter(name):
        return data.get(name, {}).get("value", 0)

    print(result.summary())
    store = getattr(adapter, "store", None)
    if store is not None:
        commits = counter("tardis_txn_commit_total")
        forks = counter("tardis_branch_fork_total")
        merges = counter("tardis_branch_merge_total")
        print()
        print("-- branches " + "-" * 48)
        print(
            "leaves=%d  live_states=%d  conflict_rate=%.2f%% (%d forks / %d commits)  merges=%d"
            % (
                len(store.dag.leaves()),
                len(store.dag),
                100.0 * forks / max(commits, 1),
                forks,
                commits,
                merges,
            )
        )
        for leaf in store.dag.leaves():
            print(
                "  leaf %-24s depth=%-3d %s"
                % (leaf.id, popcount(leaf.path_mask), "merge" if leaf.is_merge else "")
            )
        print()
        print("-- gc debt " + "-" * 49)
        print(
            "cycles=%d  states_removed=%d  promoted=%d  promotion_table=%d  ceilings=%d"
            % (
                counter("tardis_gc_cycle_total"),
                counter("tardis_gc_states_removed_total"),
                counter("tardis_gc_records_promoted_total"),
                store.dag.promotion_table_size,
                len(store.gc.ceilings),
            )
        )
        print()
        print("-- visibility cache " + "-" * 40)
        vis_hits = registry.counter_value("tardis_vis_cache_hit_total")
        vis_reads = vis_hits + registry.counter_value("tardis_vis_cache_miss_total")
        print(
            "visibility: %5.1f%% (%d/%d)  invalidations=%d"
            % (
                100.0 * vis_hits / max(vis_reads, 1),
                vis_hits,
                vis_reads,
                registry.counter_value("tardis_vis_cache_invalidations_total"),
            )
        )

    print()
    print("-- metrics " + "-" * 49)
    for name in sorted(data):
        entry = data[name]
        if entry["type"] == "counter" or entry["type"] == "gauge":
            print("  %-40s %s" % (name, entry["value"]))
        elif entry["type"] == "histogram" and entry["count"]:
            hist = registry.get(name)
            print(
                "  %-40s count=%d p50=%.4f p99=%.4f max=%.4f"
                % (name, entry["count"], hist.quantile(0.5), hist.quantile(0.99), entry["max"])
            )

    events = tracer.events(limit=args.events)
    if events:
        print()
        print(
            "-- recent events (ring dropped=%d) " % tracer.dropped + "-" * 25
        )
        for event in events:
            attrs = " ".join("%s=%s" % kv for kv in sorted(event.attrs.items()))
            print("  %10.4f %-18s %s" % (event.ts, event.kind, attrs))
    return 0


def cmd_trace(args) -> int:
    """Scripted replicated scenario + one transaction's causal timeline.

    Two sites commit to the same key concurrently (before any gossip
    lands), replication forks every site's DAG, and a third site merges —
    so the printed timeline reads commit → replicate → apply → merge.
    """
    cluster = Cluster(n_sites=3, trace=True)
    us, eu, asia = (cluster.stores[s] for s in ("us", "eu", "asia"))

    sid_us = us.put(args.key, "from-us")
    sid_eu = eu.put(args.key, "from-eu")  # concurrent: no gossip yet
    cluster.run(until=300.0)  # both commits replicate; every DAG forks

    merge = asia.begin_merge()
    for key in merge.find_conflict_writes():
        merge.put(key, "+".join(sorted(str(v) for v in merge.get_all(key))))
    merge.commit()
    cluster.run(until=600.0)  # the merge replicates back out

    trace_id = args.txn or trace_id_of(sid_us)
    timeline = cluster.timeline(trace_id)
    if not timeline:
        known = ", ".join(
            sorted({str(e.attrs.get("trace")) for e in cluster.events() if e.attrs.get("trace")})
        )
        print("no events for trace %r; known traces: %s" % (trace_id, known))
        return 1
    print(format_timeline(timeline, trace_id))

    if args.dump:
        monitor = cluster.monitor()
        monitor.sample()
        doc = flight_dump(
            cluster.tracers, cluster.stores, monitor, "manual dump (tardis trace --dump)"
        )
        with open(args.dump, "w") as handle:
            json.dump(doc, handle, indent=2, default=str, sort_keys=True)
            handle.write("\n")
        print()
        print("flight dump written to %s" % args.dump)
    return 0


def cmd_flight(args) -> int:
    with open(args.dump) as handle:
        doc = json.load(handle)
    print(format_flight(doc, event_limit=args.events))
    return 0


def cmd_check(args) -> int:
    if args.list_rules:
        for cls in analysis.ALL_RULES:
            print("%-20s %s" % (cls.id, cls.description))
        return 0
    try:
        rules = (
            analysis.rules_by_id(args.rules.split(","))
            if args.rules
            else analysis.default_rules()
        )
    except KeyError as exc:
        valid = ", ".join(cls.id for cls in analysis.ALL_RULES)
        print("unknown rule %s (valid: %s)" % (exc, valid), file=sys.stderr)
        return 2
    src_root = Path(args.root).resolve() if args.root else None
    report = analysis.check_repo(src_root=src_root, rules=rules)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format())
    return report.exit_code


def cmd_serve(args) -> int:
    if args.metrics:
        _met.enable(True)
    server = TardisServer(
        host=args.host,
        port=args.port,
        site=args.site,
        shards=args.shards,
        shard_workers=args.shard_workers,
        max_connections=args.max_connections,
        request_timeout=args.request_timeout,
        drain_timeout=args.drain_timeout,
        obs_sample_interval=args.obs_interval,
    )
    report = run_server(server, port_file=args.port_file)
    if args.metrics:
        print(export.to_prometheus(_met.DEFAULT))
    print("TARDIS_SERVE_REPORT " + json.dumps(report, sort_keys=True), flush=True)
    failed = report.get("leaked_sessions") or report.get("leaked_workers")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.cli",
        description="TARDiS reproduction command-line tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run one microbenchmark point")
    bench.add_argument("--system", choices=sorted(SYSTEMS), default="tardis")
    bench.add_argument("--mix", choices=sorted(MIXES), default="read-heavy")
    bench.add_argument("--pattern", choices=["uniform", "zipfian"], default="uniform")
    bench.add_argument("--clients", type=int, default=16)
    bench.add_argument("--keys", type=int, default=400)
    bench.add_argument("--cores", type=int, default=8)
    bench.add_argument("--duration", type=float, default=200.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    demo = sub.add_parser("demo", help="branch/merge walkthrough")
    demo.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    demo.set_defaults(func=cmd_demo)

    recover = sub.add_parser("recover", help="replay a write-ahead log")
    recover.add_argument("wal", help="path to the commit log")
    recover.set_defaults(func=cmd_recover)

    metrics = sub.add_parser(
        "metrics", help="run a short workload and show branch/GC health"
    )
    metrics.add_argument("--system", choices=sorted(SYSTEMS), default="tardis")
    metrics.add_argument("--mix", choices=sorted(MIXES), default="mixed")
    metrics.add_argument("--pattern", choices=["uniform", "zipfian"], default="uniform")
    metrics.add_argument("--clients", type=int, default=16)
    metrics.add_argument("--keys", type=int, default=400)
    metrics.add_argument("--cores", type=int, default=8)
    metrics.add_argument("--duration", type=float, default=100.0)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--events", type=int, default=10, help="trace events to show")
    metrics.add_argument("--json", action="store_true", help="dump registry + events as JSON")
    metrics.add_argument("--prometheus", action="store_true", help="Prometheus text format")
    metrics.set_defaults(func=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="replicated scenario + one transaction's causal timeline"
    )
    trace.add_argument(
        "--txn",
        default=None,
        help="trace id (state id repr, e.g. s1@us); default: the first us commit",
    )
    trace.add_argument("--key", default="counter", help="contended key")
    trace.add_argument(
        "--dump", default=None, help="also write a flight-recorder dump here"
    )
    trace.set_defaults(func=cmd_trace)

    flight = sub.add_parser("flight", help="pretty-print a flight-recorder dump")
    flight.add_argument("dump", help="path to a flight dump JSON")
    flight.add_argument("--events", type=int, default=50, help="trace events to show")
    flight.set_defaults(func=cmd_flight)

    check = sub.add_parser(
        "check",
        help="static analysis: lock discipline, async discipline, "
        "metric-name drift, import hygiene, bare excepts "
        "(docs/internals.md §11)",
    )
    check.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="json is the machine-readable CI form",
    )
    check.add_argument(
        "--root", default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    check.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids (default: all)",
    )
    check.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    check.set_defaults(func=cmd_check)

    serve = sub.add_parser(
        "serve", help="run the network server (docs/internals.md §12)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7145,
        help="TCP port; 0 picks an ephemeral port (see --port-file)",
    )
    serve.add_argument("--site", default="net", help="store site name")
    serve.add_argument(
        "--shards", type=int, default=None,
        help="partition records across N shards (in-process unless "
        "--shard-workers is given)",
    )
    serve.add_argument(
        "--shard-workers", type=int, default=None,
        help="run the shards in N worker processes (fault isolation)",
    )
    serve.add_argument("--max-connections", type=int, default=128)
    serve.add_argument(
        "--request-timeout", type=float, default=5.0,
        help="per-request timeout in seconds",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="graceful-shutdown drain window in seconds",
    )
    serve.add_argument(
        "--port-file", default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="enable the store's metrics registry; print it as Prometheus "
        "text at exit (server counts are in TARDIS_SERVE_REPORT)",
    )
    serve.add_argument(
        "--obs-interval", type=float, default=None,
        help="live ops sampler cadence in seconds (default: sampler off; "
        "OBS_SNAPSHOT still samples on demand)",
    )
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top", help="live dashboard for a running server (docs/internals.md §14)"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7145)
    top.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="shorthand for --host/--port",
    )
    top.add_argument(
        "--session", default=None,
        help="session name to bind (default: server-assigned)",
    )
    top.add_argument(
        "--live", action="store_true",
        help="poll a snapshot and re-render every --interval "
        "(needs a TTY or --frames)",
    )
    top.add_argument(
        "--frames", type=int, default=None,
        help="stop after N rendered frames (default: until Ctrl-C)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="polling cadence in seconds under --live",
    )
    top.add_argument(
        "--tail", type=int, default=None,
        help="series samples to request/render (default: server's tail)",
    )
    top.add_argument("--width", type=int, default=40, help="sparkline width")
    top.set_defaults(func=cmd_top)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
