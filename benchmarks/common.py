"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*.py`` module regenerates one table or figure of the
paper's evaluation (§7): it runs the experiment inside the
pytest-benchmark harness, prints the same rows/series the paper
reports, and writes them to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can cite them.

Throughput numbers are *simulated* transactions per second (see
DESIGN.md §1): absolute values are not comparable to the paper's
testbed, but who-wins/by-what-factor/where-crossovers-fall are.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional

from repro.sim.adapters import OCCAdapter, TardisAdapter, TwoPLAdapter
from repro.workload import RunConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
REPO_ROOT = os.path.dirname(os.path.abspath(os.path.dirname(__file__)))

#: schema version of the BENCH_*.json documents.
BENCH_SCHEMA_VERSION = 1

#: standard simulation scale for the microbenchmarks.
CORES = 8
DURATION_MS = 200.0
WARMUP_MS = 30.0
MAINTENANCE_MS = 5.0
N_KEYS = 400
CLIENT_SWEEP = [2, 4, 8, 16, 32]
ELBOW_CLIENTS = 16


def config(n_clients: int = ELBOW_CLIENTS, **overrides) -> RunConfig:
    base = dict(
        n_clients=n_clients,
        duration_ms=DURATION_MS,
        warmup_ms=WARMUP_MS,
        cores=CORES,
        seed=0,
        maintenance_interval_ms=MAINTENANCE_MS,
    )
    base.update(overrides)
    return RunConfig(**base)


def make_tardis(branching: bool = True, **kw) -> TardisAdapter:
    return TardisAdapter(branching=branching, **kw)


SYSTEMS: List = [
    ("TARDiS", lambda: make_tardis(branching=True)),
    ("BDB", TwoPLAdapter),
    ("OCC", OCCAdapter),
]

SYSTEMS_NO_BRANCHING: List = [
    ("TARDiS", lambda: make_tardis(branching=False)),
    ("BDB", TwoPLAdapter),
    ("OCC", OCCAdapter),
]


def git_rev() -> str:
    """The current commit hash, or "unknown" outside a git checkout."""
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "HEAD"],
                cwd=REPO_ROOT,
                stderr=subprocess.DEVNULL,
            )
            .decode()
            .strip()
        )
    except Exception:
        return "unknown"


def write_bench_json(
    name: str,
    metrics: Dict[str, Any],
    config: Optional[Dict[str, Any]] = None,
) -> str:
    """Write ``BENCH_<name>.json`` at the repo root (machine-readable twin
    of the ``results/<name>.txt`` report). Returns the path written.

    Schema: ``{"schema_version", "name", "config", "metrics",
    "timestamp", "git_rev"}`` — ``metrics`` is a flat or
    one-level-nested dict of numbers (throughput, latency quantiles,
    per-op costs, abort/merge/GC counters).
    """
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": name,
        "config": config or {},
        "metrics": metrics,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_rev": git_rev(),
    }
    path = os.path.join(REPO_ROOT, "BENCH_%s.json" % name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str, sort_keys=True)
        handle.write("\n")
    return path


def result_metrics(result) -> Dict[str, Any]:
    """Flatten one :class:`RunResult` into the BENCH metrics schema."""
    out = {
        "throughput_tps": result.throughput_tps,
        "p50_latency_ms": result.p50_latency_ms,
        "p99_latency_ms": result.p99_latency_ms,
        "mean_latency_ms": result.mean_latency_ms,
        "commits": result.commits,
        "aborts": result.aborts,
        "goodput": result.goodput,
        "op_breakdown_ms": dict(result.op_breakdown_ms),
    }
    # Fold in the per-run observability counters (forks, merges, GC...):
    # histograms reduce to their summary values; windowed series keep
    # their full (t, value) sample lists under a "series" sub-dict.
    for name, data in sorted(result.obs_metrics.items()):
        if data.get("type") == "counter":
            out[name] = data["value"]
        elif data.get("type") == "gauge":
            out[name] = data["value"]
        elif data.get("type") == "series":
            out.setdefault("series", {})[name] = data["samples"]
    if result.adapter_stats:
        out["adapter_stats"] = dict(result.adapter_stats)
    return out


def sweep_metrics(report: "Report", systems: List, results, clients: List[int]) -> None:
    """Fold a client-sweep result dict into a report's BENCH metrics."""
    report.metric("clients", list(clients))
    for name, _factory in systems:
        series = results[name]
        report.metric("%s_tps_by_clients" % name, [r.throughput_tps for r in series])
        report.metric("%s_peak_tps" % name, max(r.throughput_tps for r in series))
        report.result("%s_at_%d_clients" % (name, clients[-1]), series[-1])


class Report:
    """Collects printable lines and persists them under results/.

    ``metric()`` / ``result()`` additionally collect machine-readable
    numbers; ``finish()`` writes them as ``BENCH_<name>.json`` alongside
    the human-readable text (skipped when nothing was collected, or when
    ``TARDIS_BENCH_JSON=0``).
    """

    def __init__(self, name: str, title: str, config: Optional[Dict[str, Any]] = None):
        self.name = name
        self.lines: List[str] = ["", "=" * 72, title, "=" * 72]
        self.metrics: Dict[str, Any] = {}
        self.config: Dict[str, Any] = dict(config or {})

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, header: List[str], rows: List[List], widths=None) -> None:
        widths = widths or [max(12, len(h) + 2) for h in header]
        fmt = "".join("%%-%ds" % w for w in widths)
        self.line(fmt % tuple(header))
        self.line("-" * sum(widths))
        for row in rows:
            self.line(fmt % tuple(row))

    def metric(self, key: str, value: Any) -> None:
        """Record one machine-readable metric for the BENCH json."""
        self.metrics[key] = value

    def result(self, label: str, run_result) -> None:
        """Record a full :class:`RunResult` under ``label``."""
        self.metrics[label] = result_metrics(run_result)

    def finish(self) -> str:
        text = "\n".join(self.lines) + "\n"
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(os.path.join(RESULTS_DIR, self.name + ".txt"), "w") as handle:
            handle.write(text)
        if self.metrics and os.environ.get("TARDIS_BENCH_JSON", "1") != "0":
            write_bench_json(self.name, self.metrics, self.config)
        print(text)
        return text


def run_once(benchmark: Callable, experiment: Callable):
    """Run ``experiment`` once under pytest-benchmark's timer."""
    return benchmark.pedantic(experiment, rounds=1, iterations=1)


def fmt_tps(value: float) -> str:
    return "%8.0f" % value


def ratio(a: float, b: float) -> str:
    if b <= 0:
        return "inf"
    return "%.2fx" % (a / b)


def run_smoke(duration_ms: float = 60.0, n_clients: int = 8) -> str:
    """One tiny TARDiS run; writes and returns ``BENCH_smoke.json``.

    Used by CI to assert that a machine-readable benchmark document is
    produced and parses; also a quick end-to-end check of the metrics
    pipeline (throughput, p50/p99, per-op breakdown, branch/GC counters).
    """
    from repro.workload import YCSBWorkload, run_simulation
    from repro.workload.mixes import MIXED

    cfg = config(
        n_clients=n_clients,
        duration_ms=duration_ms,
        warmup_ms=duration_ms * 0.1,
        series_interval_ms=5.0,
    )
    result = run_simulation(
        make_tardis(branching=True),
        YCSBWorkload(mix=MIXED, n_keys=N_KEYS, pattern="uniform"),
        cfg,
    )
    metrics = result_metrics(result)
    return write_bench_json(
        "smoke",
        metrics,
        config={
            "n_clients": cfg.n_clients,
            "duration_ms": cfg.duration_ms,
            "cores": cfg.cores,
            "seed": cfg.seed,
            "mix": "mixed",
        },
    )


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        path = run_smoke()
        print("wrote %s" % path)
    else:
        print("usage: python benchmarks/common.py --smoke")
        sys.exit(2)
