"""``tardis top``: a terminal dashboard for a live TARDiS server.

Renders the observability snapshots of docs/internals.md §14 — divergence
gauges, sparkline series, per-op latency percentiles, the per-shard /
per-worker table, the slow requests and GC cycles split by layer, and
the alert strip — against a running ``tardis serve``. Two modes:

* **one-shot** (default): one ``OBS_SNAPSHOT`` request, one rendered
  table, exit. Works against any server — with the sampler off the
  server samples on demand.
* **``--live``**: poll one ``OBS_SNAPSHOT`` every ``--interval`` and
  re-render it, Ctrl-C to stop. Each snapshot carries the newest samples
  of every series, so a poller loses no history between polls and the
  server keeps nothing per watcher. Live mode engages when stdout is a
  TTY *or* a frame budget (``--frames``) is given; otherwise it degrades
  to one-shot so piping ``tardis top --live`` into a file cannot hang a
  script.

The renderer is pure (snapshot dict in, string out) so tests and the CI
smoke job assert on the exact text without a pty.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Sequence

from repro.client.client import TardisClient
from repro.errors import NetworkError
from repro.server.handlers import GC_FIELDS
from repro.server.server import SPANS

__all__ = ["sparkline", "render_snapshot", "cmd_top"]

#: the newest slow requests and GC cycles the slow panel shows.
SLOW_SHOWN = 12

#: eight-level bar glyphs, lowest to highest.
SPARK = "▁▂▃▄▅▆▇█"

#: series rendered as sparkline rows, in display order (base names; the
#: renderer matches any ``base@suffix`` present in the snapshot).
SPARK_SERIES = (
    "tardis_branch_count",
    "tardis_merge_debt",
    "tardis_dag_width",
    "tardis_staleness_ms",
    "tardis_net_sessions",
    "tardis_net_inflight",
    "tardis_net_requests",
    "tardis_net_commits",
)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render ``values`` (oldest first) as a fixed-width bar string."""
    if not values:
        return " " * width
    tail = list(values)[-width:]
    lo = min(tail)
    hi = max(tail)
    span = hi - lo
    chars = []
    for v in tail:
        if span <= 0:
            # A flat series still shows *where* it sits: zero at the
            # floor, anything else mid-scale.
            chars.append(SPARK[0] if hi <= 0 else SPARK[3])
        else:
            chars.append(SPARK[min(7, int((v - lo) / span * 7.999))])
    return "".join(chars).rjust(width, " ")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return "%.1f" % value if value >= 10 else "%.2f" % value
    return str(value)


def render_snapshot(snapshot: Dict[str, Any], width: int = 40) -> str:
    """One snapshot document -> the full dashboard text."""
    lines: List[str] = []
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    lines.append(
        "tardis top — site=%s  seq=%d  t=%.1fs  alerts=%d"
        % (
            snapshot.get("site", "?"),
            snapshot.get("seq", 0),
            snapshot.get("t_ms", 0.0) / 1000.0,
            snapshot.get("alerts_total", 0),
        )
    )
    lines.append(
        "branches=%s  width=%s  depth=%s  merge_debt=%s  staleness_ms=%s  states=%s"
        % tuple(
            _fmt(gauges.get(k, 0))
            for k in (
                "branch_count",
                "dag_width",
                "dag_depth",
                "merge_debt",
                "staleness_ms",
                "states",
            )
        )
    )
    lines.append(
        "sessions=%s  inflight=%s  connections=%s  requests=%s  commits=%s  merges=%s"
        % (
            _fmt(gauges.get("sessions", 0)),
            _fmt(gauges.get("inflight", 0)),
            _fmt(gauges.get("connections", 0)),
            _fmt(counters.get("requests_total", 0)),
            _fmt(counters.get("store_commits", 0)),
            _fmt(counters.get("store_merges", 0)),
        )
    )
    lines.append(
        "gc cycles=%s  removed=%s  pause_ms=%s  pause_ms_max=%s"
        % tuple(_fmt(counters.get("gc_" + name, 0)) for name in GC_FIELDS)
    )

    series = snapshot.get("series", {})
    if series:
        lines.append("")
        lines.append("-- series " + "-" * (width + 24))
        for base in SPARK_SERIES:
            for name in sorted(series):
                if name == base or name.startswith(base + "@"):
                    samples = series[name]
                    values = [v for _, v in samples]
                    last = values[-1] if values else 0
                    lines.append(
                        "  %-28s %s %s"
                        % (name, sparkline(values, width), _fmt(last))
                    )

    latency = snapshot.get("latency_ms", {})
    if latency:
        lines.append("")
        lines.append("-- request latency (ms) " + "-" * (width + 10))
        lines.append(
            "  %-14s %8s %8s %8s %8s %8s" % ("op", "count", "p50", "p90", "p99", "max")
        )
        for op in sorted(latency):
            row = latency[op]
            lines.append(
                "  %-14s %8d %8.2f %8.2f %8.2f %8.2f"
                % (op, row["count"], row["p50"], row["p90"], row["p99"], row["max"])
            )

    shards = snapshot.get("shards")
    if shards:
        lines.append("")
        lines.append("-- shards " + "-" * (width + 24))
        accesses = shards.get("accesses", [])
        for i, count in enumerate(accesses):
            lines.append("  shard %-3d accesses=%d" % (i, count))
        workers = shards.get("workers")
        if workers:
            lines.append(
                "  workers: %d/%d alive  dead=%s  leaked=%s"
                % (
                    shards.get("workers_alive", 0),
                    shards.get("n_workers", 0),
                    shards.get("workers_dead", []),
                    shards.get("leaked_workers", 0),
                )
            )
            for w in workers:
                ping = "%.1fms" % w["ping_ms"] if "ping_ms" in w else "-"
                lines.append(
                    "  worker %-2d shards=%s %-5s queue=%d ping=%s"
                    % (
                        w["worker"],
                        w["shards"],
                        "up" if w["alive"] else "DEAD",
                        w["queue_depth"],
                        ping,
                    )
                )

    slow = snapshot.get("slow", [])
    if slow:
        lines.append("")
        lines.append("-- slow requests and gc cycles (ms) " + "-" * (width - 2))
        lines.append(
            "  %-12s %-16s %8s %8s %8s %8s %8s"
            % ("t_start", "what", "wall", "cpu", "wait", "handle", "reply")
        )
        for row in slow[-SLOW_SHOWN:]:
            if row["layer"] == "gc.cycle":
                what, tail = "gc.cycle", "  removed=%d" % row["n"]
            else:
                spans = row["spans"]
                what, tail = row["name"], "".join(
                    " %8.2f" % (1000.0 * (spans[layer][1] - spans[layer][0]))
                    for layer in SPANS
                )
            lines.append(
                "  %-12.3f %-16s %8.2f %8.2f%s"
                % (
                    row["t_start"],
                    what,
                    1000.0 * (row["t_end"] - row["t_start"]),
                    1000.0 * row["cpu"],
                    tail,
                )
            )

    alerts = snapshot.get("alerts", [])
    if alerts:
        lines.append("")
        lines.append("!! alerts " + "!" * (width + 24))
        for alert in alerts[-5:]:
            lines.append("  [%8.1fs] %s" % (alert["t_ms"] / 1000.0, alert["reason"]))

    return "\n".join(lines)


def cmd_top(args: Any) -> int:
    """The ``tardis top`` entry point (wired up in :mod:`repro.tools.cli`)."""
    if getattr(args, "connect", None):
        host, _, port = args.connect.rpartition(":")
        args.host, args.port = host or args.host, int(port)
    is_tty = sys.stdout.isatty()
    live = bool(args.live) and (is_tty or args.frames is not None)
    # Clearing the screen between frames only makes sense on a real
    # terminal; under --frames (tests, CI) frames are just concatenated.
    clear = "\x1b[2J\x1b[H" if (live and is_tty and args.frames is None) else ""
    try:
        client = TardisClient(
            host=args.host, port=args.port, session=args.session
        )
    except (OSError, NetworkError) as exc:
        print("tardis top: cannot connect to %s:%d: %s" % (args.host, args.port, exc))
        return 1
    try:
        if not live:
            print(render_snapshot(client.obs_snapshot(tail=args.tail), width=args.width))
            return 0
        rendered = 0
        while True:
            text = render_snapshot(client.obs_snapshot(tail=args.tail), width=args.width)
            print("%s%s\n" % (clear, text), flush=True)
            rendered += 1
            if args.frames is not None and rendered >= args.frames:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except NetworkError as exc:
        print("tardis top: connection lost: %s" % exc)
        return 1
    finally:
        client.close()
