"""Process, CPU and /proc plumbing, and the estimators, of the e2e benchmark.

Nothing here knows a workload. Importing this module starts nothing and
imports nothing from ``repro``: ``run.py`` needs it to fail cleanly when
``src/`` is missing.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: per-run temp dirs (WAL, port files, server logs) and the span files of
#: the last traced run live here; git-ignored by benchmarks/e2e/.gitignore.
RUN_ROOT = os.path.join(HERE, ".run")
SPAN_DIR = os.path.join(RUN_ROOT, "spans")

#: a segment percentile is refused unless this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def metric_units(section: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics, in order.

    ``BENCHMARK.json`` is the one list of metric names; the code prints and
    fills exactly what it names.
    """
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


# -- estimators ---------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    Raises ValueError when fewer than ``MIN_SAMPLES_BEYOND`` samples lie
    beyond the chosen rank: a tail estimate with nothing behind it is one
    outlier, not a percentile.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q * 100, n, n - rank, MIN_SAMPLES_BEYOND)
        )
    return sorted_values[rank - 1]


def median_of_segments(values: Iterable[float]) -> float:
    """The run's estimate of a per-segment quantity.

    Steal arrives in bursts that slow a few segments to a third of their
    neighbours' speed; the median ignores them where a whole-run mean
    does not.
    """
    values = list(values)
    if not values:
        raise ValueError("no segments")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread the driver holds against the bound."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- CPU placement ------------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Pin this process to the highest CPU it may run on; children inherit.

    One CPU for generator, server and shard workers alike: on this box a
    cross-CPU wake-up costs more than the request it carries, and which
    CPU the scheduler picks is luck (README, "Noise").
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def pin_all_tasks(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` (threads started before an inherit)."""
    for tid in _task_ids(pid):
        try:
            os.sched_setaffinity(tid, {cpu})
        except OSError:
            pass  # the thread exited between listing and pinning


def child_env() -> Dict[str, str]:
    """Environment of every benchmark-owned process.

    The two glibc malloc settings keep the heap from being trimmed and keep
    requests under 4 MiB off ``mmap``. asyncio reads a socket with
    ``recv(256 KiB)``; with the defaults, whether that buffer is carved from
    the heap top or mapped, faulted in and unmapped on every request depends
    on where earlier allocations left the heap top, which depends on things
    like the length of the checkout's path. The second case is 25 % slower on
    the wire workloads (README, "Found in src/"); a benchmark whose result
    moves that much with the directory it runs in cannot gate anything.
    """
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + previous if previous else "")
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    return env


# -- /proc readers ------------------------------------------------------------


def _task_ids(pid: int) -> List[int]:
    try:
        return [int(name) for name in os.listdir("/proc/%d/task" % pid)]
    except OSError:
        return []


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (``VmHWM`` of /proc/pid/status)."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


class CpuMeter:
    """CPU seconds consumed by this process plus some others.

    Own time is ``time.process_time``; the other processes are read from
    each thread's ``schedstat`` (nanoseconds on the run queue's clock),
    because ``/proc/pid/stat`` counts 10 ms ticks and a segment is half a
    second. The thread list is read once: every process measured here
    has started all its threads by the end of warm-up.
    """

    def __init__(self, other_pids: Iterable[int]) -> None:
        self._paths = [
            "/proc/%d/task/%d/schedstat" % (pid, tid)
            for pid in other_pids
            for tid in _task_ids(pid)
        ]

    def read(self) -> float:
        total_ns = 0
        for path in self._paths:
            try:
                with open(path) as handle:
                    total_ns += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass  # a thread that exited keeps nothing to add
        return time.process_time() + total_ns / 1e9


def cpu_ticks(cpu: int) -> Dict[str, int]:
    """``{"steal", "total"}`` tick counters of one CPU from /proc/stat."""
    label = "cpu%d" % cpu
    with open("/proc/stat") as handle:
        for line in handle:
            fields = line.split()
            if fields and fields[0] == label:
                ticks = [int(x) for x in fields[1:]]
                return {"steal": ticks[7] if len(ticks) > 7 else 0, "total": sum(ticks[:8])}
    raise RuntimeError("no %s line in /proc/stat" % label)


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    total = after["total"] - before["total"]
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


#: iterations of one reference-kernel sample, and what that sample takes
#: on this box (2 vCPU Xeon 2.1 GHz Firecracker guest, CPython 3.11) when
#: nothing else contends for the core. A constant, not a calibration: it
#: only fixes the scale on which "1.0" means "as fast as the calm box".
REF_ITERATIONS = 440
REF_NOMINAL_MS = 1.90


def ref_kernel_ms() -> float:
    """One ~2 ms sample of a stdlib-only JSON/dict loop, in milliseconds."""
    start = time.perf_counter()
    table: Dict[str, Any] = {}
    for i in range(REF_ITERATIONS):
        table["k%d" % (i & 255)] = json.loads(json.dumps({"i": i, "v": [i, i + 1]}))
    return (time.perf_counter() - start) * 1000.0


class RefSampler:
    """How much slower than the calm box is this box, right now?

    The guest's speed swings by a factor of two over seconds to minutes
    with no steal time reported (README, "Noise"), and everything the
    benchmark runs slows by about the same factor. Samples of the
    reference kernel are interleaved with the measured work, a few ms
    apart, and every time-derived metric is divided by the slowdown seen
    over the same interval. The time the samples take is kept so callers
    can leave it out of what they measure.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        ms = ref_kernel_ms()
        self.samples.append(ms)
        self.spent_s += ms / 1e3

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """Mean sample since ``mark`` over the calm-box value (1.0 = calm)."""
        window = self.samples[since:]
        if not window:
            raise ValueError("no reference samples in the window")
        return (sum(window) / len(window)) / REF_NOMINAL_MS


# -- run directory and child processes ------------------------------------------


def make_run_dir(label: str) -> str:
    os.makedirs(RUN_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=label + "-", dir=RUN_ROOT)


def remove_run_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def raise_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks tear children down."""

    def _handler(signum: int, frame: Any) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _handler)


def _die_with_parent() -> None:
    """preexec hook: SIGKILL the child if its parent dies first.

    The last line of defence when the generator is killed with -9 and no
    ``finally`` runs; Linux only (``PR_SET_PDEATHSIG`` = 1).
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """``tardis serve --port 0`` in a subprocess, flat store, no WAL.

    ``traced`` starts it through ``serve_traced.py``, which installs the
    span wrappers and then calls the same CLI entry point.
    """

    def __init__(self, run_dir: str, cpu: int, span_path: Optional[str] = None) -> None:
        self.run_dir = run_dir
        self.cpu = cpu
        self.span_path = span_path
        self.port_file = os.path.join(run_dir, "port.txt")
        self.log_path = os.path.join(run_dir, "server.log")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.report: Optional[Dict[str, Any]] = None

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def start(self, timeout: float = 60.0) -> None:
        serve = ["serve", "--port", "0", "--port-file", self.port_file]
        if self.span_path is None:
            argv = [sys.executable, "-m", "repro.tools.cli"] + serve
        else:
            argv = [
                sys.executable,
                os.path.join(HERE, "serve_traced.py"),
                "--spans",
                self.span_path,
                "--",
            ] + serve
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv,
                env=child_env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=_die_with_parent,
            )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("server exited at start-up:\n" + self.log_tail())
            try:
                with open(self.port_file) as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError("server did not write its port file")
            time.sleep(0.002)
        pin_all_tasks(self.proc.pid, self.cpu)

    def stop(self, timeout: float = 60.0) -> Dict[str, Any]:
        """SIGINT, wait, and parse the ``TARDIS_SERVE_REPORT`` line."""
        assert self.proc is not None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server ignored SIGINT:\n" + self.log_tail())
        with open(self.log_path, "r", errors="replace") as handle:
            for line in handle:
                if line.startswith("TARDIS_SERVE_REPORT "):
                    self.report = json.loads(line.split(" ", 1)[1])
        if self.report is None:
            raise RuntimeError("server printed no report:\n" + self.log_tail())
        self.report["exit_code"] = self.proc.returncode
        return self.report

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(10)

    def log_tail(self, lines: int = 20) -> str:
        try:
            with open(self.log_path, "r", errors="replace") as handle:
                return "".join(handle.readlines()[-lines:])
        except OSError:
            return "(no server log)"
