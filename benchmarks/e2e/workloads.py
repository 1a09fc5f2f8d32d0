"""The four workloads: seeded op sequences and the loops that drive them.

Every op sequence is a function of ``(workload, seed, segment index)``
alone and is generated before the segment's clock starts; the program
under test receives only those inputs. A segment always holds the same
number of transactions of each kind, so segment ``i`` of one commit and
segment ``i`` of another do the same work on a DAG of the same shape.

One thread drives everything. The wire workloads hold two connections
(sessions ``A`` and ``B``), one request outstanding at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client import TardisClient
from repro.core.recovery import recover_store
from repro.core.store import TardisStore
from repro.errors import TardisError

from harness import RefSampler, ServerProcess

READ, WRITE = 0, 1

#: single-key reads each session issues before the first segment.
WARMUP_READS = 300
PRELOAD_BATCH = 100
#: warm-up reads between two reference-kernel samples during set-up.
WARMUP_CHUNK = 50
HOT_KEYS = 8
#: ``run_seconds`` of BENCHMARK.json, the run length ``Spec.segments`` is sized for.
RUN_SECONDS = 20
MERGE_EVERY = 16
#: a segment runs as this many equal chunks with a reference-kernel sample
#: between them (wire_conflict: one merge per chunk).
CHUNKS = 16


@dataclass(frozen=True)
class Spec:
    name: str
    keys: int
    #: read-only and read-modify-write txns in one segment (wire_conflict:
    #: rounds of two txns, and merges).
    reads: int
    writes: int
    read_width: int
    write_width: int
    #: segments of a measured run at ``--seconds RUN_SECONDS``: a fixed
    #: count, not a duration, so that segment ``i`` meets a DAG of the same
    #: depth on every commit. Sized to 15-17 s on this box when it is calm.
    segments: int

    @property
    def seg_txns(self) -> int:
        if self.name == "wire_conflict":
            return 2 * self.reads + self.reads // MERGE_EVERY
        return self.reads + self.writes

    @property
    def seg_keys_read(self) -> int:
        """Keys one segment's single-mode txns read (wire_conflict: one per txn)."""
        if self.name == "wire_conflict":
            return 2 * self.reads
        return self.reads * self.read_width + self.writes * self.write_width


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "wire_read",
            keys=2000, reads=360, writes=40, read_width=4, write_width=1, segments=60,
        ),
        Spec(
            "wire_conflict",
            keys=HOT_KEYS, reads=128, writes=0, read_width=1, write_width=1, segments=64,
        ),
        Spec(
            "embedded_shard",
            keys=4000, reads=300, writes=300, read_width=4, write_width=2, segments=60,
        ),
        Spec(
            "embedded_durable",
            keys=2000, reads=2000, writes=2000, read_width=4, write_width=2, segments=32,
        ),
    )
}


def key_name(index: int) -> str:
    return "k%05d" % index


# -- op generation ------------------------------------------------------------


def _rng(name: str, seed: int, part: Any) -> random.Random:
    # str seeds hash through SHA-512: stable across processes and versions.
    return random.Random("%s/%d/%s" % (name, seed, part))


def segment_ops(name: str, seed: int, index: int) -> List[tuple]:
    """The ops of segment ``index``; same composition for every index."""
    spec = SPECS[name]
    rng = _rng(name, seed, index)
    if name == "wire_conflict":
        rounds = []
        for r in range(spec.reads):
            merger = -1
            if r % MERGE_EVERY == 0:
                # sessions take turns merging, across segments too
                merger = (index * (spec.reads // MERGE_EVERY) + r // MERGE_EVERY) & 1
            rounds.append(
                (
                    key_name(rng.randrange(HOT_KEYS)),
                    key_name(rng.randrange(HOT_KEYS)),
                    merger,
                )
            )
        return rounds
    kinds = [READ] * spec.reads + [WRITE] * spec.writes
    rng.shuffle(kinds)
    ops = []
    for kind in kinds:
        width = spec.read_width if kind == READ else spec.write_width
        if kind == READ:
            keys = tuple(key_name(rng.randrange(spec.keys)) for _ in range(width))
        else:
            keys = tuple(key_name(k) for k in rng.sample(range(spec.keys), width))
        ops.append((kind, keys))
    return ops


def warmup_keys(name: str, seed: int) -> List[str]:
    spec = SPECS[name]
    rng = _rng(name, seed, "warmup")
    return [key_name(rng.randrange(spec.keys)) for _ in range(2 * WARMUP_READS)]


def ops_digest(name: str, seed: int, segments: int) -> str:
    """SHA-256 over the first ``segments`` segments (pinned by the tests)."""
    digest = hashlib.sha256()
    for index in range(segments):
        digest.update(json.dumps(segment_ops(name, seed, index)).encode())
    return digest.hexdigest()


def composition(name: str, ops: List[tuple]) -> Tuple[int, ...]:
    """What a segment is made of; equal for every segment of a workload."""
    if name == "wire_conflict":
        return (len(ops), sum(1 for op in ops if op[2] >= 0))
    return (
        sum(1 for kind, _ in ops if kind == READ),
        sum(1 for kind, _ in ops if kind == WRITE),
        sum(len(keys) for _, keys in ops),
    )


# -- drivers ---------------------------------------------------------------------


class _NoTracer:
    """Stands in for ``tracewrap.Tracer`` on untraced passes."""

    txn = -1


class Workload:
    """One workload's system under test, from set-up to teardown.

    The client library and the embedded store offer the same transaction
    shape (``begin``, ``get``, ``get_many``, ``put``, ``commit``), so
    preload, warm-up, the read / read-modify-write mix and the read-back
    are written once against ``begin``; a subclass says where a
    transaction comes from.
    """

    #: True when the store is behind ``tardis serve`` and two connections.
    wire = False

    def __init__(
        self, name: str, seed: int, run_dir: str, cpu: int, ref: RefSampler, tracer: Any = None
    ) -> None:
        self.spec = SPECS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.cpu = cpu
        #: sampled between the steps of set-up, so ``setup_s`` can be put
        #: on the calm-box scale like every other time.
        self.ref = ref
        self.traced = tracer is not None
        self.tracer = tracer if tracer is not None else _NoTracer()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: exact expected value of every key (unused by wire_conflict).
        self.model: Dict[str, int] = {}
        self._txn_seq = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def begin(self, who: int, read_only: bool = False) -> Any:
        """A transaction on session ``who`` (0 = A, 1 = B), numbered for the spans.

        Txn number = order of BEGIN/MERGE since the store started; the
        traced server counts the same way, so both span files agree.
        """
        self.tracer.txn = self._txn_seq
        self._txn_seq += 1
        return self._open(who, read_only)

    def _open(self, who: int, read_only: bool) -> Any:
        raise NotImplementedError

    def _preload_and_warm_up(self) -> None:
        keys = [key_name(i) for i in range(self.spec.keys)]
        for base in range(0, len(keys), PRELOAD_BATCH):
            self.ref.sample()
            txn = self.begin(0)
            for key in keys[base : base + PRELOAD_BATCH]:
                txn.put(key, 0)
            txn.commit()
        self.model = dict.fromkeys(keys, 0)
        for i, key in enumerate(warmup_keys(self.spec.name, self.seed)):
            if i % WARMUP_CHUNK == 0:
                self.ref.sample()
            txn = self.begin(i & 1, read_only=True)
            if txn.get(key) != 0:
                raise RuntimeError("warm-up read of %s is not the preloaded 0" % key)
            txn.commit()

    def run_chunk(self, ops: List[tuple], lat: List[float]) -> None:
        """Run ``ops`` (a CHUNKS-th of a segment), appending txn latencies.

        The read / read-modify-write mix; sessions alternate, every read
        is checked against the model.
        """
        begin = self.begin
        model = self.model
        clock = time.perf_counter
        for kind, keys in ops:
            who = self.attempted & 1
            start = clock()
            try:
                if kind == READ:
                    txn = begin(who, read_only=True)
                    values = txn.get_many(list(keys))
                    txn.commit()
                else:
                    txn = begin(who)
                    values = [txn.get(key) for key in keys]
                    for key, value in zip(keys, values):
                        txn.put(key, value + 1)
                    txn.commit()
            except TardisError as exc:
                lat.append(clock() - start)
                self._fail("txn %d: %r" % (self.attempted, exc))
            else:
                lat.append(clock() - start)
                if values != [model[key] for key in keys]:
                    self._fail("txn %d read a value the model does not hold" % self.attempted)
                if kind == WRITE:
                    for key, value in zip(keys, values):
                        model[key] = value + 1
            self.attempted += 1

    def _read_back(self, begin_read: Callable[[int], Any], what: str) -> List[str]:
        """Every key through the public API against the model."""
        keys = sorted(self.model)
        wrong = 0
        for base in range(0, len(keys), PRELOAD_BATCH):
            batch = keys[base : base + PRELOAD_BATCH]
            txn = begin_read((base // PRELOAD_BATCH) & 1)
            values = txn.get_many(batch)
            txn.commit()
            wrong += sum(1 for k, v in zip(batch, values) if v != self.model[k])
        if wrong:
            return ["%s: %d of %d keys differ from the model" % (what, wrong, len(keys))]
        return []

    # overridden below
    def setup(self) -> None:
        raise NotImplementedError

    def store_pids(self) -> List[int]:
        """Processes hosting the store (peak RSS is summed over them)."""
        raise NotImplementedError

    def other_pids(self) -> List[int]:
        """Benchmark-owned processes besides this one (CPU is summed)."""
        raise NotImplementedError

    def end_of_segment(self) -> float:
        """Maintenance inside the segment's wall time; returns its seconds."""
        return 0.0

    def counts(self) -> Dict[str, Any]:
        """Deterministic counters, read after the last segment."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Check the outputs; returns the problems found (empty = correct)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class _WireWorkload(Workload):
    """Shared by the wire workloads: a ``tardis serve`` subprocess, two sessions."""

    wire = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        span_path = os.path.join(self.run_dir, "server-spans.jsonl") if self.traced else None
        self.server = ServerProcess(self.run_dir, self.cpu, span_path)
        self.clients: List[TardisClient] = []
        self.report: Optional[Dict[str, Any]] = None

    def _open(self, who: int, read_only: bool) -> Any:
        return self.clients[who].begin(read_only=read_only)

    def setup(self) -> None:
        self.server.start()
        self.clients = [
            TardisClient(port=self.server.port, session=name, timeout=30.0)
            for name in ("A", "B")
        ]
        self._preload_and_warm_up()

    def store_pids(self) -> List[int]:
        return [self.server.pid]

    def other_pids(self) -> List[int]:
        return [self.server.pid]

    def obs_snapshot(self) -> Dict[str, Any]:
        """Fresh server counters and per-op histograms (STATS would replay
        the first snapshot it ever took; see README, "Found in src/")."""
        return self.clients[0].obs_snapshot(tail=0)

    def counts(self) -> Dict[str, Any]:
        store = self.clients[0].stats()["store"]
        return {
            "dag.live_states_end": store["states"],
            "dag.leaves_end": store["leaves"],
            "versions.records_end": store["records"],
            "store.merges": store["merges"],
        }

    def stop_server(self) -> List[str]:
        problems = []
        for client in self.clients:
            client.close()
        self.clients = []
        self.report = self.server.stop()
        if self.report.get("leaked_sessions"):
            problems.append("leaked_sessions %r" % self.report["leaked_sessions"])
        if self.report.get("exit_code") != 0:
            problems.append("server exit code %r" % self.report.get("exit_code"))
        return problems

    def close(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except (OSError, TardisError):
                pass
        self.clients = []
        if self.report is None and self.server.proc is not None:
            self.server.kill()


class WireRead(_WireWorkload):
    def verify(self) -> List[str]:
        problems = self._read_back(lambda who: self.begin(who, read_only=True), "read-back")
        return problems + self.stop_server()


class WireConflict(_WireWorkload):
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.merges_issued = 0
        self.conflict_keys = 0

    def _merge(self, who: int) -> int:
        """Merge on session ``who``, every conflict key to the max; returns the key count."""
        self.tracer.txn = self._txn_seq
        self._txn_seq += 1
        merge = self.clients[who].merge()
        try:
            for conflict in merge.conflicts:
                merge.put(conflict["key"], max(conflict["values"]))
            merge.commit()
        except TardisError:
            if merge.status == "active":
                merge.abort()
            raise
        self.merges_issued += 1
        return len(merge.conflicts)

    def run_chunk(self, rounds: List[tuple], lat: List[float]) -> None:
        tracer = self.tracer
        clock = time.perf_counter
        for key_a, key_b, merger in rounds:
            if merger >= 0:
                start = clock()
                try:
                    self.conflict_keys += self._merge(merger)
                except TardisError as exc:
                    self._fail("merge at txn %d: %r" % (self.attempted, exc))
                lat.append(clock() - start)
                self.attempted += 1
            # Lock-step: both begin before either commits, so the second
            # committer forks exactly when the keys collide. A txn's
            # latency is the sum of its own calls.
            lat_a = lat_b = 0.0
            opened: List[Any] = []
            try:
                t = clock(); txn_a = self.begin(0); lat_a = clock() - t
                opened.append(txn_a)
                seq_a = tracer.txn
                t = clock(); txn_b = self.begin(1); lat_b = clock() - t
                opened.append(txn_b)
                seq_b = tracer.txn
                tracer.txn = seq_a
                t = clock(); txn_a.put(key_a, txn_a.get(key_a) + 1); lat_a += clock() - t
                tracer.txn = seq_b
                t = clock(); txn_b.put(key_b, txn_b.get(key_b) + 1); lat_b += clock() - t
                tracer.txn = seq_a
                t = clock(); txn_a.commit(); lat_a += clock() - t
                tracer.txn = seq_b
                t = clock(); txn_b.commit(); lat_b += clock() - t
            except TardisError as exc:
                # one failure per txn of the round that did not commit, and
                # none of them stays open on the server
                for txn in opened:
                    if txn.status == "active":
                        try:
                            txn.abort()
                        except TardisError:
                            pass
                committed = sum(1 for txn in opened if txn.status == "committed")
                for _ in range(2 - committed):
                    self._fail("round at txn %d: %r" % (self.attempted, exc))
            lat.append(lat_a)
            lat.append(lat_b)
            self.attempted += 2

    def counts(self) -> Dict[str, Any]:
        counts = super().counts()
        counts["merge.merges"] = self.merges_issued
        counts["merge.conflict_keys"] = self.conflict_keys
        return counts

    def verify(self) -> List[str]:
        problems = []
        self._merge(0)
        keys = [key_name(i) for i in range(HOT_KEYS)]
        views = []
        for who in (0, 1):
            txn = self.begin(who, read_only=True)
            views.append(txn.get_many(keys))
            txn.commit()
        if views[0] != views[1]:
            problems.append("sessions disagree after the final merge: %r" % (views,))
        store = self.clients[0].stats()["store"]
        if store["leaves"] != 1:
            problems.append("leaves == %d after the final merge" % store["leaves"])
        if store["merges"] != self.merges_issued:
            problems.append(
                "server counts %d merges, %d were issued" % (store["merges"], self.merges_issued)
            )
        if self.conflict_keys == 0:
            problems.append("no merge saw a conflict key")
        return problems + self.stop_server()


class _EmbeddedWorkload(Workload):
    """Shared by the embedded workloads: the store lives in this process."""

    store: Optional[TardisStore] = None

    def _make_store(self) -> TardisStore:
        raise NotImplementedError

    def _open(self, who: int, read_only: bool) -> Any:
        return self.store.begin(session=self.sessions[who], read_only=read_only)

    def setup(self) -> None:
        self.store = self._make_store()
        self.sessions = [self.store.session("A"), self.store.session("B")]
        self._preload_and_warm_up()
        self._forks_before = self.store.metrics.forks

    def counts(self) -> Dict[str, Any]:
        store = self.store
        return {
            "dag.live_states_end": len(store.dag),
            "dag.leaves_end": len(store.dag.leaves()),
            "dag.forks": store.metrics.forks - self._forks_before,
            "versions.records_end": store.versions.num_records(),
            "store.merges": store.metrics.merges,
        }

    def verify(self) -> List[str]:
        """Read-back and no forks; leaves the store closed."""
        problems = self._read_back(lambda who: self.begin(who, read_only=True), "read-back")
        if self.store.metrics.forks != self._forks_before:
            problems.append("sequential sessions forked")
        return problems

    def _close_store(self) -> None:
        # TardisStore.close is not idempotent with a WAL (it flushes the
        # closed file), so the workload remembers.
        store, self.store = self.store, None
        if store is not None:
            store.close()

    def close(self) -> None:
        self._close_store()


class EmbeddedShard(_EmbeddedWorkload):
    def _make_store(self) -> TardisStore:
        return TardisStore("bench", shards=4, shard_workers=2)

    def _worker_pids(self) -> List[int]:
        health = self.store.shard_health(ping=False) or {}
        return [w["pid"] for w in health.get("workers", []) if w.get("pid")]

    def store_pids(self) -> List[int]:
        return [os.getpid()] + self._worker_pids()

    def other_pids(self) -> List[int]:
        return self._worker_pids()

    def verify(self) -> List[str]:
        problems = super().verify()
        store = self.store
        self._close_store()
        if store.leaked_workers:
            problems.append("leaked_workers == %d" % store.leaked_workers)
        return problems


class EmbeddedDurable(_EmbeddedWorkload):
    #: the only configuration in which the WAL calls fsync: appends buffer
    #: in memory and every 16th commit writes and fsyncs the batch.
    FLUSH_POLICY = "wal_sync=False, group_commit=16: write+fsync every 16 commits"
    GROUP_COMMIT = 16

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.wal_path = os.path.join(self.run_dir, "durable.wal")
        self.gc_stats: List[Any] = []
        self.recovery: Dict[str, Any] = {}

    def _make_store(self) -> TardisStore:
        return TardisStore(
            "bench", wal_path=self.wal_path, wal_sync=False, group_commit=self.GROUP_COMMIT
        )

    def store_pids(self) -> List[int]:
        return [os.getpid()]

    def other_pids(self) -> List[int]:
        return []

    def end_of_segment(self) -> float:
        start = time.perf_counter()
        for session in self.sessions:
            session.place_ceiling()
        self.gc_stats.append(self.store.collect_garbage())
        return time.perf_counter() - start

    def verify(self) -> List[str]:
        problems = super().verify()
        commits = self.store.metrics.commits
        self._close_store()
        start = time.perf_counter()
        recovered, report = recover_store("recovered", self.wal_path)
        self.recovery = dict(report, replay_s=time.perf_counter() - start)
        self.recovery["wal_bytes"] = os.path.getsize(self.wal_path)
        try:
            if report["discarded"] != 0:
                problems.append("recovery discarded %d commits" % report["discarded"])
            if report["replayed"] != commits:
                problems.append(
                    "recovery replayed %d of %d commits" % (report["replayed"], commits)
                )
            session = recovered.session("verify")
            problems += self._read_back(
                lambda who: recovered.begin(session=session, read_only=True), "recovered store"
            )
        finally:
            recovered.close()
        return problems


WORKLOADS = {
    "wire_read": WireRead,
    "wire_conflict": WireConflict,
    "embedded_shard": EmbeddedShard,
    "embedded_durable": EmbeddedDurable,
}


def make_workload(
    name: str, seed: int, run_dir: str, cpu: int, ref: RefSampler, tracer: Any = None
) -> Workload:
    return WORKLOADS[name](name, seed, run_dir, cpu, ref, tracer)
