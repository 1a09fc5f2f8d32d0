"""Tests of the benchmark harness itself.

    python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths`` there is ``tests``). The last three tests
start servers and shard workers and take about a minute together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
for path in (HERE, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import run as bench  # noqa: E402
import tracewrap  # noqa: E402
import workloads  # noqa: E402

#: ops_digest(name, seed=1, segments=2); a change here changes what every
#: earlier measurement ran, so it must be deliberate.
PINNED = {
    "wire_read": "f252c1aa5c5c9916d9189a105f24d73809e6354fad172d6d836d46e01897dad2",
    "wire_conflict": "c956675c164851853d9cf74a92492ff2b5a2cb751c43e4cdf5097682a02e37b2",
    "embedded_shard": "ab603287ac79fd5279d6220025997b8e7658a9c37261aa828a022721100fe349",
    "embedded_durable": "a99d9d127372d1e0c0ba288c2abab9899cd931e7c77dac2c21d1b62fff979379",
}

#: per-layer metrics that must repeat exactly for one seed.
EXACT_COUNTS = [
    "client.calls_per_txn",
    "protocol.bytes_per_txn",
    "server.requests_per_txn",
    "dag.forks",
    "dag.leaves_max",
    "dag.live_states_end",
    "versions.records_end",
    "merge.conflict_keys_per_merge",
    "gc.states_removed_per_cycle",
    "gc.records_promoted_per_cycle",
    "wal.flushes_per_kcommit",
    "wal.bytes_per_commit",
    "workers.rpcs_per_txn",
    "recovery.replayed",
    "recovery.discarded",
    "trace.segments",
    "trace.txns",
]


def _run(*args: str, cwd: str = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- op sequences ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_same_ops_and_pinned(name):
    assert workloads.ops_digest(name, 1, 2) == workloads.ops_digest(name, 1, 2)
    assert workloads.ops_digest(name, 1, 2) == PINNED[name]
    assert workloads.ops_digest(name, 2, 2) != PINNED[name]


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_every_segment_has_the_same_composition(name):
    spec = workloads.SPECS[name]
    shapes = {
        workloads.composition(name, workloads.segment_ops(name, seed, index))
        for seed in (1, 7)
        for index in range(6)
    }
    assert len(shapes) == 1
    ops = workloads.segment_ops(name, 1, 0)
    if name == "wire_conflict":
        assert 2 * len(ops) + sum(1 for op in ops if op[2] >= 0) == spec.seg_txns
        mergers = [
            op[2]
            for index in range(2)
            for op in workloads.segment_ops(name, 1, index)
            if op[2] >= 0
        ]
        assert mergers == [0, 1] * (len(mergers) // 2)  # sessions take turns
    else:
        assert len(ops) == spec.seg_txns
    # a segment p95 needs MIN_SAMPLES_BEYOND samples beyond it
    assert spec.seg_txns * 0.05 >= harness.MIN_SAMPLES_BEYOND + 2


def test_run_length_is_a_fixed_count_not_a_duration():
    for name, spec in workloads.SPECS.items():
        assert bench.planned_segments(name, workloads.RUN_SECONDS) == spec.segments
        assert bench.planned_segments(name, workloads.RUN_SECONDS / 2) == round(spec.segments / 2)
        assert bench.planned_segments(name, 0.1) == bench.SMOKE_SEGMENTS
        # a median over segments, and the deadline, need this many
        assert spec.segments >= 4 * bench.MIN_SEGMENTS


class _FakeTxn:
    def __init__(self, fail_on):
        self.status = "active"
        self.fail_on = fail_on

    def get(self, key):
        return 0

    def put(self, key, value):
        if self.fail_on == "put":
            raise workloads.TardisError("refused")

    def commit(self):
        if self.fail_on == "commit":
            self.status = "aborted"
            raise workloads.TardisError("aborted")
        self.status = "committed"

    def abort(self):
        self.status = "aborted"


class _FakeClient:
    def __init__(self, fail_on=None):
        self.fail_on = fail_on
        self.txns = []

    def begin(self, read_only=False):
        self.txns.append(_FakeTxn(self.fail_on))
        return self.txns[-1]


@pytest.mark.parametrize(
    "fail_a, fail_b, failed", [(None, None, 0), (None, "commit", 1), ("put", None, 2)]
)
def test_a_failed_round_counts_each_txn_and_leaves_none_open(tmp_path, fail_a, fail_b, failed):
    conflict = workloads.make_workload("wire_conflict", 1, str(tmp_path), 0, harness.RefSampler())
    conflict.clients = [_FakeClient(fail_a), _FakeClient(fail_b)]
    lat = []
    conflict.run_chunk([("k00000", "k00001", -1)] * 3, lat)
    assert (conflict.attempted, conflict.failed, len(lat)) == (6, 3 * failed, 6)
    assert not [t for c in conflict.clients for t in c.txns if t.status == "active"]
    conflict.clients = []


# -- estimators -----------------------------------------------------------------


def test_median_of_segments_ignores_a_burst():
    calm = [100.0, 101.0, 99.0, 100.5, 100.2]
    assert harness.median_of_segments(calm + [33.0, 35.0]) == 100.0
    with pytest.raises(ValueError):
        harness.median_of_segments([])


def test_percentile_is_nearest_rank_and_refuses_a_thin_tail():
    values = sorted(float(i) for i in range(1, 401))
    assert harness.percentile(values, 0.50) == 200.0
    assert harness.percentile(values, 0.95) == 380.0
    assert harness.percentile(values[:200], 0.95) == 190.0  # exactly 10 beyond
    with pytest.raises(ValueError):
        harness.percentile(values[:199], 0.95)  # 9 beyond
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_slowdown_is_the_mean_sample_over_the_calm_value():
    ref = harness.RefSampler()
    ref.samples = [harness.REF_NOMINAL_MS, 3 * harness.REF_NOMINAL_MS, 2 * harness.REF_NOMINAL_MS]
    assert ref.slowdown() == pytest.approx(2.0)
    assert ref.slowdown(since=1) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        ref.slowdown(since=ref.mark())
    ref.sample()
    assert ref.mark() == 4 and ref.spent_s == pytest.approx(ref.samples[-1] / 1e3)


def test_quartile_spread_is_the_drivers_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert harness.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def test_children_run_with_a_fixed_hash_seed_and_an_untrimmed_heap():
    env = harness.child_env()
    assert env["PYTHONHASHSEED"] == "0"
    # README, "Found in src/": without these the wire results depend on the
    # length of the checkout's path
    assert int(env["MALLOC_MMAP_THRESHOLD_"]) > 256 * 1024
    assert int(env["MALLOC_TRIM_THRESHOLD_"]) > int(env["MALLOC_MMAP_THRESHOLD_"])
    assert env["PYTHONPATH"].split(os.pathsep)[0] == harness.SRC_DIR


# -- wrappers -------------------------------------------------------------------


def test_wrappers_off_means_original_functions():
    import repro.client.client as client_mod
    import repro.server.protocol as protocol
    import repro.server.server as server_mod

    assert client_mod.encode_frame is protocol.encode_frame
    assert server_mod.encode_frame is protocol.encode_frame
    for owner, attr, *_rest in tracewrap.all_targets():
        assert not hasattr(owner.__dict__[attr], "__wrapped__"), (owner, attr)


def test_wrappers_patch_the_imported_name_and_restore_it():
    import repro.client.client as client_mod
    import repro.server.protocol as protocol

    originals = {
        (id(owner), attr): owner.__dict__[attr]
        for owner, attr, *_rest in tracewrap.all_targets()
    }
    tracer = tracewrap.Tracer("test")
    tracer.install(tracewrap.TARGETS["client"])
    try:
        # client.py did ``from ...protocol import encode_frame``: the name
        # it calls is its own, and that is the one replaced.
        assert client_mod.encode_frame is not protocol.encode_frame
        assert client_mod.encode_frame.__wrapped__ is protocol.encode_frame
        frame = client_mod.encode_frame({"id": 1, "op": "STATS"})
        assert frame == protocol.encode_frame({"id": 1, "op": "STATS"})
        (row,) = [r for r in tracer.rows if r is not None]
        assert row[2:4] == ("client.codec", "encode_frame") and row[6] == len(frame)
    finally:
        tracer.uninstall()
    for owner, attr, *_rest in tracewrap.all_targets():
        assert owner.__dict__[attr] is originals[(id(owner), attr)], (owner, attr)


def test_self_time_is_span_minus_children():
    rows = [
        (0.0, 10.0, "outer", "a", -1, 0, 0),
        (1.0, 4.0, "inner", "b", 0, 0, 0),
        (5.0, 6.0, "inner", "b", 0, 0, 0),
        (20.0, 21.0, "outer", "a", -1, 1, 0),  # outside the window
    ]
    table = tracewrap.SpanTable(rows, 0.0, 15.0)
    assert table.layer_self("outer") == pytest.approx(6.0)
    assert table.layer_self("inner") == pytest.approx(4.0)
    assert table.top_level_total == pytest.approx(10.0)
    assert table.count[("inner", "b")] == 2


# -- the benchmark's contract ------------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.SPECS)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in doc["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in doc["per_layer"])
    assert doc["end_to_end"][0]["name"] == "setup_s"
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert set(EXACT_COUNTS) <= {m["name"] for m in doc["per_layer"]}


def test_refuses_to_run_without_src(tmp_path):
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".run", "__pycache__", ".pytest_cache"),
    )
    done = _run("--workload", "wire_read", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_emits_every_metric_and_passes_its_checks():
    summary = _last_json(_run("--smoke", "--seed", "5"))
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] > 0
    expected = {
        "%s/%s" % (name, metric): unit
        for name in workloads.SPECS
        for metric, unit in harness.metric_units("end_to_end")
    }
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert not os.listdir(harness.RUN_ROOT) or os.listdir(harness.RUN_ROOT) == ["spans"]


def test_driver_form_prints_exactly_the_contract_keys():
    summary = _last_json(
        _run("--workload", "embedded_durable", "--seed", "2", "--seconds", "1", "--trace", "0")
    )
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert list(summary["metrics"]) == [m[0] for m in harness.metric_units("end_to_end")]
    assert summary["correct"] is True


def test_two_traced_smokes_agree_on_every_count():
    first = _last_json(_run("--smoke", "--trace", "--seed", "5"))
    second = _last_json(_run("--smoke", "--trace", "--seed", "5"))
    assert first["correct"] and second["correct"]
    assert len(first["metrics"]) == len(workloads.SPECS) * len(harness.metric_units("per_layer"))
    for name in workloads.SPECS:
        for metric in EXACT_COUNTS:
            key = "%s/%s" % (name, metric)
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["wire_conflict/dag.forks"]["value"] > 0
    assert first["metrics"]["wire_conflict/merge.conflict_keys_per_merge"]["value"] > 0
    for name in ("wire_read", "embedded_shard", "embedded_durable"):
        assert first["metrics"]["%s/dag.forks" % name]["value"] == 0
    for side in ("generator", "server"):
        assert os.path.exists(os.path.join(harness.SPAN_DIR, "wire_read-%s.jsonl" % side))
