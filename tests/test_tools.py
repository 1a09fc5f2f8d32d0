"""Tests for the tooling: DOT export, store summaries, CLI."""

import argparse
import json

import pytest

from repro import TardisStore, analysis, checkpoint_store
from repro.obs.tracing import ROW_COLUMNS
from repro.tools import dag_to_dot, describe_store, store_summary
from repro.tools.cli import build_parser, main


@pytest.fixture
def branched_store():
    store = TardisStore("demo")
    a, b = store.session("a"), store.session("b")
    store.put("x", 0, session=a)
    t1, t2 = store.begin(session=a), store.begin(session=b)
    t1.put("x", t1.get("x") + 1)
    t2.put("x", t2.get("x") + 2)
    t1.commit()
    t2.commit()
    m = store.begin_merge(session=a)
    m.put("x", 3)
    m.commit()
    return store


class TestDot:
    def test_valid_dot_structure(self, branched_store):
        dot = dag_to_dot(branched_store)
        assert dot.startswith("digraph tardis {")
        assert dot.endswith("}")
        # one node line per state
        assert dot.count("->") >= len(branched_store.dag) - 1

    def test_styles_reflect_roles(self, branched_store):
        dot = dag_to_dot(branched_store)
        assert "lightblue" in dot  # fork point
        assert "khaki" in dot      # merge state
        assert "palegreen" in dot  # leaf

    def test_write_labels(self, branched_store):
        dot = dag_to_dot(branched_store)
        assert "{x}" in dot
        bare = dag_to_dot(branched_store, show_writes=False)
        assert "{x}" not in bare

    def test_label_key_cap(self):
        store = TardisStore("demo")
        with store.begin() as t:
            for i in range(10):
                t.put("key%d" % i, i)
        dot = dag_to_dot(store, max_label_keys=2)
        assert "..." in dot


class TestSummary:
    def test_summary_fields(self, branched_store):
        summary = store_summary(branched_store)
        assert summary["states"] == len(branched_store.dag)
        assert summary["fork_points"] == 1
        assert summary["merges"] == 1
        assert summary["commits"] == 4
        assert summary["leaves"] == 1

    def test_summary_and_report_read_the_dag_under_the_store_lock(self, branched_store):
        # A writer thread's commit or GC cycle resizes the DAG's state
        # table: an unlocked ``num_forks`` raised "dictionary changed size
        # during iteration" within seconds of such a writer. With the
        # lock guard on, an unlocked DAG call raises at once.
        store = branched_store
        store._guard_lock()
        assert store_summary(store)["fork_points"] == 1
        assert "branches" in describe_store(store, keys=["x"])
        assert dag_to_dot(store).startswith("digraph")

    def test_describe_store(self, branched_store):
        text = describe_store(branched_store, keys=["x"])
        assert "site 'demo'" in text
        assert "'x'" in text and "3" in text
        assert "branches" in text
        # the merged leaf's path decodes to both branches of the fork
        assert ",0)(s" in text and ",1)}" in text


class TestCli:
    def test_bench_command(self, capsys):
        rc = main([
            "bench", "--system", "tardis", "--mix", "read-heavy",
            "--clients", "2", "--duration", "20", "--cores", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tardis" in out and "txn/s" in out

    def test_bench_json(self, capsys):
        rc = main([
            "bench", "--system", "bdb", "--mix", "write-heavy",
            "--clients", "2", "--duration", "20", "--cores", "2", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "bdb"
        assert payload["throughput_tps"] > 0
        assert set(payload["op_breakdown_ms"]) == {"begin", "get", "put", "commit"}

    def test_demo_command(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "counter" in out

    def test_demo_dot(self, capsys):
        assert main(["demo", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_metrics_command(self, capsys):
        rc = main([
            "metrics", "--mix", "write-heavy",
            "--clients", "4", "--duration", "40", "--cores", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- branches" in out
        assert "conflict_rate=" in out
        assert "-- gc debt" in out
        assert "tardis_txn_commit_total" in out
        assert "leaf " in out
        panel = out.split("-- recent rows (ring dropped=")[1].splitlines()[1:]
        assert len(panel) == 10
        assert {line.split()[1].split(".")[0] for line in panel} <= {"txn", "branch", "gc"}

    def test_metrics_command_reads_the_runs_store(self, capsys):
        """``tardis metrics`` shows the registry of the store it ran."""
        assert main(["metrics", "--clients", "2", "--duration", "20",
                     "--cores", "2", "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "tardis_txn_commit_total" in text
        assert "run_commit_total" not in text  # the run's own counts stay in obs_metrics

    def test_metrics_json(self, capsys):
        rc = main([
            "metrics", "--mix", "mixed",
            "--clients", "2", "--duration", "30", "--cores", "2",
            "--events", "5", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["tardis_txn_begin_total"]["value"] > 0
        assert len(payload["events"]) == 5
        assert all(set(row) == {"seq", *ROW_COLUMNS, "ref"} for row in payload["events"])

    def test_metrics_prometheus(self, capsys):
        rc = main([
            "metrics", "--system", "bdb", "--mix", "write-heavy",
            "--clients", "2", "--duration", "30", "--cores", "2",
            "--prometheus",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# TYPE baseline_2pl_commit_total counter" in out
        # no branch panel for a non-TARDiS system, but the dump works
        assert "tardis_branch_fork_total" not in out

    @pytest.mark.parametrize("system", ["bdb", "occ"])
    def test_metrics_command_on_a_baseline(self, capsys, system):
        rc = main([
            "metrics", "--system", system, "--duration", "5", "--clients", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-- metrics" in out
        # a baseline has no DAG: no branch or GC panel
        assert "-- branches" not in out and "-- gc debt" not in out

    def test_check_help_names_exactly_the_registered_rules(self):
        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        help_text = next(
            action.help for action in subcommands._choices_actions
            if action.dest == "check"
        )
        listed = help_text.split(": ", 1)[1].split(" (", 1)[0].split(", ")
        assert listed == [rule.id for rule in analysis.ALL_RULES]

    def test_recover_command(self, tmp_path, capsys):
        wal = str(tmp_path / "wal.log")
        store = TardisStore("A", wal_path=wal)
        store.put("x", 42)
        store.close()
        assert main(["recover", wal]) == 0
        out = capsys.readouterr().out
        assert '"replayed": 1' in out
        assert "recovered" in out

    def test_recover_command_reads_the_checkpoint_beside_the_log(
        self, tmp_path, capsys, monkeypatch
    ):
        wal = str(tmp_path / "wal.log")
        store = TardisStore("A", wal_path=wal)
        for i in range(3):
            store.put("x", i)
        n = checkpoint_store(store)
        store.close()
        described = []
        monkeypatch.setattr(
            "repro.tools.inspect.describe_store",
            lambda store: described.append(store) or describe_store(store),
        )
        assert main(["recover", wal]) == 0
        out = capsys.readouterr().out
        report = json.loads(out.split("recovery report:", 1)[1].splitlines()[0])
        assert report == {"checkpoint_states": n, "replayed": 0, "discarded": 0}
        [recovered] = described
        assert recovered.get("x") == 2


class TestTraceCommand:
    def test_trace_prints_multi_site_timeline(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        # commit at the origin, replicate, apply at each peer, merge
        assert out.startswith("trace s1@us:")
        assert "3 sites" in out
        assert "txn.commit" in out
        assert "repl.send" in out
        assert "repl.apply" in out
        assert "branch.merge" in out
        # the apply lands at both peers
        apply_sites = {
            line.split()[1]
            for line in out.splitlines()
            if "repl.apply" in line
        }
        assert apply_sites >= {"eu", "asia"}

    def test_trace_of_a_merged_parent_shows_the_merge(self, capsys):
        assert main(["trace", "--txn", "s1@eu"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "trace s1@eu: 5 events across 3 sites"
        # (time, site, layer.name, trace id)
        assert [line.split()[:4] for line in lines[1:]] == [
            ["0.000ms", "eu", "txn.commit", "s1@eu"],
            ["0.000ms", "eu", "repl.send", "s1@eu"],
            ["50.000ms", "us", "repl.apply", "s1@eu"],
            ["125.000ms", "asia", "repl.apply", "s1@eu"],
            ["300.000ms", "asia", "branch.merge", "s2@asia"],
        ]

    def test_trace_unknown_txn_lists_known(self, capsys):
        assert main(["trace", "--txn", "s999@zz"]) == 1
        out = capsys.readouterr().out
        assert "no events for trace 's999@zz'" in out
        assert "s1@us" in out  # known traces are suggested
