"""Tests for ``tardis check``: the rule engine, each rule against fixture
snippets, suppression comments, the JSON report schema, regression tests
for the real violations the rules flagged when first run over the tree,
and one planted bug per rule in the real source (the §11.4 ledger's
evidence)."""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro import TardisStore
from repro.analysis import (
    ALL_RULES,
    Rule,
    check_repo,
    default_rules,
    rules_by_id,
    run_check,
)
from repro.analysis.engine import (
    REPORT_SCHEMA,
    Project,
    SourceModule,
    TextFile,
    load_project,
)
from repro.analysis.rules.hygiene import BareExceptRule, ImportHygieneRule
from repro.analysis.rules.lock_discipline import LockDisciplineRule
from repro.analysis.rules.metric_drift import MetricNameDriftRule
from repro.core.ids import ROOT_ID
from repro.core.state_dag import StateDAG
from repro.errors import GarbageCollectedError
from repro.obs import metrics as _met
from repro.speculation import SpeculativeExecutor
from repro.speculation.executor import FAILED
from repro.tools.cli import main as cli_main


def _module(source, relpath="src/repro/fixture.py"):
    return SourceModule(Path(relpath), relpath, textwrap.dedent(source))


def _findings(rule, source, relpath="src/repro/fixture.py"):
    return rule.check_module(_module(source, relpath))


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------


LOCK_FIXTURE = """
    import threading

    class Box:
        _GUARDED_BY = {"_items": "self._lock"}

        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put_locked(self, k, v):
            with self._lock:
                self._items[k] = v

        def put_unlocked(self, k, v):
            self._items[k] = v

        def pop_unlocked(self, k):
            return self._items.pop(k, None)

        def clear_nested(self):
            with self._lock:
                with self._other:
                    self._items.clear()
    """


class TestLockDiscipline:
    def test_unlocked_write_and_mutator_flagged(self):
        findings = _findings(LockDisciplineRule(), LOCK_FIXTURE)
        messages = [f.message for f in findings]
        assert len(findings) == 2
        assert any("put_unlocked" not in m and "assignment to" in m for m in messages)
        assert any("pop()" in m for m in messages)
        assert all(f.rule == "lock-discipline" for f in findings)
        assert all(f.severity == "error" for f in findings)

    def test_locked_write_and_init_are_clean(self):
        # Drop the two offending methods: everything left is disciplined
        # (__init__ writes are exempt, nested with keeps the lock held).
        clean = LOCK_FIXTURE.replace("put_unlocked", "put_locked2").replace(
            "self._items[k] = v\n", "pass\n", 1
        )
        src = textwrap.dedent(LOCK_FIXTURE)
        src = src.replace(
            "    def put_unlocked(self, k, v):\n        self._items[k] = v\n", ""
        )
        src = src.replace(
            "    def pop_unlocked(self, k):\n"
            "        return self._items.pop(k, None)\n",
            "",
        )
        rule = LockDisciplineRule()
        assert rule.check_module(SourceModule(Path("f.py"), "f.py", src)) == []

    def test_external_guard_not_statically_enforced(self):
        src = """
        class Ext:
            _GUARDED_BY = {"accesses": "external:TardisStore._lock"}

            def __init__(self):
                self.accesses = 0

            def bump(self):
                self.accesses += 1
        """
        assert _findings(LockDisciplineRule(), src) == []

    def test_undeclared_lock_is_an_error(self):
        src = """
        class NoLock:
            _GUARDED_BY = {"_x": "self._lock"}

            def __init__(self):
                self._x = 0
        """
        findings = _findings(LockDisciplineRule(), src)
        assert len(findings) == 1
        assert "never assigns self._lock" in findings[0].message


# ---------------------------------------------------------------------------
# metric-name-drift
# ---------------------------------------------------------------------------

# Fixture sources use implicit string concatenation for the deliberately
# bogus names so that scanning THIS test module (which is itself a
# consumer corpus for the real run) never sees the malformed token.

CATALOG_FIXTURE = """
    METRIC_NAMES = {
        "tardis_gc_cycle_total": "GC cycles run",
        "tardis_gc_live_records": "records alive after a GC cycle",
    }
    SERIES_NAMES = {
        "tardis_branch_count": "current leaf count",
    }
    """

PRODUCER_OK = """
    def tick(m, s):
        m.inc("tardis_gc_cycle_total")
        m.set_gauge("tardis_gc_live_records", 3)
        s._feed("tardis_branch_count@siteA", 1)
    """


def _drift_project(producer_src, docs_text=None, catalog_src=CATALOG_FIXTURE):
    modules = [
        _module(catalog_src, "src/repro/obs/metrics.py"),
        _module(producer_src, "src/repro/core/hot.py"),
    ]
    docs = []
    if docs_text is not None:
        docs.append(TextFile(Path("docs/x.md"), "docs/x.md", docs_text))
    return Project(root=Path("."), modules=modules, docs=docs)


class TestMetricNameDrift:
    def test_consistent_project_is_clean(self):
        rule = MetricNameDriftRule()
        assert rule.check_project(_drift_project(PRODUCER_OK)) == []

    def test_unknown_producer_name_flagged(self):
        drift = PRODUCER_OK + (
            '\n    def typo(m):\n        m.inc("tardis_" "gc_cycl_total")\n'
        )
        findings = MetricNameDriftRule().check_project(_drift_project(drift))
        assert len(findings) == 1
        assert "not in the catalogue" in findings[0].message
        assert findings[0].file == "src/repro/core/hot.py"

    def test_stale_catalogue_entry_flagged(self):
        # Producer never records the gauge: liveness check fires.
        thin = PRODUCER_OK.replace(
            '        m.set_gauge("tardis_gc_live_records", 3)\n', ""
        )
        findings = MetricNameDriftRule().check_project(_drift_project(thin))
        assert len(findings) == 1
        assert "never recorded" in findings[0].message
        assert findings[0].file == "src/repro/obs/metrics.py"

    def test_doc_reference_must_resolve(self):
        bad_doc = "The collector bumps " + "tardis_gc_" + "cycl_total each run.\n"
        findings = MetricNameDriftRule().check_project(
            _drift_project(PRODUCER_OK, docs_text=bad_doc)
        )
        assert len(findings) == 1
        assert findings[0].file == "docs/x.md"
        assert findings[0].line == 1

    def test_prefix_and_series_suffix_references_resolve(self):
        # Underscore-boundary prefixes (dashboard filters) and @site
        # series instances are legitimate consumer spellings.
        good_doc = "Watch tardis_gc and tardis_branch_count@siteB for drift.\n"
        rule = MetricNameDriftRule()
        assert rule.check_project(_drift_project(PRODUCER_OK, docs_text=good_doc)) == []

    def test_missing_catalogue_is_itself_a_finding(self):
        project = _drift_project(PRODUCER_OK, catalog_src="X = 1\n")
        findings = MetricNameDriftRule().check_project(project)
        assert len(findings) == 1
        assert "catalogue not found" in findings[0].message


# ---------------------------------------------------------------------------
# import-hygiene and bare-except
# ---------------------------------------------------------------------------


class TestHygieneRules:
    def test_duplicate_and_function_local_imports_flagged(self):
        src = """
        import os
        import os

        def f():
            import json
            return json

        def probe():
            try:
                import numpy
            except ImportError:
                numpy = None
            return numpy
        """
        findings = _findings(ImportHygieneRule(), src)
        assert len(findings) == 2
        assert all(f.severity == "error" for f in findings)
        assert any("already imported" in f.message for f in findings)
        assert any("inside f()" in f.message for f in findings)

    def test_from_imports_of_distinct_names_are_not_duplicates(self):
        src = """
        from os import path
        from os import sep
        """
        assert _findings(ImportHygieneRule(), src) == []

    def test_broad_handlers_without_reraise_flagged(self):
        src = """
        def f():
            try:
                return 1
            except Exception:
                pass

        def g():
            try:
                return 1
            except (ValueError, Exception):
                pass

        def h():
            try:
                return 1
            except:
                pass

        def cleanup_and_propagate():
            try:
                return 1
            except Exception:
                raise

        def typed():
            try:
                return 1
            except ValueError:
                pass
        """
        findings = _findings(BareExceptRule(), src)
        assert len(findings) == 3
        assert all(f.rule == "bare-except" for f in findings)
        assert any("bare except" in f.message for f in findings)


# ---------------------------------------------------------------------------
# engine: suppressions, report schema, CLI
# ---------------------------------------------------------------------------


BROAD_CATCH = """
    def f():
        try:
            return 1
        except Exception:{comment}
            pass
    """


def _run_bare_except(comment="", header=""):
    src = header + textwrap.dedent(BROAD_CATCH.format(comment=comment))
    project = Project(root=Path("."), modules=[SourceModule(Path("m.py"), "m.py", src)])
    return run_check(project, [BareExceptRule()])


class TestSuppressions:
    def test_line_suppression_drops_and_counts(self):
        report = _run_bare_except(comment="  # tardis: ignore[bare-except]")
        assert report.findings == []
        assert report.suppressed == 1
        assert report.ok and report.exit_code == 0

    def test_wildcard_line_suppression(self):
        report = _run_bare_except(comment="  # tardis: ignore[*]")
        assert report.findings == [] and report.suppressed == 1

    def test_file_suppression(self):
        report = _run_bare_except(header="# tardis: ignore-file[bare-except]\n")
        assert report.findings == [] and report.suppressed == 1

    def test_unrelated_suppression_does_not_apply(self):
        report = _run_bare_except(comment="  # tardis: ignore[lock-discipline]")
        assert len(report.findings) == 1
        assert report.suppressed == 0
        assert report.exit_code == 1


class TestReport:
    def test_json_schema(self):
        report = _run_bare_except()
        data = json.loads(report.to_json())
        assert data["schema_version"] == REPORT_SCHEMA == 1
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert data["rules"] == ["bare-except"]
        assert data["suppressed"] == 0
        assert data["counts"] == {"error": 1}
        (finding,) = data["findings"]
        assert set(finding) == {"file", "line", "rule", "severity", "message", "hint"}
        assert finding["file"] == "m.py"
        assert finding["rule"] == "bare-except"

    def test_text_format_has_summary_line(self):
        report = _run_bare_except()
        text = report.format()
        assert "m.py:" in text
        assert "1 finding(s), 0 suppressed, 1 file(s)" in text

    def test_rules_by_id(self):
        rules = rules_by_id(["bare-except", "lock-discipline"])
        assert [r.id for r in rules] == ["bare-except", "lock-discipline"]
        with pytest.raises(KeyError):
            rules_by_id(["no-such-rule"])
        assert {r.id for r in default_rules()} == {cls.id for cls in ALL_RULES}


class TestCli:
    def _write_pkg(self, tmp_path, body):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(textwrap.dedent(body))
        return pkg

    def test_check_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = self._write_pkg(tmp_path, "def f():\n    return 1\n")
        rc = cli_main(["check", "--root", str(pkg), "--format=json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0 and data["ok"] is True and data["files_checked"] == 1

    def test_check_finding_exits_nonzero(self, tmp_path, capsys):
        pkg = self._write_pkg(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """,
        )
        rc = cli_main(["check", "--root", str(pkg), "--format=json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert data["counts"]["error"] == 1

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        rc = cli_main(["check", "--rules", "no-such-rule"])
        assert rc == 2

    def test_check_takes_four_options(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["check", "--help"])
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {"--help", "--format", "--root", "--rules", "--list-rules"}

    def test_list_rules(self, capsys):
        assert cli_main(["check", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [cls.id for cls in ALL_RULES]
        assert sorted(listed) == [
            "bare-except",
            "import-hygiene",
            "lock-discipline",
            "metric-name-drift",
        ]


def test_repo_is_clean():
    """The acceptance gate: the shipped tree passes its own linter."""
    report = check_repo()
    assert report.ok, "\n" + report.format()
    assert report.files_checked > 40


@pytest.fixture(scope="module")
def real_project():
    """The repo's own lint target, parsed once per module."""
    return load_project(Path(_met.__file__).resolve().parent.parent)


def test_load_project_locates_tests_and_docs(real_project):
    assert real_project.module("obs/metrics.py") is not None
    assert any("test_analysis" in m.relpath for m in real_project.test_modules)
    assert any(d.relpath.endswith(".md") for d in real_project.docs)


# ---------------------------------------------------------------------------
# regressions: the real violations `tardis check` flagged, now fixed
# ---------------------------------------------------------------------------


class _ProbeLock:
    """Context manager standing in for a threading lock, counting entries."""

    def __init__(self, inner=None):
        self.inner = inner
        self.entries = 0

    def __enter__(self):
        self.entries += 1
        if self.inner is not None:
            self.inner.acquire()
        return self

    def __exit__(self, *exc):
        if self.inner is not None:
            self.inner.release()
        return False


class TestFlaggedViolationRegressions:
    def test_gauge_set_acquires_its_lock(self):
        # lock-discipline: Gauge.set wrote _value without self._lock.
        gauge = _met.Gauge("tardis_gc_live_states")
        probe = _ProbeLock()
        gauge._lock = probe
        gauge.set(4.0)
        assert probe.entries == 1
        assert gauge.value == 4.0

    def test_close_session_holds_store_lock(self):
        # lock-discipline: TardisStore.close_session popped _sessions
        # outside the store lock.
        store = TardisStore("A")
        store.session("alice")
        probe = _ProbeLock(inner=store._lock)
        store._lock = probe
        store.close_session("alice")
        assert probe.entries >= 1
        assert "alice" not in store._sessions

    def test_prune_promotions_is_destructive(self):
        # Dropping promotion entries without moving destructive_gen
        # would leave stale visibility-cache entries (the old
        # forget_promotions did once).
        dag = StateDAG("A")
        dag._promotions[("ghost", "A")] = ROOT_ID
        dag._promotions[("held", "A")] = ROOT_ID
        before = dag.destructive_gen
        assert dag.prune_promotions([("held", "A")]) == 1
        assert dag.destructive_gen > before
        assert dag.promotion_table_size == 1
        # dropping nothing must NOT invalidate the cache
        before = dag.destructive_gen
        assert dag.prune_promotions([("held", "A"), ("never-existed", "A")]) == 0
        assert dag.destructive_gen == before
        assert dag.promotion_of(("held", "A")) == ROOT_ID

    def test_retwis_merge_skips_collected_anchor_only(self):
        # bare-except: the session re-anchor loop swallowed *every*
        # exception; now only GarbageCollectedError means "skip".
        from repro.apps.retwis import RetwisApp, timeline_key

        app = RetwisApp(TardisStore("A"))
        for user in ("alice", "bruno", "carla"):
            app.create_account(user)
        store = app.store

        def fork(a, b):
            # Conflicting writes to the same key from one snapshot: the
            # second commit cannot ripple and must fork a branch.
            t1 = store.begin(session=store.session(a))
            t2 = store.begin(session=store.session(b))
            for txn, pid in ((t1, (100, a)), (t2, (101, b))):
                tl = txn.get(timeline_key("carla"))
                txn.put(timeline_key("carla"), (pid,) + tuple(tl))
            t1.commit()
            t2.commit()

        fork("retwis:alice", "retwis:bruno")
        with store._lock:
            assert len(store.dag.leaves()) == 2
        doomed = store.session("retwis:alice")
        doomed.last_commit_state = lambda: (_ for _ in ()).throw(
            GarbageCollectedError(("gone", "A"))
        )
        app.merge_branches()  # collected anchor is skipped, not fatal

        boom = RuntimeError("must propagate")

        def explode():
            raise boom

        # Re-fork so another merge has two branches to reconcile.
        fork("retwis:alice2", "retwis:bruno2")
        store.session("retwis:bruno").last_commit_state = explode
        with pytest.raises(RuntimeError):
            app.merge_branches()

    def test_speculation_failure_keeps_the_exception(self):
        # bare-except: the executor swallowed program exceptions; it
        # still fails the speculation future-style but keeps the cause.
        ex = SpeculativeExecutor()
        boom = ValueError("broken program")

        def broken(txn):
            txn.put("x", 1)
            raise boom

        spec = ex.submit(broken)
        assert spec.status == FAILED
        assert spec.error is boom

    def test_fixed_modules_stay_clean_under_their_rules(self, real_project):
        # Pin the fixes at the source level: re-linting the touched
        # modules (with real suppressions honoured) yields no findings.
        fixed = [
            "obs/metrics.py",
            "core/store.py",
            "core/state_dag.py",
            "sim/adapters.py",
            "apps/retwis.py",
            "apps/shopping.py",
            "speculation/executor.py",
        ]
        modules = [real_project.module(suffix) for suffix in fixed]
        assert all(m is not None for m in modules)
        subset = Project(root=real_project.root, modules=modules)
        rules = [LockDisciplineRule(), BareExceptRule()]
        report = run_check(subset, rules)
        assert report.ok, "\n" + report.format()
        assert report.suppressed >= 1  # the justified executor one


# ---------------------------------------------------------------------------
# the ledger's evidence (docs/internals.md §11.4): a bug planted in the
# real source is exactly one finding of its rule. Misspelled metric names
# are split into two literals so that this file, which metric-name-drift
# scans as a consumer, never holds them whole.
# ---------------------------------------------------------------------------


PLANTED = [
    pytest.param(
        "lock-discipline", "core/store.py",
        "        with self._lock:\n            sess = self._sessions.pop(name, None)\n",
        "        sess = self._sessions.pop(name, None)\n        with self._lock:\n",
        id="lock-discipline:close_session-pops-before-locking",
    ),
    pytest.param(
        "lock-discipline", "server/server.py",
        "        with self._lock:\n            self._stats[stat] += n\n",
        "        self._stats[stat] += n\n",
        id="lock-discipline:server-count-unlocked",
    ),
    pytest.param(
        "lock-discipline", "obs/tracing.py",
        "        with self._lock:\n            self.seq += n\n",
        "        self.seq += n\n",
        id="lock-discipline:recorder-skip-numbers-unlocked",
    ),
    pytest.param(
        "metric-name-drift", "obs/series.py",
        'self._feed("tardis_repl_lag@total",',
        'self._feed("tardis_repl_" "lga@total",',
        id="metric-name-drift:producer-misspelled",
    ),
    pytest.param(
        "metric-name-drift", "tools/cli.py",
        'commits = counter("tardis_txn_commit_total")',
        'commits = counter("tardis_txn_" "comit_total")',
        id="metric-name-drift:consumer-misspelled",
    ),
    pytest.param(
        "metric-name-drift", "obs/metrics.py",
        "METRIC_NAMES: Dict[str, str] = {\n",
        'METRIC_NAMES: Dict[str, str] = {\n    "tardis_txn_" "retry_total": "never produced",\n',
        id="metric-name-drift:catalogue-entry-without-producer",
    ),
    pytest.param(
        "bare-except", "server/server.py",
        "        except BlockingIOError:\n            pass  # bytes already wait",
        "        except Exception:\n            pass  # bytes already wait",
        id="bare-except:bell-ring-swallows-everything",
    ),
    pytest.param(
        "bare-except", "core/store.py",
        "                except GarbageCollectedError:\n",
        "                except Exception:\n",
        id="bare-except:adopt-merge-skips-every-error",
    ),
    pytest.param(
        "import-hygiene", "tools/cli.py",
        "def cmd_recover(args) -> int:\n",
        "def cmd_recover(args) -> int:\n    import json\n\n",
        id="import-hygiene:function-local-import",
    ),
    pytest.param(
        "import-hygiene", "core/versions.py",
        "from repro.errors import GarbageCollectedError\n",
        "from repro.errors import GarbageCollectedError\n"
        "from repro.errors import GarbageCollectedError\n",
        id="import-hygiene:duplicate-import",
    ),
]


@pytest.mark.parametrize("rule_id, suffix, old, new", PLANTED)
def test_planted_bug_is_one_finding(real_project, rule_id, suffix, old, new):
    module = real_project.module(suffix)
    assert module.source.count(old) == 1
    planted = SourceModule(module.path, module.relpath, module.source.replace(old, new))
    (rule,) = rules_by_id([rule_id])  # KeyError once the rule leaves ALL_RULES
    # A per-module rule needs the planted module alone; a whole-project
    # rule sees it among all the others.
    if type(rule).check_project is Rule.check_project:
        modules = [planted]
    else:
        modules = [planted if m is module else m for m in real_project.modules]
    project = Project(
        root=real_project.root,
        modules=modules,
        test_modules=real_project.test_modules,
        docs=real_project.docs,
    )
    (finding,) = run_check(project, [rule]).findings
    assert (finding.rule, finding.file) == (rule_id, module.relpath)
