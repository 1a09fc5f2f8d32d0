"""The ``tardis check`` rule engine: AST lint over the reproduction itself.

The codebase carries invariants that nothing in Python enforces: fields
guarded by a lock only by convention (``_GUARDED_BY``), a single
catalogue of ``tardis_*`` metric names. This
module turns those conventions into machine-checked contracts, the same
way TARDiS itself turns concurrency anomalies into explicit branches
instead of silent corruption (§3-§4 of the paper).

Structure:

* :class:`SourceModule` — one parsed Python file: source, AST, and the
  ``# tardis: ignore[rule]`` suppressions extracted from its comments.
* :class:`Project` — every source module under ``src/repro`` plus the
  auxiliary corpora some rules cross-check (tests, ``docs/*.md``).
* :class:`Rule` — a check. Per-module rules implement
  :meth:`Rule.check_module`; whole-project rules (metric-name drift)
  implement :meth:`Rule.check_project`.
* :func:`run_check` — applies rules, filters suppressed findings, and
  returns a :class:`Report` whose JSON form feeds CI.

Suppressions: a finding on line ``N`` is dropped when line ``N`` carries
a comment ``# tardis: ignore[rule-id]`` (comma-separated ids, or ``*``
for all rules). ``# tardis: ignore-file[rule-id]`` anywhere in the file
suppresses the rule for the whole module. Suppressions are counted in
the report so a creeping suppression count is itself visible.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "SourceModule",
    "TextFile",
    "Project",
    "Rule",
    "Report",
    "load_project",
    "run_check",
]

SEVERITY_ERROR = "error"

#: schema version of the JSON report (bump on breaking changes).
REPORT_SCHEMA = 1

_SUPPRESS_RE = re.compile(
    r"#\s*tardis:\s*(ignore-file|ignore)\s*\[\s*([A-Za-z0-9_*,\s-]+?)\s*\]"
)


@dataclass(frozen=True)
class Finding:
    """One structured lint finding."""

    file: str
    line: int
    rule: str
    severity: str
    message: str
    hint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "hint": self.hint,
        }

    def format(self) -> str:
        text = "%s:%d: %s: [%s] %s" % (
            self.file,
            self.line,
            self.severity,
            self.rule,
            self.message,
        )
        if self.hint:
            text += "  (hint: %s)" % self.hint
        return text

    def __str__(self) -> str:
        return self.format()


def _sort_key(finding: Finding) -> Tuple[str, int, str]:
    return (finding.file, finding.line, finding.rule)


class SourceModule:
    """One parsed Python source file plus its suppression table."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.tree = ast.parse(source, filename=relpath)
        #: line -> set of suppressed rule ids ("*" suppresses all rules).
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: rule ids suppressed for the whole file.
        self.file_suppressions: Set[str] = set()
        self._scan_comments()

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceModule":
        source = path.read_text()
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        return cls(path, rel, source)

    def _scan_comments(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            kind, spec = match.group(1), match.group(2)
            rules = {part.strip() for part in spec.split(",") if part.strip()}
            if kind == "ignore-file":
                self.file_suppressions |= rules
            else:
                line = tok.start[0]
                self.line_suppressions.setdefault(line, set()).update(rules)

    def suppressed(self, line: int, rule: str) -> bool:
        if rule in self.file_suppressions or "*" in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line)
        return bool(rules) and (rule in rules or "*" in rules)


@dataclass
class TextFile:
    """A non-Python file some rules scan (docs, etc.)."""

    path: Path
    relpath: str
    text: str

    @classmethod
    def load(cls, path: Path, root: Path) -> "TextFile":
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        return cls(path, rel, path.read_text())


@dataclass
class Project:
    """Everything ``tardis check`` looks at in one run."""

    root: Path
    #: the library source modules (``src/repro/**.py``) — the lint target.
    modules: List[SourceModule] = field(default_factory=list)
    #: test modules (consumers of metric names; not linted per-module).
    test_modules: List[SourceModule] = field(default_factory=list)
    #: markdown docs (consumers of metric names).
    docs: List[TextFile] = field(default_factory=list)

    def module(self, suffix: str) -> Optional[SourceModule]:
        """The source module whose relpath ends with ``suffix``."""
        for module in self.modules:
            if module.relpath.replace("\\", "/").endswith(suffix):
                return module
        return None


class Rule:
    """Base class for checks. Subclasses set ``id`` and override one of
    the two hooks; findings they emit are filtered through suppressions
    by the engine, never by the rule."""

    id = "abstract"
    severity = SEVERITY_ERROR
    description = ""

    def check_module(self, module: SourceModule) -> List[Finding]:
        return []

    def check_project(self, project: Project) -> List[Finding]:
        return []


@dataclass
class Report:
    """Result of one ``run_check``: what CI gates on."""

    findings: List[Finding]
    suppressed: int
    rules: List[str]
    files_checked: int

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def exit_code(self) -> int:
        """Nonzero on any unsuppressed finding — the CI gate."""
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA,
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules),
            "suppressed": self.suppressed,
            "counts": {"error": len(self.findings)},
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def format(self) -> str:
        lines = [f.format() for f in self.findings]
        lines.append(
            "tardis check: %d finding(s), %d suppressed, %d file(s)"
            % (len(self.findings), self.suppressed, self.files_checked)
        )
        return "\n".join(lines)


def _python_files(root: Path) -> List[Path]:
    return sorted(
        p
        for p in root.rglob("*.py")
        if "__pycache__" not in p.parts
    )


def load_project(
    src_root: Path,
    repo_root: Optional[Path] = None,
    tests_root: Optional[Path] = None,
    docs_root: Optional[Path] = None,
) -> Project:
    """Load the lint target.

    ``src_root`` is the ``repro`` package directory. ``repo_root`` (for
    relpaths and for locating ``tests/`` and ``docs/`` when not given
    explicitly) defaults to the nearest ancestor containing
    ``pyproject.toml``, falling back to ``src_root`` itself.
    """
    src_root = Path(src_root).resolve()
    if repo_root is None:
        repo_root = src_root
        for ancestor in src_root.parents:
            if (ancestor / "pyproject.toml").exists():
                repo_root = ancestor
                break
    repo_root = Path(repo_root).resolve()
    if tests_root is None:
        candidate = repo_root / "tests"
        tests_root = candidate if candidate.is_dir() else None
    if docs_root is None:
        candidate = repo_root / "docs"
        docs_root = candidate if candidate.is_dir() else None

    project = Project(root=repo_root)
    for path in _python_files(src_root):
        project.modules.append(SourceModule.load(path, repo_root))
    if tests_root is not None:
        for path in _python_files(Path(tests_root)):
            project.test_modules.append(SourceModule.load(path, repo_root))
    if docs_root is not None:
        for path in sorted(Path(docs_root).rglob("*.md")):
            project.docs.append(TextFile.load(path, repo_root))
    return project


def run_check(project: Project, rules: Sequence[Rule]) -> Report:
    """Apply ``rules`` to ``project``; filter suppressions; sort findings."""
    modules_by_rel = {m.relpath: m for m in project.modules}
    raw: List[Finding] = []
    for rule in rules:
        for module in project.modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw:
        module = modules_by_rel.get(finding.file)
        if module is not None and module.suppressed(finding.line, finding.rule):
            suppressed += 1
            continue
        kept.append(finding)
    kept.sort(key=_sort_key)
    return Report(
        findings=kept,
        suppressed=suppressed,
        rules=[rule.id for rule in rules],
        files_checked=len(project.modules),
    )
