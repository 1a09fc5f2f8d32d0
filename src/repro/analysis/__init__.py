"""Static analysis for the TARDiS reproduction.

``tardis check`` (see :mod:`repro.tools.cli`) runs the AST rule engine
over ``src/repro``. The contracts it checks — ``_GUARDED_BY`` maps,
async discipline, the metric catalogue — are documented in
``docs/internals.md`` §11.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import (
    Finding,
    Project,
    Report,
    Rule,
    SourceModule,
    load_project,
    run_check,
)
from repro.analysis.rules import ALL_RULES, default_rules, rules_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "Report",
    "Rule",
    "SourceModule",
    "check_repo",
    "default_rules",
    "load_project",
    "rules_by_id",
    "run_check",
]


def check_repo(
    src_root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Report:
    """Run the full check over this checkout (convenience for CLI/tests).

    ``src_root`` defaults to the installed ``repro`` package directory,
    which inside the repo is ``src/repro`` — so tests and the CLI agree
    on the lint target without path plumbing.
    """
    if src_root is None:
        src_root = Path(__file__).resolve().parent.parent
    project = load_project(Path(src_root))
    return run_check(
        project, list(rules) if rules is not None else default_rules()
    )
