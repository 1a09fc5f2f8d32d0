"""Cheap hygiene rules: ``import-hygiene`` and ``bare-except``.

``import-hygiene`` flags

* imports inside function bodies (they hide dependencies and re-execute
  the import machinery on hot paths) unless wrapped in a
  ``try/except ImportError`` feature probe, and
* the same module imported twice at top level.

``bare-except`` flags exception handlers that catch everything —
``except:``, ``except Exception:``, ``except BaseException:`` (alone or
in a tuple) — *and* do not re-raise. A handler whose body contains a
``raise`` is a cleanup-and-propagate pattern and passes. The fix is a
typed exception from :mod:`repro.errors` (usually
:class:`~repro.errors.TardisError` or a subclass).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.engine import Finding, Rule, SourceModule

_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _import_names(stmt: ast.stmt) -> List[str]:
    """Duplicate-detection keys: one per bound name so ``from x import a``
    and ``from x import b`` are distinct imports."""
    if isinstance(stmt, ast.Import):
        return [alias.name for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        module = stmt.module or "." * stmt.level
        return ["%s:%s" % (module, alias.name) for alias in stmt.names]
    return []


def _is_feature_probe(func: ast.AST, node: ast.stmt) -> bool:
    """True when ``node`` sits in a ``try`` whose handlers catch
    ImportError/ModuleNotFoundError — the accepted optional-dependency
    gate."""
    for parent in ast.walk(func):
        if not isinstance(parent, ast.Try):
            continue
        if node not in parent.body:
            continue
        for handler in parent.handlers:
            for name in _handler_names(handler):
                if name in ("ImportError", "ModuleNotFoundError"):
                    return True
    return False


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return [""]
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: List[str] = []
    for node in types:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


class ImportHygieneRule(Rule):
    id = "import-hygiene"
    description = (
        "imports belong at the top of the module; function-local imports "
        "need a try/except ImportError feature probe"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        # Duplicate top-level imports.
        seen: Dict[str, int] = {}
        for stmt in module.tree.body:
            for name in _import_names(stmt):
                if name in seen:
                    findings.append(
                        Finding(
                            file=module.relpath,
                            line=stmt.lineno,
                            rule=self.id,
                            severity=self.severity,
                            message=(
                                "%r already imported at line %d"
                                % (name, seen[name])
                            ),
                            hint="drop the duplicate import",
                        )
                    )
                else:
                    seen[name] = stmt.lineno
        # Function-local imports.
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, (ast.Import, ast.ImportFrom)):
                    continue
                if _is_feature_probe(node, sub):
                    continue
                findings.append(
                    Finding(
                        file=module.relpath,
                        line=sub.lineno,
                        rule=self.id,
                        severity=self.severity,
                        message=(
                            "import inside %s(); move it to module scope"
                            % node.name
                        ),
                        hint="hoist to the top of the file, or wrap in "
                        "try/except ImportError if the dependency is optional",
                    )
                )
        return findings


class BareExceptRule(Rule):
    id = "bare-except"
    description = (
        "handlers must catch typed exceptions (see repro.errors) or re-raise"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._broad_catch(node)
            if caught is None:
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue  # cleanup-and-propagate
            findings.append(
                Finding(
                    file=module.relpath,
                    line=node.lineno,
                    rule=self.id,
                    severity=self.severity,
                    message=(
                        "handler catches %s and does not re-raise" % caught
                    ),
                    hint="catch a typed exception from repro.errors "
                    "(e.g. TardisError, GarbageCollectedError) or re-raise",
                )
            )
        return findings

    def _broad_catch(self, handler: ast.ExceptHandler) -> Optional[str]:
        names = _handler_names(handler)
        if "" in names:
            return "everything (bare except)"
        for name in names:
            if name in _BROAD_NAMES:
                return name
        return None
