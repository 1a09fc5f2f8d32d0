"""``lock-discipline``: writes to ``_GUARDED_BY`` fields must hold the lock.

A class declares its locking contract with a class-level map::

    class TardisStore:
        _GUARDED_BY = {
            "_sessions": "self._lock",
            "_session_counter": "self._lock",
        }

Values starting with ``self.`` name a lock attribute of the same object;
for those the rule enforces, statically, that every *write* to the field
inside the class body happens lexically within a ``with self.<lock>:``
block. Any other value (e.g. ``"external:TardisStore._lock"`` or
``"external:des-loop"``) documents a guard the class cannot see —
typically the owning store's lock, or the single-threaded discrete-event
loop. Such specs are documentation only: nothing checks them.

What counts as a write to ``self.<field>``:

* assignment / augmented assignment / ``del`` of the attribute,
* assignment to a subscript of it (``self._states[k] = v``),
* a call of a known mutating method on it (``self._sessions.pop(...)``,
  ``self._events.append(...)``, including one subscript hop:
  ``self._locks[k].queue.append`` counts against ``_locks``).

``__init__`` and ``__new__`` are exempt (the object is not shared yet).
A method that runs entirely with the lock already held by its callers
can carry ``# tardis: ignore[lock-discipline]`` on the offending line,
with a comment saying who holds the lock.

Reads are deliberately out of scope — several hot paths read racily on
purpose (double-checked metric creation, gauge snapshots).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.engine import Finding, Rule, SourceModule

#: method names treated as in-place mutations of their receiver.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
        "write",
    }
)


def _self_attr(node: ast.AST) -> Optional[str]:
    """The first attribute name off ``self``, peeled through subscripts
    and attribute chains: ``self.a``, ``self.a[k]``, ``self.a.b``,
    ``self.a[k].b`` all resolve to ``"a"``."""
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return node.attr
            node = node.value
        else:
            return None


def _guarded_by_map(cls: ast.ClassDef) -> Dict[str, "_Guard"]:
    """Parse the class-level ``_GUARDED_BY`` dict literal, if present."""
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "_GUARDED_BY":
                if not isinstance(value, ast.Dict):
                    return {}
                guards: Dict[str, _Guard] = {}
                for key, val in zip(value.keys, value.values):
                    if not (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(val, ast.Constant)
                        and isinstance(val.value, str)
                    ):
                        continue
                    guards[key.value] = _Guard(val.value, val.lineno)
                return guards
    return {}


class _Guard:
    """One ``_GUARDED_BY`` entry: the lock spec and where it was declared."""

    __slots__ = ("spec", "lineno")

    def __init__(self, spec: str, lineno: int):
        self.spec = spec
        self.lineno = lineno

    @property
    def lock_attr(self) -> Optional[str]:
        """The ``self.``-local lock attribute name, or None if external."""
        if self.spec.startswith("self."):
            return self.spec[len("self.") :]
        return None


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    description = (
        "writes to fields declared in _GUARDED_BY must hold the named lock"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    # -- per-class ---------------------------------------------------------

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> List[Finding]:
        guards = _guarded_by_map(cls)
        if not guards:
            return []
        findings: List[Finding] = []
        enforced = {
            name: guard.lock_attr
            for name, guard in guards.items()
            if guard.lock_attr is not None
        }
        init_attrs = self._init_attributes(cls)
        for name, guard in guards.items():
            lock = guard.lock_attr
            if lock is not None and lock not in init_attrs:
                findings.append(
                    Finding(
                        file=module.relpath,
                        line=guard.lineno,
                        rule=self.id,
                        severity="error",
                        message=(
                            "%s._GUARDED_BY maps %r to %r but __init__ never "
                            "assigns self.%s" % (cls.name, name, guard.spec, lock)
                        ),
                        hint="declare the lock in __init__ or use an "
                        "'external:...' guard spec",
                    )
                )
        if not enforced:
            return findings
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in ("__init__", "__new__"):
                continue
            self._check_method(module, cls, stmt, enforced, findings)
        return findings

    def _init_attributes(self, cls: ast.ClassDef) -> Set[str]:
        attrs: Set[str] = set()
        for stmt in cls.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"
            ):
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                attrs.add(target.attr)
        return attrs

    # -- per-method walk ---------------------------------------------------

    def _check_method(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        func: ast.AST,
        enforced: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        body = getattr(func, "body", [])
        self._walk(module, cls, body, frozenset(), enforced, findings)

    def _walk(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        stmts: List[ast.stmt],
        held: frozenset,
        enforced: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in stmt.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None:
                        acquired.add(attr)
                self._scan_statement_exprs(
                    module, cls, stmt, held, enforced, findings
                )
                self._walk(
                    module, cls, stmt.body, frozenset(acquired), enforced, findings
                )
                continue
            # Nested defs start a new scope with no lock held lexically.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(module, cls, stmt.body, frozenset(), enforced, findings)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue
            self._scan_statement_exprs(
                module, cls, stmt, held, enforced, findings
            )
            for block in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, block, None)
                if isinstance(inner, list) and inner and isinstance(
                    inner[0], ast.stmt
                ):
                    self._walk(module, cls, inner, held, enforced, findings)
            for handler in getattr(stmt, "handlers", []):
                self._walk(module, cls, handler.body, held, enforced, findings)

    def _scan_statement_exprs(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        stmt: ast.stmt,
        held: frozenset,
        enforced: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        """Find writes in this statement's own expressions (not nested
        statement blocks, which the walk recurses into with updated
        lock-held state)."""
        nodes: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            nodes.extend(stmt.targets)
            nodes.extend(ast.walk(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            nodes.append(stmt.target)
            nodes.extend(ast.walk(stmt.value))
        elif isinstance(stmt, ast.AnnAssign):
            nodes.append(stmt.target)
            if stmt.value is not None:
                nodes.extend(ast.walk(stmt.value))
        elif isinstance(stmt, ast.Delete):
            nodes.extend(stmt.targets)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                nodes.extend(ast.walk(item.context_expr))
        elif isinstance(stmt, (ast.If, ast.While)):
            nodes.extend(ast.walk(stmt.test))
        elif isinstance(stmt, ast.For):
            nodes.extend(ast.walk(stmt.iter))
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            nodes.extend(ast.walk(stmt.value))
        elif isinstance(stmt, ast.Expr):
            nodes.extend(ast.walk(stmt.value))
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for sub in ast.iter_child_nodes(stmt):
                nodes.extend(ast.walk(sub))

        for node in nodes:
            field: Optional[str] = None
            kind = ""
            if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                getattr(node, "ctx", None), (ast.Store, ast.Del)
            ):
                field = _self_attr(node)
                kind = "assignment to"
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATORS:
                    field = _self_attr(node.func.value)
                    kind = "call of %s() on" % node.func.attr
            if field is None or field not in enforced:
                continue
            lock = enforced[field]
            if lock in held:
                continue
            findings.append(
                Finding(
                    file=module.relpath,
                    line=node.lineno,
                    rule=self.id,
                    severity="error",
                    message=(
                        "%s %s.%s outside 'with self.%s:' "
                        "(declared in %s._GUARDED_BY)"
                        % (kind, "self", field, lock, cls.name)
                    ),
                    hint="wrap the write in 'with self.%s:' or suppress with "
                    "'# tardis: ignore[lock-discipline]' if a caller holds it"
                    % lock,
                )
            )
