"""``lock-order``: static deadlock detection over the lock graph.

A deadlock needs an interleaving no test is likely to hit, so this rule
builds the whole-repo lock-acquisition graph from the source and reports
*potential* orders — including ones no test has ever interleaved — and
re-acquisitions on paths no test runs.

Lock identity is ``ClassName._attr``. A class's locks are the union of

* ``self.X = threading.Lock()`` / ``RLock()`` assignments in
  ``__init__`` (the ctor name records reentrancy), and
* ``self.X`` lock specs in its ``_GUARDED_BY`` map.

Edges ``A -> B`` mean "A was held while B was acquired", gathered from:

* **direct nesting** — ``with self.b:`` lexically inside
  ``with self.a:``;
* **one-level interprocedural** — a call of ``self.m(...)`` or
  ``self.<attr>.m(...)`` while a lock is held contributes edges to
  every lock the callee's body acquires. ``<attr>``'s class is inferred
  from ``self.<attr> = ClassName(...)`` in ``__init__``, resolved
  through the project-wide class index (same-module classes win;
  ambiguous names are skipped rather than guessed).

Findings:

* a strongly-connected component of two or more locks is a potential
  deadlock cycle (two threads entering it from different ends can each
  hold what the other wants);
* a self-edge on a non-reentrant ``Lock`` — re-acquiring a lock the
  caller already holds, directly or through a one-deep call — is a
  guaranteed self-deadlock. ``RLock`` self-edges are reentrant and
  legal, and are skipped.

The analysis over-approximates: it assumes any call made under a lock
runs under that lock (no release-before-call reasoning). A site that is
provably safe carries ``# tardis: ignore[lock-order]`` with a reason on
the line the finding names.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Project, Rule, SourceModule
from repro.analysis.rules.lock_discipline import _guarded_by_map, _self_attr

#: a lock node in the acquisition graph.
LockNode = Tuple[str, str]  # (class name, lock attribute)


class _ClassInfo:
    """Per-class facts the graph builder needs."""

    __slots__ = ("module", "node", "lock_ctors", "lock_attrs", "methods", "attr_types")

    def __init__(self, module: SourceModule, node: ast.ClassDef):
        self.module = module
        self.node = node
        #: lock attr -> "Lock" | "RLock" | "" (declared but ctor unseen).
        self.lock_ctors: Dict[str, str] = {}
        self.methods: Dict[str, ast.AST] = {}
        #: attr -> class name of ``self.attr = ClassName(...)`` in __init__.
        self.attr_types: Dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
        init = self.methods.get("__init__")
        if init is not None:
            self._scan_init(init)
        for guard in _guarded_by_map(node).values():
            attr = guard.lock_attr
            if attr is not None and attr not in self.lock_ctors:
                self.lock_ctors[attr] = ""
        self.lock_attrs: Set[str] = set(self.lock_ctors)

    def _scan_init(self, init: ast.AST) -> None:
        for sub in ast.walk(init):
            if not isinstance(sub, ast.Assign):
                continue
            value = sub.value
            # Peel conditional assignments: ``X(...) if flag else Y(...)``
            # contributes both arms (ambiguity is resolved to "skip" when
            # they disagree).
            calls: List[ast.Call] = []
            if isinstance(value, ast.Call):
                calls = [value]
            elif isinstance(value, ast.IfExp):
                calls = [v for v in (value.body, value.orelse) if isinstance(v, ast.Call)]
            if not calls:
                continue
            names = []
            for call in calls:
                if isinstance(call.func, ast.Attribute):
                    names.append(call.func.attr)
                elif isinstance(call.func, ast.Name):
                    names.append(call.func.id)
            for target in sub.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if names and all(n in ("Lock", "RLock") for n in names):
                    self.lock_ctors[target.attr] = names[0]
                elif len(set(names)) == 1 and names[0][:1].isupper():
                    self.attr_types[target.attr] = names[0]


class LockOrderRule(Rule):
    id = "lock-order"
    description = (
        "the whole-repo lock-acquisition graph must be acyclic (cycles "
        "are potential deadlocks; self-edges on a Lock are guaranteed ones)"
    )

    def check_project(self, project: Project) -> List[Finding]:
        infos: List[_ClassInfo] = []
        by_name: Dict[str, List[_ClassInfo]] = {}
        for name, entries in project.classes().items():
            for module, node in entries:
                info = _ClassInfo(module, node)
                infos.append(info)
                by_name.setdefault(name, []).append(info)

        #: (src, dst) -> (file, line) of the first site producing the edge.
        edges: Dict[Tuple[LockNode, LockNode], Tuple[str, int]] = {}
        for info in infos:
            if not info.lock_attrs:
                continue
            for name, method in info.methods.items():
                if name in ("__init__", "__new__"):
                    continue
                self._walk(info, by_name, method.body, (), edges)

        findings = self._self_edge_findings(infos, edges)
        findings.extend(self._cycle_findings(edges))
        return findings

    # -- graph construction ------------------------------------------------

    def _walk(
        self,
        info: _ClassInfo,
        by_name: Dict[str, List["_ClassInfo"]],
        stmts: List[ast.stmt],
        held: Tuple[LockNode, ...],
        edges: Dict[Tuple[LockNode, LockNode], Tuple[str, int]],
    ) -> None:
        for stmt in stmts:
            # Nested defs run later, in an unknown lock context.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                new_held = held
                for item in stmt.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and attr in info.lock_attrs:
                        node: LockNode = (info.node.name, attr)
                        site = (info.module.relpath, item.context_expr.lineno)
                        for prior in new_held:
                            edges.setdefault((prior, node), site)
                        if node not in new_held:
                            new_held = new_held + (node,)
                self._scan_calls(info, by_name, stmt, held, edges)
                self._walk(info, by_name, stmt.body, new_held, edges)
                continue
            self._scan_calls(info, by_name, stmt, held, edges)
            for block in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, block, None)
                if isinstance(inner, list) and inner and isinstance(
                    inner[0], ast.stmt
                ):
                    self._walk(info, by_name, inner, held, edges)
            for handler in getattr(stmt, "handlers", []):
                self._walk(info, by_name, handler.body, held, edges)

    def _scan_calls(
        self,
        info: _ClassInfo,
        by_name: Dict[str, List["_ClassInfo"]],
        stmt: ast.stmt,
        held: Tuple[LockNode, ...],
        edges: Dict[Tuple[LockNode, LockNode], Tuple[str, int]],
    ) -> None:
        """One-level interprocedural edges from calls made while locked."""
        if not held:
            return
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_callee(info, by_name, node.func)
            if callee is None:
                continue
            callee_info, method = callee
            site = (info.module.relpath, node.lineno)
            for acquired in self._acquired_in(callee_info, method):
                for prior in held:
                    edges.setdefault((prior, acquired), site)

    def _resolve_callee(
        self,
        info: _ClassInfo,
        by_name: Dict[str, List["_ClassInfo"]],
        func: ast.expr,
    ) -> Optional[Tuple["_ClassInfo", ast.AST]]:
        """``self.m`` or ``self.attr.m`` -> (class info, method AST)."""
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        # self.m(...)
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            method = info.methods.get(func.attr)
            return (info, method) if method is not None else None
        # self.attr.m(...)
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
        ):
            cls_name = info.attr_types.get(receiver.attr)
            if cls_name is None:
                return None
            candidates = by_name.get(cls_name, [])
            same_module = [c for c in candidates if c.module is info.module]
            if len(same_module) == 1:
                target = same_module[0]
            elif len(candidates) == 1:
                target = candidates[0]
            else:
                return None  # unknown or ambiguous across modules
            method = target.methods.get(func.attr)
            return (target, method) if method is not None else None
        return None

    def _acquired_in(self, info: _ClassInfo, method: ast.AST) -> List[LockNode]:
        """Locks ``method`` acquires anywhere in its own body (the one
        interprocedural level; calls it makes are not chased further)."""
        acquired: Set[LockNode] = set()
        for node in ast.walk(method):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in info.lock_attrs:
                    acquired.add((info.node.name, attr))
        return sorted(acquired)

    # -- findings ----------------------------------------------------------

    def _self_edge_findings(
        self,
        infos: List[_ClassInfo],
        edges: Dict[Tuple[LockNode, LockNode], Tuple[str, int]],
    ) -> List[Finding]:
        ctor_of: Dict[LockNode, str] = {}
        for info in infos:
            for attr, ctor in info.lock_ctors.items():
                ctor_of[(info.node.name, attr)] = ctor
        findings: List[Finding] = []
        for (src, dst), (file, line) in sorted(edges.items(), key=lambda e: e[1]):
            if src != dst:
                continue
            if ctor_of.get(src, "") == "RLock":
                continue  # reentrant: legal
            findings.append(
                Finding(
                    file=file,
                    line=line,
                    rule=self.id,
                    severity="error",
                    message=(
                        "non-reentrant lock %s.%s re-acquired while already "
                        "held — guaranteed self-deadlock" % src
                    ),
                    hint="drop the inner acquisition (the caller holds the "
                    "lock) or make the lock an RLock",
                )
            )
        return findings

    def _cycle_findings(
        self, edges: Dict[Tuple[LockNode, LockNode], Tuple[str, int]]
    ) -> List[Finding]:
        graph: Dict[LockNode, Set[LockNode]] = {}
        for (src, dst), _ in edges.items():
            if src == dst:
                continue
            graph.setdefault(src, set()).add(dst)
            graph.setdefault(dst, set())
        findings: List[Finding] = []
        for scc in _sccs(graph):
            if len(scc) < 2:
                continue
            nodes = sorted(scc)
            # Anchor the finding at the lexicographically first edge
            # inside the cycle, for a stable, suppressible location.
            cycle_edges = sorted(
                (site, src, dst)
                for (src, dst), site in edges.items()
                if src in scc and dst in scc and src != dst
            )
            (file, line), _, _ = cycle_edges[0]
            findings.append(
                Finding(
                    file=file,
                    line=line,
                    rule=self.id,
                    severity="error",
                    message=(
                        "lock-order cycle (potential deadlock): %s"
                        % " -> ".join("%s.%s" % n for n in nodes)
                    ),
                    hint="pick one global acquisition order for these locks "
                    "and restructure the nested/interprocedural "
                    "acquisitions to follow it",
                )
            )
        findings.sort(key=lambda f: (f.file, f.line, f.message))
        return findings


def _sccs(graph: Dict[LockNode, Set[LockNode]]) -> List[Set[LockNode]]:
    """Tarjan's strongly-connected components, iterative for safety."""
    index_of: Dict[LockNode, int] = {}
    lowlink: Dict[LockNode, int] = {}
    on_stack: Set[LockNode] = set()
    stack: List[LockNode] = []
    sccs: List[Set[LockNode]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        work: List[Tuple[LockNode, Optional[LockNode], List[LockNode]]] = [
            (root, None, sorted(graph.get(root, ())))
        ]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, parent, children = work[-1]
            advanced = False
            while children:
                child = children.pop(0)
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work[-1] = (node, parent, children)
                    work.append((child, node, sorted(graph.get(child, ()))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if parent is not None:
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                scc: Set[LockNode] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs
