"""``async-discipline``: event-loop hygiene for coroutine code.

The server's concurrency model (docs/internals.md §12.3) has one hard
rule: the asyncio loop must never block, and store access from the loop
must hop through the single-worker executor. Python enforces none of
this — a stray ``time.sleep`` in a handler stalls every connection, and
an un-awaited coroutine is silently dropped with only a runtime warning
nobody reads. This rule makes four violation classes static errors.

*Loop context*, for classes 1 and 2, is the body of an ``async def``
and of every method of a class whose bases name ``asyncio.Protocol`` /
``BufferedProtocol`` / ``DatagramProtocol`` / ``SubprocessProtocol``:
a transport's callbacks are plain ``def``s, and they run on the loop
thread all the same (the server's request path is such a class).

1. **Blocking call in a coroutine.** Calls known to block the thread —
   ``time.sleep``, anything in the ``socket`` module, sync file I/O via
   ``open``/``input``, ``subprocess.run`` and friends, ``os.system`` —
   are errors anywhere in loop context. Nested *sync* ``def``s and
   lambdas are a new execution context (they typically run on an
   executor) and are exempt.

2. **Direct store call on the loop.** In the server, every store
   operation must go through the store executor
   (``self._executor.submit(...)`` / ``run_in_executor``) so the loop
   can time it out and the single worker serializes it. A direct
   ``self.store.<method>(...)`` call — or one through another object,
   ``self.server.store.<method>(...)`` — in loop context is an error.
   Passing the bound method *to* the executor is fine — only actual
   calls are flagged.

3. **``await`` while a ``threading`` lock is held.** An ``await``
   inside ``with self.<lock>:`` — where ``<lock>`` is named as a guard
   in the class's ``_GUARDED_BY`` map or assigned a
   ``threading.Lock``/``RLock`` in ``__init__`` — parks the coroutine
   with the lock held across an arbitrary suspension: every thread
   (including the executor the loop is waiting on) that wants the lock
   then deadlocks against the loop. Hold such locks only across
   straight-line code.

4. **Dropped coroutines and tasks.** A call of a locally-defined
   ``async def`` (a ``self.``-method of the same class, or a
   module-level coroutine function) used as a bare expression statement
   creates a coroutine object and throws it away — the body never runs.
   Likewise ``create_task``/``ensure_future`` as a bare statement is
   fire-and-forget: the event loop holds tasks weakly, so an
   unreferenced task can be garbage-collected mid-flight; keep the
   handle (and cancel it at shutdown).

False positives (a coroutine that runs strictly after the executor has
drained, say) carry ``# tardis: ignore[async-discipline]`` with a
reason, per docs/internals.md §11.3.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Rule, SourceModule
from repro.analysis.rules.lock_discipline import _guarded_by_map, _self_attr

#: module-level callables that block the calling thread. ``"*"`` flags
#: every attribute of the module (socket: there is no non-blocking call
#: worth making from a coroutine; use asyncio streams).
BLOCKING_MODULES: Dict[str, FrozenSet[str]] = {
    "time": frozenset({"sleep"}),
    "socket": frozenset({"*"}),
    "subprocess": frozenset({"run", "call", "check_call", "check_output"}),
    "os": frozenset({"system", "wait", "waitpid"}),
}

#: builtins that block on file/tty I/O.
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: task-spawning APIs whose return value must be retained.
TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: ``self.<attr>`` receivers whose method calls must go through the
#: store executor when made in loop context.
EXECUTOR_ONLY_ATTRS = frozenset({"store"})

#: base-class names whose methods are transport callbacks: plain
#: ``def``s that run on the event loop thread.
PROTOCOL_BASES = frozenset(
    {"Protocol", "BufferedProtocol", "DatagramProtocol", "SubprocessProtocol"}
)


def _is_protocol_class(cls: ast.ClassDef) -> bool:
    """Whether a base of ``cls`` names an asyncio protocol class
    (``asyncio.Protocol`` or a bare imported ``BufferedProtocol``)."""
    for base in cls.bases:
        chain = _receiver_chain(base)
        if chain and chain[-1] in PROTOCOL_BASES and chain[:-1] in ([], ["asyncio"]):
            return True
    return False


def _lock_ctors(cls: ast.ClassDef) -> Dict[str, str]:
    """Attr -> ctor name for ``self.x = threading.Lock()/RLock()`` in
    ``__init__`` (the ctor name distinguishes reentrant locks)."""
    out: Dict[str, str] = {}
    for stmt in cls.body:
        if not (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                continue
            name = ""
            if isinstance(call.func, ast.Attribute):
                name = call.func.attr
            elif isinstance(call.func, ast.Name):
                name = call.func.id
            if name not in ("Lock", "RLock"):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out[target.attr] = name
    return out


def _class_lock_attrs(cls: ast.ClassDef) -> Set[str]:
    """Lock attributes of ``cls``: ``self.X`` guard specs plus
    ``threading.Lock``/``RLock`` assignments in ``__init__``."""
    locks = set(_lock_ctors(cls))
    for guard in _guarded_by_map(cls).values():
        attr = guard.lock_attr
        if attr is not None:
            locks.add(attr)
    return locks


def _async_names(module: SourceModule) -> Tuple[Set[str], Dict[str, Set[str]]]:
    """(module-level coroutine function names, class -> async methods)."""
    top: Set[str] = {
        node.name
        for node in module.tree.body
        if isinstance(node, ast.AsyncFunctionDef)
    }
    methods: Dict[str, Set[str]] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            methods[node.name] = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, ast.AsyncFunctionDef)
            }
    return top, methods


def _receiver_chain(node: ast.AST) -> List[str]:
    """The dotted name chain of an expression: ``self.store.begin`` ->
    ``["self", "store", "begin"]``; empty when not a plain chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


class AsyncDisciplineRule(Rule):
    id = "async-discipline"
    description = (
        "coroutines must not block, call the store directly, await under "
        "a threading lock, or drop coroutines/tasks"
    )

    def check_module(self, module: SourceModule) -> List[Finding]:
        findings: List[Finding] = []
        self._top_async, self._async_methods = _async_names(module)

        # Dropped coroutines / fire-and-forget tasks: a scope-aware walk
        # over every function (sync callers drop coroutines too).
        for cls, func in self._functions(module.tree):
            cls_name = cls.name if cls is not None else None
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.Expr) or not isinstance(
                    stmt.value, ast.Call
                ):
                    continue
                findings.extend(
                    self._check_dropped(module, cls_name, stmt.value)
                )

        # Loop-context checks: blocking calls, direct store calls, await
        # under a threading lock (a plain def has no await to find).
        for cls, func in self._functions(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef) and not (
                cls is not None and _is_protocol_class(cls)
            ):
                continue
            locks = _class_lock_attrs(cls) if cls is not None else set()
            self._walk_async(module, func.body, locks, frozenset(), findings)
        return findings

    # -- scope helpers -----------------------------------------------------

    def _functions(self, tree: ast.AST):
        """Yield (enclosing class or None, function def) for every def,
        associating methods with their immediate class only."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield node, stmt
        class_funcs = {
            id(stmt)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and id(node) not in class_funcs
            ):
                yield None, node

    # -- dropped coroutines / tasks ----------------------------------------

    def _check_dropped(
        self, module: SourceModule, cls_name: Optional[str], call: ast.Call
    ) -> List[Finding]:
        chain = _receiver_chain(call.func)
        if not chain:
            return []
        # self.<async method>() of the same class, or <module coroutine>().
        is_local_coro = (
            len(chain) == 2
            and chain[0] == "self"
            and cls_name is not None
            and chain[1] in self._async_methods.get(cls_name, set())
        ) or (len(chain) == 1 and chain[0] in self._top_async)
        if is_local_coro:
            return [
                Finding(
                    file=module.relpath,
                    line=call.lineno,
                    rule=self.id,
                    severity="error",
                    message=(
                        "coroutine %r is called but never awaited — the "
                        "body will not run" % ".".join(chain)
                    ),
                    hint="await it, or wrap it in create_task and keep "
                    "the task reference",
                )
            ]
        if chain[-1] in TASK_SPAWNERS:
            return [
                Finding(
                    file=module.relpath,
                    line=call.lineno,
                    rule=self.id,
                    severity="error",
                    message=(
                        "fire-and-forget %s(): the event loop holds tasks "
                        "weakly, so an unreferenced task can be collected "
                        "mid-flight" % chain[-1]
                    ),
                    hint="assign the task to an attribute (and cancel it "
                    "at shutdown) or add it to a retained set",
                )
            ]
        return []

    # -- coroutine-body walk -----------------------------------------------

    def _walk_async(
        self,
        module: SourceModule,
        stmts: List[ast.stmt],
        locks: Set[str],
        held: frozenset,
        findings: List[Finding],
    ) -> None:
        for stmt in stmts:
            # Nested defs/lambdas are a different execution context; a
            # nested async def is visited on its own by check_module.
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in stmt.items:
                    attr = _self_attr(item.context_expr)
                    if attr is not None and attr in locks:
                        acquired.add(attr)
                    self._scan_expr(module, item.context_expr, held, findings)
                self._walk_async(
                    module, stmt.body, locks, frozenset(acquired), findings
                )
                continue
            for expr in self._own_exprs(stmt):
                self._scan_expr(module, expr, held, findings)
            for block in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, block, None)
                if isinstance(inner, list) and inner and isinstance(
                    inner[0], ast.stmt
                ):
                    self._walk_async(module, inner, locks, held, findings)
            for handler in getattr(stmt, "handlers", []):
                self._walk_async(module, handler.body, locks, held, findings)

    def _own_exprs(self, stmt: ast.stmt) -> List[ast.expr]:
        """The statement's own expressions, excluding nested statement
        blocks (the walk recurses into those with updated lock state)."""
        out: List[ast.expr] = []
        for name, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                out.append(value)
            elif isinstance(value, list) and value and isinstance(
                value[0], ast.expr
            ):
                out.extend(value)
        return out

    def _scan_expr(
        self,
        module: SourceModule,
        expr: ast.expr,
        held: frozenset,
        findings: List[Finding],
    ) -> None:
        # A lambda's body is another execution context (module docstring):
        # walk the expression without descending into one.
        todo = [expr]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Lambda):
                continue
            todo.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Await) and held:
                findings.append(
                    Finding(
                        file=module.relpath,
                        line=node.lineno,
                        rule=self.id,
                        severity="error",
                        message=(
                            "await while holding threading lock self.%s — "
                            "the coroutine parks with the lock held and "
                            "can deadlock the loop against the executor"
                            % sorted(held)[0]
                        ),
                        hint="compute under the lock, release, then await "
                        "(or use an asyncio.Lock with 'async with')",
                    )
                )
            if not isinstance(node, ast.Call):
                continue
            self._check_blocking(module, node, findings)
            self._check_store_call(module, node, findings)

    def _check_blocking(
        self, module: SourceModule, call: ast.Call, findings: List[Finding]
    ) -> None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS:
            findings.append(
                Finding(
                    file=module.relpath,
                    line=call.lineno,
                    rule=self.id,
                    severity="error",
                    message=(
                        "blocking %s() on the event loop stalls the "
                        "event loop" % func.id
                    ),
                    hint="hop it off the loop with run_in_executor (or "
                    "use the asyncio equivalent)",
                )
            )
            return
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in BLOCKING_MODULES
        ):
            allowed = BLOCKING_MODULES[func.value.id]
            if "*" in allowed or func.attr in allowed:
                findings.append(
                    Finding(
                        file=module.relpath,
                        line=call.lineno,
                        rule=self.id,
                        severity="error",
                        message=(
                            "blocking %s.%s() on the event loop stalls "
                            "every connection" % (func.value.id, func.attr)
                        ),
                        hint="use the asyncio equivalent (asyncio.sleep, "
                        "asyncio streams) or run_in_executor",
                    )
                )

    def _check_store_call(
        self, module: SourceModule, call: ast.Call, findings: List[Finding]
    ) -> None:
        chain = _receiver_chain(call.func)
        if (
            len(chain) >= 3
            and chain[0] == "self"
            and not EXECUTOR_ONLY_ATTRS.isdisjoint(chain[1:-1])
        ):
            findings.append(
                Finding(
                    file=module.relpath,
                    line=call.lineno,
                    rule=self.id,
                    severity="error",
                    message=(
                        "direct %s() call on the event loop bypasses the "
                        "store executor" % ".".join(chain)
                    ),
                    hint="hand it to the store executor (self._executor.submit / "
                    "run_in_executor) so the single worker serializes it "
                    "and the loop can time it out",
                )
            )
