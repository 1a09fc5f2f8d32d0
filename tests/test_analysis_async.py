"""Tests for the concurrency rule families of ``tardis check``:
``async-discipline`` fixtures per violation class, interprocedural
``lock-order`` cycles (positive and negative), and suppression
handling."""

import textwrap
from pathlib import Path

from repro.analysis import check_repo, run_check
from repro.analysis.engine import Project, SourceModule
from repro.analysis.rules.async_discipline import AsyncDisciplineRule
from repro.analysis.rules.lock_order import LockOrderRule


def _module(source, relpath="src/repro/fixture.py"):
    return SourceModule(Path(relpath), relpath, textwrap.dedent(source))


def _findings(rule, source, relpath="src/repro/fixture.py"):
    return rule.check_module(_module(source, relpath))


# ---------------------------------------------------------------------------
# async-discipline
# ---------------------------------------------------------------------------


class TestAsyncBlockingCalls:
    def test_time_sleep_in_coroutine(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert finding.rule == "async-discipline"
        assert "time.sleep" in finding.message

    def test_asyncio_sleep_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            async def handler():
                await asyncio.sleep(1)
            """,
        )

    def test_socket_call_in_coroutine(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import socket

            async def handler():
                socket.create_connection(("h", 1))
            """,
        )
        assert "socket.create_connection" in finding.message

    def test_open_in_coroutine(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            async def handler(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert "open()" in finding.message

    def test_open_in_nested_sync_def_is_fine(self):
        # The run_server pattern: a nested sync def shipped to an executor.
        assert not _findings(
            AsyncDisciplineRule(),
            """
            async def handler(loop, path):
                def write():
                    with open(path, "w") as handle:
                        handle.write("x")
                await loop.run_in_executor(None, write)
            """,
        )

    def test_sync_function_may_block(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import time

            def worker():
                time.sleep(1)
            """,
        )


class TestAsyncStoreCalls:
    def test_direct_store_call_in_coroutine(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            class Server:
                async def handle(self):
                    return self.store.begin()
            """,
        )
        assert "self.store.begin" in finding.message
        assert "executor" in finding.message

    def test_store_method_passed_to_executor_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            class Server:
                async def handle(self, loop):
                    return await loop.run_in_executor(None, self.store.begin)
            """,
        )


class TestProtocolCallbacksAreLoopContext:
    """A transport's callbacks are plain ``def``s on the loop thread."""

    def test_store_call_in_buffer_updated(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            class Connection(asyncio.BufferedProtocol):
                def buffer_updated(self, nbytes):
                    self.txn = self.server.store.begin()
            """,
        )
        assert "self.server.store.begin" in finding.message
        assert "executor" in finding.message

    def test_same_call_inside_the_function_handed_to_submit_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            class Connection(asyncio.BufferedProtocol):
                def buffer_updated(self, nbytes):
                    def work():
                        return self.server.store.begin()
                    self.server._executor.submit(work)
                    self.server._executor.submit(lambda: self.store.begin())
                    self.server._executor.submit(self.server.store.begin)
            """,
        )

    def test_blocking_call_in_data_received(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import time
            from asyncio import Protocol

            class Connection(Protocol):
                def data_received(self, data):
                    time.sleep(0.1)
            """,
        )
        assert "time.sleep" in finding.message

    def test_plain_class_methods_stay_out_of_scope(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import time

            class Protocol:
                pass

            class Session(WireProtocol):
                def handle(self):
                    time.sleep(0.1)
                    return self.store.begin()

            class Other(mylib.Protocol):
                def handle(self):
                    return self.store.begin()
            """,
        )


class TestAwaitUnderLock:
    GUARDED = """
        import asyncio
        import threading

        class Server:
            _GUARDED_BY = {"_conns": "self._lock"}

            def __init__(self):
                self._lock = threading.Lock()
                self._conns = {}

            async def bad(self):
                with self._lock:
                    await asyncio.sleep(0)

            async def good(self):
                with self._lock:
                    n = len(self._conns)
                await asyncio.sleep(0)
                return n
        """

    def test_await_inside_guarded_lock(self):
        (finding,) = _findings(AsyncDisciplineRule(), self.GUARDED)
        assert "await while holding threading lock self._lock" in finding.message
        assert finding.line == 14

    def test_lock_known_only_from_init(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import asyncio
            import threading

            class Server:
                def __init__(self):
                    self._mu = threading.RLock()

                async def bad(self):
                    with self._mu:
                        await asyncio.sleep(0)
            """,
        )
        assert "self._mu" in finding.message

    def test_non_lock_context_manager_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            class Server:
                async def fine(self):
                    with self._session:
                        await asyncio.sleep(0)
            """,
        )


class TestDroppedCoroutines:
    def test_unawaited_method_coroutine(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            class Server:
                async def flush(self):
                    pass

                async def handle(self):
                    self.flush()
            """,
        )
        assert "never awaited" in finding.message

    def test_unawaited_module_coroutine_from_sync_code(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            async def pump():
                pass

            def kick():
                pump()
            """,
        )
        assert "pump" in finding.message

    def test_awaited_coroutine_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            class Server:
                async def flush(self):
                    pass

                async def handle(self):
                    await self.flush()
            """,
        )

    def test_fire_and_forget_create_task(self):
        (finding,) = _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            async def handle(coro):
                asyncio.create_task(coro)
            """,
        )
        assert "fire-and-forget" in finding.message

    def test_retained_task_is_fine(self):
        assert not _findings(
            AsyncDisciplineRule(),
            """
            import asyncio

            class Server:
                async def start(self, coro):
                    self._task = asyncio.create_task(coro)
            """,
        )

    def test_suppression_applies(self):
        module = _module(
            """
            import time

            async def handler():
                time.sleep(1)  # tardis: ignore[async-discipline]
            """
        )
        project = Project(root=Path("."), modules=[module])
        report = run_check(project, [AsyncDisciplineRule()])
        assert report.findings == []
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------


def _order_findings(source, relpath="src/repro/fixture.py"):
    project = Project(root=Path("."), modules=[_module(source, relpath)])
    return LockOrderRule().check_project(project)


class TestLockOrderDirect:
    def test_inverted_nesting_is_a_cycle(self):
        (finding,) = _order_findings(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def ab(self):
                    with self._a:
                        with self._b:
                            pass

                def ba(self):
                    with self._b:
                        with self._a:
                            pass
            """
        )
        assert finding.rule == "lock-order"
        assert "cycle" in finding.message
        assert "Pair._a" in finding.message and "Pair._b" in finding.message

    def test_consistent_order_is_fine(self):
        assert not _order_findings(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )

    def test_lock_reacquisition_is_self_deadlock(self):
        (finding,) = _order_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )
        assert "self-deadlock" in finding.message

    def test_rlock_reacquisition_is_fine(self):
        assert not _order_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
            """
        )


class TestLockOrderInterprocedural:
    def test_cycle_through_method_call(self):
        findings = _order_findings(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        self.grab_b()

                def grab_b(self):
                    with self._b:
                        pass

                def two(self):
                    with self._b:
                        self.grab_a()

                def grab_a(self):
                    with self._a:
                        pass
            """
        )
        assert len(findings) == 1
        assert "Pair._a" in findings[0].message

    def test_self_deadlock_through_method_call(self):
        (finding,) = _order_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        assert "self-deadlock" in finding.message

    def test_call_without_lock_held_is_fine(self):
        assert not _order_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )

    def test_cross_class_cycle_via_attribute_type(self):
        findings = _order_findings(
            """
            import threading

            class Inner:
                def __init__(self, owner):
                    self._b = threading.Lock()
                    self.owner = owner

                def grab(self):
                    with self._b:
                        pass

                def call_back(self):
                    with self._b:
                        self.owner.touch()

            class Outer:
                def __init__(self):
                    self._a = threading.Lock()
                    self.inner = Inner(self)

                def touch(self):
                    with self._a:
                        pass

                def descend(self):
                    with self._a:
                        self.inner.grab()
            """
        )
        # Outer._a -> Inner._b (descend) closes against Inner._b ->
        # Outer._a (call_back: owner's type is not inferable, so the
        # reverse edge must come from somewhere the rule *can* see).
        # owner is a constructor argument, not a ClassName(...) call, so
        # only the Outer._a -> Inner._b edge exists: acyclic.
        assert findings == []

    def test_cross_class_cycle_when_both_edges_resolvable(self):
        findings = _order_findings(
            """
            import threading

            class Inner:
                def __init__(self):
                    self._b = threading.Lock()
                    self.peer = Outer()

                def grab(self):
                    with self._b:
                        pass

                def call_back(self):
                    with self._b:
                        self.peer.touch()

            class Outer:
                def __init__(self):
                    self._a = threading.Lock()
                    self.inner = Inner()

                def touch(self):
                    with self._a:
                        pass

                def descend(self):
                    with self._a:
                        self.inner.grab()
            """
        )
        assert len(findings) == 1
        assert "Inner._b" in findings[0].message
        assert "Outer._a" in findings[0].message

    def test_guarded_by_only_lock_participates(self):
        # Lock declared via _GUARDED_BY spec (external ctor): with-sites
        # on it still produce graph nodes.
        (finding,) = _order_findings(
            """
            import threading

            class Box:
                _GUARDED_BY = {"_items": "self._lock"}

                def __init__(self):
                    self._lock = threading.Lock()
                    self._aux = threading.Lock()
                    self._items = {}

                def one(self):
                    with self._lock:
                        with self._aux:
                            pass

                def two(self):
                    with self._aux:
                        with self._lock:
                            pass
            """
        )
        assert "Box._aux" in finding.message and "Box._lock" in finding.message


# ---------------------------------------------------------------------------
# regression: the real violations this rule family caught, stay fixed
# ---------------------------------------------------------------------------


def test_run_server_port_file_write_is_offloaded():
    """The port-file write in run_server._main hops through an executor
    (it was a blocking open() on the event loop when first linted)."""
    report = check_repo(rules=[AsyncDisciplineRule()])
    assert report.ok, "\n" + report.format()
    # The two shutdown-path store calls stay visible as suppressions.
    assert report.suppressed >= 2


def test_repo_lock_graph_is_acyclic():
    report = check_repo(rules=[LockOrderRule()])
    assert report.ok, "\n" + report.format()
