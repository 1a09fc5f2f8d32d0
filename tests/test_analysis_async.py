"""Tests for the ``async-discipline`` rule of ``tardis check``:
fixtures per violation class, and suppression handling."""

import textwrap
from pathlib import Path

from repro.analysis import check_repo, run_check
from repro.analysis.engine import Project, SourceModule
from repro.analysis.rules.async_discipline import AsyncDisciplineRule


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
# regression: the real violations this rule family caught, stay fixed
# ---------------------------------------------------------------------------


def test_run_server_port_file_write_is_offloaded():
    """The port-file write in run_server._main hops through an executor
    (it was a blocking open() on the event loop when first linted)."""
    report = check_repo(rules=[AsyncDisciplineRule()])
    assert report.ok, "\n" + report.format()
    # The two shutdown-path store calls stay visible as suppressions.
    assert report.suppressed >= 2
