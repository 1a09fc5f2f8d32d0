"""Asynchronous TARDiS client: asyncio streams, ``await``-shaped API.

The async twin of :class:`repro.client.client.TardisClient`: the same
calls, written once in ``client.py``, each returning an awaitable here.
One ``AsyncTardisClient`` is one connection/session and, like the sync
client, a strict send-one/read-one loop: do not interleave requests from
concurrent tasks on a single client — open one client per task::

    client = await AsyncTardisClient.connect(port=7145, session="alice")
    txn = await client.begin()
    await txn.put("greeting", "hello")
    await txn.commit()
    await client.close()

As on the sync client a transaction is at most two round trips:
``begin``, ``put`` and ``delete`` send nothing (they return an
already-completed awaitable) and ride on the transaction's next request,
so the snapshot is chosen when the first operation reaches the server.
A transaction that wrote nothing is one: ``commit()`` is completed too,
with the read state; the connection's next frame tells the server.

A call cancelled or timed out (``asyncio.wait_for``) before its answer
arrives closes the client, as a socket timeout does the sync one.
"""

from __future__ import annotations

import asyncio
from contextlib import suppress
from typing import Any, Callable, List, Optional

from repro.client.client import _BaseClient, _MergeMode, _SingleMode
from repro.client.client import _Json, _OnError, _Parse
from repro.errors import NetworkError

__all__ = ["AsyncTardisClient", "AsyncClientTransaction", "AsyncClientMergeTransaction"]


class _AsyncContext:
    """``async with``: commit on a clean exit, abort on an exception."""

    async def __aenter__(self) -> Any:
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.status == "active":
            await (self.commit() if exc_type is None else self.abort())


class AsyncClientTransaction(_AsyncContext, _SingleMode):
    """A single-mode transaction over the wire (async)."""


class AsyncClientMergeTransaction(_AsyncContext, _MergeMode):
    """A merge transaction over the wire (async); see the sync twin."""


class AsyncTardisClient(_BaseClient):
    """An asyncio-streams client for one TARDiS server connection."""

    _txn_class = AsyncClientTransaction
    _merge_class = AsyncClientMergeTransaction

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 7145, session: Optional[str] = None
    ) -> "AsyncTardisClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        try:
            return await client._hello(session)
        except BaseException:
            client._drop()  # refused: give the server its slot back
            raise

    async def _exchange(self, frame: bytes, parse: _Parse, on_error: _OnError) -> Any:
        try:
            self._writer.write(frame)
            await self._writer.drain()
            response = self._channel.response()
            while response is None:
                self._channel.feed(await self._reader.read(65536))
                response = self._channel.response()
        except BaseException as exc:  # CancelledError (a wait_for timeout) included
            self._failed(exc, on_error)
            raise
        return parse(response)

    def _ready(self, value: Any) -> "asyncio.Future[Any]":
        ready = asyncio.get_running_loop().create_future()
        ready.set_result(value)
        return ready

    async def _then(self, first: Any, rest: Callable[[], Any]) -> Any:
        await first
        return await rest()

    def _drop(self) -> None:
        self._writer.close()

    async def put(self, key: Any, value: Any) -> str:
        txn = await self.begin()
        await txn.put(key, value)
        return await txn.commit()

    async def get(self, key: Any, default: Any = None) -> Any:
        return await self._read_once(lambda txn: txn.get(key, default=default))

    async def get_many(self, keys: List[Any], default: Any = None) -> List[Any]:
        """Batch-read autocommit transaction (one READ_MANY frame)."""
        return await self._read_once(lambda txn: txn.get_many(keys, default=default))

    async def _read_once(self, read: Callable[[AsyncClientTransaction], Any]) -> Any:
        txn = await self.begin(read_only=True)
        try:
            return await read(txn)
        finally:
            if txn.status == "active":
                await txn.commit()

    async def next_obs_frame(self, timeout: Optional[float] = None) -> Optional[_Json]:
        """The next push frame, or None when ``timeout`` elapses first."""
        frame = self._channel.push()
        while frame is None:
            try:
                data = await asyncio.wait_for(self._reader.read(65536), timeout)
            except asyncio.TimeoutError:
                return None
            self._channel.feed(data)
            frame = self._channel.push()
        return frame

    async def close(self) -> None:
        """Polite close: BYE (best effort), drop the stream, wait for it."""
        with suppress(NetworkError, OSError):  # already closed included
            await self._bye()
        self._channel.abandon()
        self._drop()
        with suppress(OSError):
            await self._writer.wait_closed()

    async def __aenter__(self) -> "AsyncTardisClient":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()
