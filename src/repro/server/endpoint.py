"""The ``repro-wire/1`` endpoint shared by the server and the router.

:class:`WireEndpoint` owns the listener, the connection path
(connection cap, frame limit, handshake, read loop), the writes, and
the drain; :class:`~repro.server.server.SolveServer` and
:class:`~repro.cluster.router.Router` keep only their hello advert,
frame handlers, drain body, and disconnect cleanup. The path is
described once, in docs/ARCHITECTURE.md ("The shared endpoint").
:class:`LoopThread` runs an endpoint (or the chaos proxy) on a
background thread for tests, benchmarks and examples.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any, Dict, Optional, Set

from ..errors import ProtocolError
from ..log import get_logger
from . import protocol
from .stats import ServerStats

__all__ = ["WireConn", "WireEndpoint", "LoopThread"]

log = get_logger("server.endpoint")


class WireConn:
    """Per-connection state: writer lock and outstanding work."""

    def __init__(self, cid: int, writer: asyncio.StreamWriter) -> None:
        self.cid = cid
        self.writer = writer
        self.write_lock = asyncio.Lock()
        #: client request id -> endpoint-side job id, for outstanding work
        self.jobs: Dict[str, str] = {}
        self.tasks: Set[asyncio.Task] = set()
        self.closed = False


class WireEndpoint:
    """Asyncio ``repro-wire/1`` listener with a shared connection loop.

    ``config`` needs ``host``, ``port``, ``max_conns``,
    ``max_frame_bytes``, ``handshake_timeout_s`` and
    ``drain_timeout_s``. Subclasses implement :meth:`_hello_frame` and
    :meth:`_dispatch`; the other hooks below are optional.
    """

    #: who speaks in the ``unsupported_protocol`` error message
    role = "server"

    def __init__(self, config) -> None:
        self.config = config
        self.stats = ServerStats()
        self.port: Optional[int] = None  #: bound port, known after start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional[asyncio.Event] = None
        self._draining = False
        self._conns: Set[WireConn] = set()
        self._next_cid = 0

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _hello_frame(self) -> Dict[str, Any]:
        """The hello reply: protocol id plus capability advert."""
        raise NotImplementedError

    async def _dispatch(self, conn: WireConn, frame: Dict[str, Any]) -> None:
        """Answer one decoded post-handshake frame."""
        raise NotImplementedError

    def _make_conn(self, cid: int, writer: asyncio.StreamWriter) -> WireConn:
        return WireConn(cid, writer)

    async def _handshake_reply(self) -> Dict[str, Any]:
        """The frame that completes a successful handshake."""
        return self._hello_frame()

    def _on_bound(self) -> None:
        """Runs on the loop once the listener is bound."""

    async def _drain_body(self) -> None:
        """Let in-flight work finish; connections close afterwards."""
        await self._await_conn_tasks()

    def _release_conn(self, conn: WireConn) -> None:
        """Free what a vanished connection held, before its tasks die."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener; ``self.port`` is valid afterwards."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=self.config.max_frame_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._on_bound()

    async def serve_until_drained(self) -> None:
        """Run until a drain (signal or ``shutdown`` frame) completes."""
        if self._server is None:
            await self.start()
        assert self._done is not None
        await self._done.wait()

    def run(self, install_signal_handlers: bool = True) -> None:
        """Blocking entry point used by ``repro serve`` / ``repro router``."""

        async def _main() -> None:
            await self.start()
            if install_signal_handlers:
                loop = asyncio.get_running_loop()
                for sig in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(NotImplementedError):
                        loop.add_signal_handler(sig, self.begin_drain)
            await self.serve_until_drained()

        asyncio.run(_main())

    def begin_drain(self) -> None:
        """Start a graceful drain; idempotent, must run on the loop."""
        if self._draining:
            return
        self._draining = True
        log.info("drain: stopping listener")
        assert self._loop is not None
        self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
        await self._drain_body()
        for conn in list(self._conns):
            await self._close_conn(conn)
        # after the close: from Python 3.12 on, wait_closed() also
        # waits for every accepted connection to go away
        if self._server is not None:
            await self._server.wait_closed()
        assert self._done is not None
        self._done.set()
        log.info("drain: complete")

    async def _await_conn_tasks(self) -> None:
        """Let every connection's outstanding replies go out (bounded)."""
        tasks = [t for conn in list(self._conns) for t in list(conn.tasks)]
        if tasks:
            await asyncio.wait(tasks, timeout=self.config.drain_timeout_s)

    async def _refuse_if_draining(self, conn: WireConn, request_id) -> bool:
        """Answer a work frame with ``draining`` once a drain has begun."""
        if not self._draining:
            return False
        self.stats.inc("rejects.draining")
        await self._send_error(
            conn, "draining", f"{self.role} is draining", request_id=request_id
        )
        return True

    def _track(self, conn: WireConn, coro) -> None:
        """Run ``coro`` as one of ``conn``'s tasks (cancelled on teardown)."""
        assert self._loop is not None
        task = self._loop.create_task(coro)
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.inc("connections.total")
        conn = self._make_conn(self._next_cid, writer)
        self._next_cid += 1
        if self._draining or len(self._conns) >= self.config.max_conns:
            code = "draining" if self._draining else "too_many_connections"
            self.stats.inc(f"rejects.{code}")
            with contextlib.suppress(ConnectionError, OSError):
                writer.write(
                    protocol.encode_frame(
                        protocol.error_frame(code, f"connection refused: {code}")
                    )
                )
                await writer.drain()
            writer.close()
            return
        # bound the kernel-side write buffer so a slow reader exerts
        # backpressure on its own drain() instead of growing memory
        with contextlib.suppress(Exception):
            writer.transport.set_write_buffer_limits(high=256 * 1024)
        self._conns.add(conn)
        try:
            if await self._handshake(conn, reader):
                await self._read_loop(conn, reader)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass  # client went away; cleanup below
        finally:
            await self._teardown_conn(conn)

    async def _handshake(self, conn: WireConn, reader: asyncio.StreamReader) -> bool:
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.config.handshake_timeout_s
            )
        except asyncio.TimeoutError:
            await self._send_error(
                conn, "handshake_required", "no hello frame before timeout"
            )
            return False
        except ValueError:
            await self._oversized(conn)
            return False
        if not line:
            return False
        self.stats.inc("frames.in")
        try:
            frame = protocol.decode_frame(line)
        except ProtocolError as exc:
            await self._send_error(conn, exc.code, str(exc))
            return False
        if frame.get("type") != "hello":
            await self._send_error(
                conn,
                "handshake_required",
                f"first frame must be hello, got {frame.get('type')!r}",
            )
            return False
        if frame.get("protocol") != protocol.PROTOCOL:
            await self._send_error(
                conn,
                "unsupported_protocol",
                f"{self.role} speaks {protocol.PROTOCOL}, "
                f"client offered {frame.get('protocol')!r}",
            )
            return False
        await self._send(conn, await self._handshake_reply())
        return True

    async def _read_loop(self, conn: WireConn, reader: asyncio.StreamReader) -> None:
        while not conn.closed:
            try:
                line = await reader.readline()
            except ValueError:
                # the stream buffer overflowed: an oversized frame (or
                # newline-free garbage); framing is unrecoverable
                await self._oversized(conn)
                return
            if not line:
                return  # EOF
            self.stats.inc("frames.in")
            try:
                frame = protocol.decode_frame(line)
            except ProtocolError as exc:
                # newline framing is still intact after a bad line, so
                # answer and keep the connection
                self.stats.inc("rejects.bad_frame")
                await self._send_error(conn, exc.code, str(exc))
                continue
            await self._dispatch(conn, frame)

    # ------------------------------------------------------------------
    # writing and teardown
    # ------------------------------------------------------------------
    async def _send(self, conn: WireConn, frame: Dict[str, Any]) -> None:
        if conn.closed:
            return
        data = protocol.encode_frame(frame)
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                # backpressure point: a slow client stalls only this
                # coroutine, never the loop or other connections
                await conn.writer.drain()
            self.stats.inc("frames.out")
        except (ConnectionError, OSError):
            conn.closed = True

    async def _send_error(
        self,
        conn: WireConn,
        code: str,
        message: str,
        request_id: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        self.stats.inc("errors.sent")
        await self._send(
            conn, protocol.error_frame(code, message, request_id, retry_after_s)
        )

    async def _oversized(self, conn: WireConn) -> None:
        self.stats.inc("rejects.frame_too_large")
        await self._send_error(
            conn,
            "frame_too_large",
            f"frame exceeds max_frame_bytes={self.config.max_frame_bytes}",
        )
        await self._close_conn(conn)

    async def _close_conn(self, conn: WireConn) -> None:
        self._conns.discard(conn)
        if conn.closed:
            return
        conn.closed = True
        with contextlib.suppress(ConnectionError, OSError):
            conn.writer.close()

    async def _teardown_conn(self, conn: WireConn) -> None:
        self._release_conn(conn)
        for task in list(conn.tasks):
            task.cancel()
        await self._close_conn(conn)


class LoopThread:
    """Run an asyncio endpoint on a background daemon thread.

    :meth:`start` waits until the endpoint's port is bound; :meth:`stop`
    ends the endpoint on its own loop and joins the thread, raising
    :class:`RuntimeError` (naming the thread) when it outlives the
    join. ``endpoint`` needs ``start()``, ``serve_until_drained()``,
    ``begin_drain()`` and ``port``; override :meth:`_serve` /
    :meth:`_shutdown` for anything else.
    """

    def __init__(self, endpoint, name: str) -> None:
        self._endpoint = endpoint
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)

    def _serve(self):
        return self._endpoint.serve_until_drained()

    def _shutdown(self) -> None:
        self._endpoint.begin_drain()

    def _run(self) -> None:
        async def _main() -> None:
            await self._endpoint.start()
            self._ready.set()
            await self._serve()

        try:
            asyncio.run(_main())
        finally:
            self._ready.set()  # unblock start() even on bind failure

    def start(self, timeout_s: float = 10.0):
        name = self._thread.name
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError(f"thread {name!r} failed to start in time")
        if self._endpoint.port is None:
            raise RuntimeError(f"thread {name!r} failed to bind (see log)")
        return self

    @property
    def port(self) -> int:
        assert self._endpoint.port is not None
        return self._endpoint.port

    def _call_on_loop(self, fn) -> None:
        loop = self._endpoint._loop
        if loop is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(fn)

    def _join(self, timeout_s: float) -> None:
        self._thread.join(timeout_s)
        if self._thread.is_alive():
            raise RuntimeError(
                f"thread {self._thread.name!r} still alive {timeout_s:g}s "
                f"after stop"
            )

    def stop(self, timeout_s: float = 30.0) -> None:
        """End the endpoint on its loop; raise if its thread outlives the join."""
        self._call_on_loop(self._shutdown)
        self._join(timeout_s)
