"""The shared endpoint harness: a hung shutdown is loud, never silent.

``LoopThread`` (behind ``ServerThread``, ``RouterThread`` and
``ChaosProxyThread``) must raise when the thread it joins outlives the
join, and ``ServerThread.stop`` must also raise when the bridge worker
does. Each test opens its gate afterwards so no thread leaks.
"""

import asyncio
import threading

import pytest

from repro.server import ServerConfig, ServerThread, SolveBridge
from repro.server.endpoint import LoopThread, WireEndpoint
from repro.service import SolveService


class _StuckEndpoint(WireEndpoint):
    """An endpoint whose drain waits on a gate only the test opens."""

    def __init__(self):
        super().__init__(ServerConfig(port=0))
        self.gate = None

    def _on_bound(self):
        self.gate = asyncio.Event()

    async def _drain_body(self):
        await self.gate.wait()


def _block_worker(bridge, gate):
    """Occupy the bridge worker until ``gate`` opens."""
    running = threading.Event()

    def job():
        running.set()
        gate.wait()

    bridge.submit_session(job)
    assert running.wait(10.0)


def test_stop_raises_when_drain_never_completes():
    endpoint = _StuckEndpoint()
    handle = LoopThread(endpoint, name="stuck-endpoint").start()
    with pytest.raises(RuntimeError, match="'stuck-endpoint' still alive"):
        handle.stop(timeout_s=0.2)
    endpoint._loop.call_soon_threadsafe(endpoint.gate.set)
    handle.stop(timeout_s=10.0)  # the released drain now completes
    assert not handle._thread.is_alive()


def test_bridge_stop_reports_whether_the_worker_exited():
    gate = threading.Event()
    bridge = SolveBridge(SolveService())
    _block_worker(bridge, gate)
    assert bridge.stop(timeout_s=0.2) is False
    gate.set()
    assert bridge.stop(timeout_s=10.0) is True


def test_server_thread_stop_raises_on_a_stuck_bridge_worker():
    gate = threading.Event()
    handle = ServerThread(
        SolveService(), ServerConfig(port=0, drain_timeout_s=0.1)
    ).start()
    _block_worker(handle.server.bridge, gate)
    try:
        with pytest.raises(RuntimeError, match="'solve-bridge' still alive"):
            handle.stop(timeout_s=1.0)
    finally:
        gate.set()
    handle.stop(timeout_s=10.0)
