"""The worker-thread bridge between asyncio and the SolveService.

A :class:`~repro.service.SolveService` is a blocking, batch-oriented
API: ``submit`` then ``run()`` drains everything through the
scheduler, cache, admission controller, and executor. The event loop
must never sit inside that call, so the bridge owns one dedicated
host thread that *micro-batches*: it sleeps until at least one request
is queued, then takes everything queued at that instant, runs it as
one service batch, and completes each request's
:class:`concurrent.futures.Future` with its
:class:`~repro.service.request.JobRecord`.

Micro-batching is not just an adapter trick -- it is what makes the
network front-end compose with the rest of the stack: requests that
arrive together share one scheduler pass (so ``sef`` ordering and the
result cache see them as one workload) and drain through the
service's configured executor, so ``repro serve --workers N`` gets
genuine multi-device overlap from the PR-4 threaded executor with no
new concurrency machinery here.

The bounded queue is the server's backpressure point, layered *in
front of* the service's admission controller: ``submit`` raises
:class:`BridgeQueueFull` when ``max_queue`` requests are already
waiting, which the server answers with a retriable ``server_busy``
error frame. Draining (SIGTERM / ``shutdown`` frame) lets the
in-flight batch finish while every queued request fails fast with a
retriable ``draining`` error.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ServerError
from ..log import get_logger
from ..service.request import SolveRequest

__all__ = ["SolveBridge", "BridgeQueueFull"]

log = get_logger("server.bridge")

#: job states reported by :meth:`SolveBridge.state`
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CANCELLED = "cancelled"
UNKNOWN = "unknown"


class BridgeQueueFull(Exception):
    """The bounded bridge queue is at capacity (backpressure signal)."""

    def __init__(self, depth: int) -> None:
        self.depth = depth
        super().__init__(f"bridge queue full at {depth} request(s)")


@dataclass
class _Pending:
    request: SolveRequest
    future: "Future"
    cancelled: bool = field(default=False)


@dataclass
class _SessionJob:
    """One queued session operation: a callable run on the worker.

    Session jobs (open / mutate / close, see docs/STREAMING.md) run on
    the same worker thread as solve batches -- the only thread allowed
    to drive the blocking service -- *after* the solve batch taken in
    the same wakeup. The queue is FIFO, which serializes operations
    per session (epochs apply in arrival order) while operations of
    different sessions naturally interleave.
    """

    fn: "object"
    future: "Future"
    label: str = ""
    cancelled: bool = field(default=False)


class SolveBridge:
    """Micro-batching worker-thread bridge over one ``SolveService``."""

    def __init__(self, service, max_queue: int = 64) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.service = service
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._queue: List[_Pending] = []
        self._session_queue: List[_SessionJob] = []
        self._states: Dict[str, str] = {}
        #: job id -> newest completed-window checkpoint (in-flight only)
        self._checkpoints: Dict[str, object] = {}
        self._in_flight = 0
        self._draining = False
        self._stopped = False
        self._idle = threading.Event()
        self._idle.set()
        self._thread = threading.Thread(
            target=self._run, name="solve-bridge", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # front-end API (called from the event loop)
    # ------------------------------------------------------------------
    def submit(self, request: SolveRequest) -> "Future":
        """Queue one request; its future resolves to a JobRecord.

        Raises :class:`BridgeQueueFull` when the bounded queue is at
        capacity and :class:`~repro.errors.ServerError` (code
        ``draining``) once a drain has begun.
        """
        future: Future = Future()
        with self._cond:
            if self._draining or self._stopped:
                raise ServerError(
                    "server is draining; retry against another replica",
                    code="draining",
                    retriable=True,
                )
            if len(self._queue) >= self.max_queue:
                raise BridgeQueueFull(len(self._queue))
            if request.job_id is None:
                raise ValueError("bridge requests need a pre-assigned job_id")
            # expose the newest completed-window checkpoint of this job
            # while it is in flight (the ``checkpoint`` wire frame and,
            # through it, the cluster router's failover shipping)
            job_id = request.job_id
            if request.checkpoint_sink is None:
                request.checkpoint_sink = (
                    lambda ckpt, _id=job_id: self._store_checkpoint(_id, ckpt)
                )
            self._queue.append(_Pending(request, future))
            self._states[request.job_id] = QUEUED
            self._idle.clear()
            self._cond.notify()
        return future

    def submit_session(self, fn, label: str = "") -> "Future":
        """Queue one session operation; its future gets ``fn()``'s result.

        ``fn`` is a zero-argument callable executed on the worker
        thread, where it may drive the service directly (the session's
        localized and full solves). Shares the queue bound and the
        drain discipline with solve requests.
        """
        future: Future = Future()
        with self._cond:
            if self._draining or self._stopped:
                raise ServerError(
                    "server is draining; retry against another replica",
                    code="draining",
                    retriable=True,
                )
            if len(self._session_queue) >= self.max_queue:
                raise BridgeQueueFull(len(self._session_queue))
            self._session_queue.append(_SessionJob(fn, future, label))
            self._idle.clear()
            self._cond.notify()
        return future

    def _store_checkpoint(self, job_id: str, ckpt) -> None:
        """Record the latest checkpoint (called from the worker thread)."""
        with self._cond:
            self._checkpoints[job_id] = ckpt

    def checkpoint(self, job_id: str):
        """The newest completed-window checkpoint of an in-flight job.

        Returns a :class:`~repro.core.checkpoint.SearchCheckpoint` or
        None (job unknown, finished, or not resumable). Checkpoints are
        dropped once the job completes -- a finished job's result is
        the better artefact.
        """
        with self._cond:
            return self._checkpoints.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; running jobs cannot be stopped.

        Returns True when the job was removed from the queue (its
        future fails with a ``cancelled`` ServerError); False when it
        is already running, finished, or unknown.
        """
        with self._cond:
            for pending in self._queue:
                if pending.request.job_id == job_id and not pending.cancelled:
                    pending.cancelled = True
                    self._states[job_id] = CANCELLED
                    pending.future.set_exception(
                        ServerError(
                            f"job {job_id} cancelled before it ran",
                            code="cancelled",
                        )
                    )
                    return True
        return False

    def state(self, job_id: str) -> str:
        """``queued`` / ``running`` / ``done`` / ``cancelled`` / ``unknown``."""
        with self._cond:
            return self._states.get(job_id, UNKNOWN)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Requests inside the currently-running service batch."""
        with self._cond:
            return self._in_flight

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Reject everything queued, let the in-flight batch finish.

        Blocks until the worker thread is idle (or ``timeout_s``
        elapses); returns True when the drain completed in time. Safe
        to call from any thread except the worker itself.
        """
        with self._cond:
            self._draining = True
            for pending in self._queue:
                if not pending.cancelled:
                    pending.cancelled = True
                    self._states[pending.request.job_id] = CANCELLED
                    pending.future.set_exception(
                        ServerError(
                            "server is draining; queued job rejected",
                            code="draining",
                            retriable=True,
                        )
                    )
            self._queue.clear()
            for job in self._session_queue:
                if not job.cancelled:
                    job.cancelled = True
                    if not job.future.done():
                        job.future.set_exception(
                            ServerError(
                                "server is draining; queued session "
                                "operation rejected",
                                code="draining",
                                retriable=True,
                            )
                        )
            self._session_queue.clear()
            self._cond.notify()
        return self._idle.wait(timeout_s)

    def stop(self, timeout_s: Optional[float] = 10.0) -> bool:
        """Drain, then terminate the worker thread.

        Returns True when the worker thread has exited, False when it
        is still alive after the ``timeout_s`` join.
        """
        self.drain(timeout_s)
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join(timeout_s)
        return not self._thread.is_alive()

    # ------------------------------------------------------------------
    # worker thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while (
                    not self._queue
                    and not self._session_queue
                    and not self._stopped
                ):
                    self._idle.set()
                    self._cond.wait()
                if self._stopped and not self._queue:
                    self._idle.set()
                    return
                session_jobs = [
                    j for j in self._session_queue if not j.cancelled
                ]
                self._session_queue.clear()
                batch = []
                for pending in self._queue:
                    if pending.cancelled:
                        continue
                    deadline = getattr(pending.request, "deadline", None)
                    if deadline is not None and deadline.expired:
                        # the client's budget ran out while the job sat
                        # queued: fail it retriable *now* instead of
                        # computing an answer nobody is waiting for
                        self._states[pending.request.job_id] = DONE
                        pending.future.set_exception(
                            ServerError(
                                f"job {pending.request.job_id} missed its "
                                f"deadline while queued",
                                code="deadline_exceeded",
                                retriable=True,
                                exit_code=3,
                            )
                        )
                        continue
                    batch.append(pending)
                self._queue.clear()
                self._in_flight = len(batch) + len(session_jobs)
                for pending in batch:
                    self._states[pending.request.job_id] = RUNNING
            if not batch and not session_jobs:
                continue
            try:
                if batch:
                    self._run_batch(batch)
                # session operations run after the solve batch taken in
                # the same wakeup, in FIFO order (per-session serialization)
                for job in session_jobs:
                    if job.future.done():
                        # the waiter vanished (connection teardown
                        # cancelled the wrapped future): skip the work;
                        # a retry re-submits with the same request_id
                        continue
                    try:
                        result = job.fn()
                    except BaseException as exc:
                        if not job.future.done():
                            job.future.set_exception(exc)
                    else:
                        if not job.future.done():
                            job.future.set_result(result)
            finally:
                with self._cond:
                    self._in_flight = 0

    def _finish(self, job_id: str) -> None:
        """Mark a job done and drop its checkpoint in one locked step.

        A reader that sees state ``done`` must never see the finished
        job's checkpoint (a finished job exposes no resume point).
        """
        with self._cond:
            self._checkpoints.pop(job_id, None)
            self._states[job_id] = DONE

    def _run_batch(self, batch: List[_Pending]) -> None:
        by_id = {p.request.job_id: p for p in batch}
        try:
            for pending in batch:
                self.service.submit(pending.request)
            records = self.service.run()
        except BaseException as exc:  # a service-layer invariant broke
            log.exception("bridge batch of %d job(s) failed", len(batch))
            for pending in batch:
                self._finish(pending.request.job_id)
                if not pending.future.done():
                    pending.future.set_exception(
                        ServerError(f"internal service failure: {exc}")
                    )
            return
        matched = 0
        for record in records:
            pending = by_id.get(record.job_id)
            if pending is None:
                continue  # a record from an earlier, unrelated run
            self._finish(record.job_id)
            if not pending.future.done():
                pending.future.set_result(record)
                matched += 1
        if matched != len(batch):  # pragma: no cover - defensive
            for pending in batch:
                if not pending.future.done():
                    self._finish(pending.request.job_id)
                    pending.future.set_exception(
                        ServerError("service returned no record for this job")
                    )
