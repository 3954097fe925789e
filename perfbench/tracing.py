"""Span recording by wrapping the program's public functions.

The program has no host wall-clock spans of its own, so the benchmark
records them from outside: :meth:`Recorder.install` replaces each
public function named in ``TARGETS`` with a wrapper that records one
span (name, start, end, parent span, request id, thread) per call.
Spans stay in memory until the run ends; :func:`self_times` and the
other aggregation helpers below then turn them into per-layer figures.

A span's parent is the innermost span open on the same thread; its
self time is its duration minus the durations of its children (which
nest strictly on one thread). Spans of one request share a request
id: a wrapper that can see the id sets it, and children inherit it.

Tracing never hands a tracer to the program (a recording tracer forces
the threaded executor onto its serial hand-off), so a traced run
executes exactly the code an untraced run does, plus the wrappers.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, kind). ``kind`` is "span" (timed)
#: or "count" (call count only, for hot tiny functions). Targets that a
#: later version of the program no longer has are skipped, and their
#: metrics read 0.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("repro.graph.csr", "CSRGraph.batch_has_edge", "graph.lookup", "span"),
    ("repro.graph.csr", "CSRGraph.fingerprint", "graph.fingerprint", "span"),
    ("repro.graph.build", "from_edge_array", "graph.csr_build", "span"),
    ("repro.gpusim.device", "Device.launch", "gpusim.launches", "count"),
    ("repro.gpusim.primitives", "exclusive_scan", "engine.scan", "span"),
    ("repro.gpusim.primitives", "inclusive_scan", "engine.scan", "span"),
    ("repro.gpusim.primitives", "run_boundaries", "engine.scan", "span"),
    ("repro.engine.problems", "ProblemKind.count", "engine.count_pass", "span"),
    ("repro.engine.problems", "ProblemKind.output", "engine.output_pass", "span"),
    ("repro.engine.driver", "LevelDriver.run", "engine.level_loop", "span"),
    ("repro.service.service", "SolveService.run", "service.batch", "span"),
    ("repro.service.service", "SolveService.submit", "service.submit", "span"),
    ("repro.server.protocol", "decode_graph", "server.decode_graph", "span"),
    ("repro.server.protocol", "decode_frame", "server.decode_frame", "span"),
    ("repro.server.protocol", "encode_frame", "server.encode_frame", "span"),
    ("repro.server.protocol", "solve_request_from_frame", "server.solve_request", "span"),
    ("repro.server.bridge", "SolveBridge.submit", "server.bridge_submit", "span"),
    ("repro.stream.mutable", "MutableGraph.materialize", "stream.materialize", "span"),
    ("repro.stream.mutable", "MutableGraph.apply", "stream.apply", "span"),
    ("repro.stream.incremental", "IncrementalSolver.apply", "stream.incremental", "span"),
]

#: pipeline stages are wrapped per class, span name ``pipeline.<name>``
STAGES_MODULE = "repro.pipeline.stages"


class Recorder:
    """In-memory span and counter store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, name, t0, t1, parent, rid, thread)
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: id(graph) / job id -> request id (set where a wrapper sees both)
        self.request_of: Dict[Any, str] = {}

    # -- counters ---------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap_span(
        self,
        fn: Callable,
        name: str,
        rid_of: Optional[Callable[[tuple, dict], Optional[str]]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[1]
            sid = next(rec._ids)
            stack.append((sid, rid))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append(
                    (sid, name, t0, t1, parent[0] if parent else None, rid,
                     threading.get_ident())
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_count(self, fn: Callable, name: str) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        """Swap ``owner.attr`` and every ``repro.*`` module binding of it."""
        old = getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if (
                mod is not owner
                and mod_name.startswith("repro")
                and getattr(mod, attr, None) is old
            ):
                setattr(mod, attr, new)
                self._undo.append((mod, attr, old))

    def install(self) -> "Recorder":
        """Wrap every target; returns self. Idempotent per recorder."""
        if self._undo:
            return self
        hooks = _Hooks(self)
        for module_name, path, name, kind in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if kind == "count":
                self._replace(owner, attr, self.wrap_count(fn, name))
            else:
                rid_of, after = hooks.for_span(name)
                self._replace(owner, attr, self.wrap_span(fn, name, rid_of, after))
        try:
            stages = importlib.import_module(STAGES_MODULE)
        except ImportError:
            self.missing.append(STAGES_MODULE)
            return self
        for obj in list(vars(stages).values()):
            if (
                isinstance(obj, type)
                and isinstance(getattr(obj, "name", None), str)
                and "run" in vars(obj)
            ):
                self._replace(
                    obj, "run", self.wrap_span(obj.run, f"pipeline.{obj.name}")
                )
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def dump(self) -> Dict[str, Any]:
        """JSON-safe copy of everything recorded (for a child process)."""
        with self._lock:
            return {
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "missing": list(self.missing),
            }


class _Hooks:
    """Request-id extraction and per-call counting for some spans."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._submitted: Dict[str, float] = {}
        self._picked = threading.local()
        self._solver_last: Dict[int, Tuple[int, int, int]] = {}

    def for_span(self, name: str):
        return {
            "graph.lookup": (self._rid_self_graph, self._after_lookup),
            "engine.level_loop": (None, self._after_level_loop),
            "service.submit": (self._rid_request, self._after_service_submit),
            "service.batch": (None, self._after_service_batch),
            "server.solve_request": (self._rid_frame, self._after_solve_request),
            "server.bridge_submit": (self._before_bridge_submit, None),
            "server.decode_frame": (None, self._after_decode_frame),
            "server.encode_frame": (self._rid_out_frame, self._after_encode_frame),
            "stream.incremental": (None, self._after_incremental),
        }.get(name, (None, None))

    # -- graph / engine ---------------------------------------------------
    def _rid_self_graph(self, args, kwargs):
        return self.rec.request_of.get(id(args[0])) if args else None

    def _after_lookup(self, args, found) -> None:
        self.rec.add("graph.lookup.queries", int(found.size))
        self.rec.add("graph.lookup.hits", int(found.sum()))

    def _after_level_loop(self, args, outcome) -> None:
        levels = getattr(outcome, "levels", ())
        self.rec.add("engine.generated", sum(lv.generated for lv in levels))
        self.rec.add("engine.pruned", sum(lv.pruned for lv in levels))

    # -- service / bridge -------------------------------------------------
    def _rid_request(self, args, kwargs):
        request = args[1] if len(args) > 1 else kwargs.get("request")
        graph = getattr(request, "graph", None)
        return self.rec.request_of.get(id(graph)) if graph is not None else None

    def _after_service_submit(self, args, job_id) -> None:
        # the bridge worker hands a request to the service when it picks
        # the batch up: that instant ends the request's bridge wait
        t_submit = self._submitted.pop(job_id, None)
        if t_submit is not None:
            self.rec.sample("server.bridge.wait_s", time.perf_counter() - t_submit)
            self._picked.n = getattr(self._picked, "n", 0) + 1

    def _after_service_batch(self, args, records) -> None:
        picked = getattr(self._picked, "n", 0)
        if picked:
            self.rec.sample("server.bridge.batch_size", picked)
            self._picked.n = 0

    def _before_bridge_submit(self, args, kwargs):
        # stamped before the call: the worker may pick the job up before
        # submit() returns
        request = args[1] if len(args) > 1 else kwargs.get("request")
        job_id = getattr(request, "job_id", None)
        rid = self._rid_request(args, kwargs)
        if job_id is not None:
            self._submitted[job_id] = time.perf_counter()
            if rid is not None:
                self.rec.request_of[job_id] = rid
        return rid


    # -- wire codec -------------------------------------------------------
    @staticmethod
    def _rid_frame(args, kwargs):
        frame = args[0] if args else kwargs.get("frame")
        return frame.get("request_id") if isinstance(frame, dict) else None

    def _after_solve_request(self, args, result) -> None:
        rid = self._rid_frame(args, {})
        request = result[0] if isinstance(result, tuple) else result
        graph = getattr(request, "graph", None)
        if rid is not None and graph is not None:
            self.rec.request_of[id(graph)] = rid

    def _after_decode_frame(self, args, frame) -> None:
        line = args[0] if args else b""
        self.rec.add("server.frame_bytes.in", len(line))

    def _rid_out_frame(self, args, kwargs):
        frame = args[0] if args else kwargs.get("frame")
        record = frame.get("record") if isinstance(frame, dict) else None
        if isinstance(record, dict):
            return self.rec.request_of.get(record.get("job_id"))
        return None

    def _after_encode_frame(self, args, data) -> None:
        self.rec.add("server.frame_bytes.out", len(data))

    # -- stream -----------------------------------------------------------
    def _after_incremental(self, args, result) -> None:
        solver = args[0]
        now = (
            getattr(solver, "incremental_batches", 0),
            getattr(solver, "full_solves", 0),
            getattr(solver, "localized_solves", 0),
        )
        last = self._solver_last.get(id(solver), (0, 0, 0))
        self._solver_last[id(solver)] = now
        self.rec.add("stream.incremental_batches", now[0] - last[0])
        self.rec.add("stream.full_solves", now[1] - last[1])
        self.rec.add("stream.localized_solves", now[2] - last[2])
        self.rec.add("stream.batches", 1)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(dumps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Summed self seconds per span name across all dumps."""
    out: Dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        child: Dict[int, float] = {}
        for sid, name, t0, t1, parent, rid, tid in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, name, t0, t1, parent, rid, tid in spans:
            out[name] = out.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
    return out


def span_stats(dumps: List[Dict[str, Any]], name: str) -> Tuple[int, float]:
    """(calls, summed duration) of one span name."""
    calls, total = 0, 0.0
    for dump in dumps:
        for _, n, t0, t1, *_ in dump["spans"]:
            if n == name:
                calls += 1
                total += t1 - t0
    return calls, total


def windows_in(dumps: List[Dict[str, Any]], inner: str, outer: str) -> int:
    """How many ``inner`` spans run beneath an ``outer`` span."""
    count = 0
    for dump in dumps:
        by_id = {s[0]: s for s in dump["spans"]}
        for s in dump["spans"]:
            if s[1] != inner:
                continue
            parent = s[4]
            while parent is not None and parent in by_id:
                if by_id[parent][1] == outer:
                    count += 1
                    break
                parent = by_id[parent][4]
    return count


def merged(dumps: List[Dict[str, Any]], key: str) -> Dict[str, Any]:
    """Sum ``counts`` or concatenate ``samples`` across dumps."""
    out: Dict[str, Any] = {}
    for dump in dumps:
        for name, value in dump.get(key, {}).items():
            if key == "counts":
                out[name] = out.get(name, 0) + value
            else:
                out.setdefault(name, []).extend(value)
    return out


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1]:
            if t1 > out[-1][1]:
                out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out


def coverage(
    windows: List[Tuple[float, float, Optional[str]]],
    dumps: List[Dict[str, Any]],
) -> float:
    """Mean share of each window that recorded spans cover.

    A window is ``(start, end, request id)``; with a request id only
    that request's spans count, without one every span does. Spans from
    every process compare directly, since ``time.perf_counter`` reads
    the system-wide monotonic clock on Linux.
    """
    raw: Dict[Optional[str], List[Tuple[float, float]]] = {None: []}
    for dump in dumps:
        for _, _, t0, t1, _, rid, _ in dump["spans"]:
            raw[None].append((t0, t1))
            if rid is not None:
                raw.setdefault(rid, []).append((t0, t1))
    unions = {rid: _union(iv) for rid, iv in raw.items()}
    starts = {rid: [t0 for t0, _ in iv] for rid, iv in unions.items()}
    shares = []
    for start, end, rid in windows:
        if end <= start:
            continue
        iv = unions.get(rid, [])
        k = max(bisect.bisect_right(starts.get(rid, []), start) - 1, 0)
        covered = 0.0
        while k < len(iv) and iv[k][0] < end:
            covered += max(0.0, min(iv[k][1], end) - max(iv[k][0], start))
            k += 1
        shares.append(covered / (end - start))
    return sum(shares) / len(shares) if shares else 0.0
