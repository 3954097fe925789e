"""wire-solve: open-loop solves through a real router and server.

Each request is a distinct generated graph of 3-6k edges (a random
relabelling of one of a few dozen seeded road, collab, social or bio
graphs), shipped inline as ``edgelist-gz`` and encoded before the
clock starts. Two pipelined connections send on a fixed schedule of
evenly spaced sends: a reference rate first, then a geometric ladder
past the stack's capacity. Latency runs from when a request was *due*, so a
stalled sender or a queue shows up in it.
"""

from __future__ import annotations

import base64
import gzip
import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import (
    Stack, check, cpu_steal_ticks, median, percentile, quiet_median, seeded, stats_frame,
)

#: reference offered rate (requests/s): well below the baseline stack's
#: capacity of 50-90 requests/s on a 2-core host, so a spell of host CPU
#: contention does not tip the stack into queueing
REFERENCE_RPS = 20.0
#: ladder rungs as multiples of the reference rate: geometric from 35/s
#: (the baseline stack's capacity under heavy host contention) with a
#: ratio of 1.05, so goodput moves in steps of 5% and tracks capacity
#: instead of jumping between coarse rungs; the last (107/s) is well past
#: the baseline stack's capacity of 50-90 requests/s (BASELINE.json)
LADDER = tuple(1.75 * 1.05**k for k in range(24))
#: seconds per ladder rung; the reference rung gets the rest. The rungs
#: follow each other without a pause, so a rung above capacity leaves
#: its backlog to the next and the climb fails soon after crossing it
RUNG_SECONDS = 0.3
#: p99 latency limit (ms) a rung must meet to count toward goodput;
#: fixed from the baseline program's unloaded p99 (see README.md)
LATENCY_LIMIT_MS = 200.0
#: wire.p99_ms is the median of the p99s of the quietest of this many
#: equal slices of the reference rung, so a burst of host contention
#: does not move it
SLICES = 5
#: a run whose sender fell further behind its schedule than this is
#: invalid (its latencies would understate queueing)
MAX_SEND_LAG_MS = 100.0
CONNECTIONS = 2
RECIPES = ("road", "collab", "social", "bio")
REFUSED_CODES = {
    "server_busy", "rate_limited", "draining", "too_many_connections",
    "no_backend", "deadline_exceeded",
}


def base_graph(recipe: str, rng: np.random.Generator, frac: float):
    """One seeded 3-6k-edge graph in the shape of a suite category.

    ``frac`` in [0, 1) places its size within the recipe's range; sizes
    are fixed and only the structure is seeded, so every seed offers
    the same amount of work and the seed does not move the figures.
    """
    from repro.graph import generators as gen
    from repro.graph.build import graph_union

    def size(lo: int, hi: int) -> int:
        return lo + int(frac * (hi - lo))

    s = int(rng.integers(0, 2**31 - 1))
    if recipe == "road":
        w = size(38, 50)
        return gen.road_grid(w, w, seed=s)
    if recipe == "collab":
        n = size(900, 1400)
        return gen.team_collaboration(n, int(n * 0.7), team_size_range=(2, 9), seed=s)
    if recipe == "social":
        comms = size(8, 13)
        return gen.caveman_social(comms, 40, p_in=0.45, p_out_degree=2.0, seed=s)
    n = size(750, 1200)
    return graph_union(
        gen.chung_lu_power_law(n, 6.0, exponent=2.2, seed=s),
        gen.team_collaboration(n, n // 8, team_size_range=(3, 10), seed=s + 1),
    )


@dataclass
class Request:
    index: int
    step: int
    due: float  # seconds after the schedule starts
    base: int
    perm: np.ndarray
    payload: Optional[Dict[str, str]] = None
    frame: bytes = b""
    sent: float = -1.0
    done: float = -1.0
    steal: int = 0  # host CPU steal ticks read just after the send
    reply: Optional[Dict[str, Any]] = None


@dataclass
class Step:
    rate: float
    start: float
    duration: float
    requests: List[Request] = field(default_factory=list)


class Workload:
    name = "wire-solve"

    def __init__(self, seed: int, seconds: float, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.bases_per_recipe = 2 if tiny else 8
        self.rate_scale = 0.25 if tiny else 1.0
        self.checks = 0

    # -- inputs -----------------------------------------------------------
    def prepare(self) -> None:
        from repro.core.config import SolverConfig
        from repro.service import SolveService

        rng = seeded(self.seed, 2, 0)
        self.bases = []
        for recipe in RECIPES:
            for i in range(self.bases_per_recipe):
                self.bases.append(base_graph(recipe, rng, i / self.bases_per_recipe))
        # reference answers: an in-process solve of each base graph
        service = SolveService(cache_size=0)
        self.expected = []
        for g in self.bases:
            rec = service.solve(g, SolverConfig())
            self.expected.append((rec.clique_number, rec.num_maximum_cliques))
        self.steps = self._schedule()

    def _schedule(self) -> List[Step]:
        rng = seeded(self.seed, 2, 1)
        ref = REFERENCE_RPS * self.rate_scale
        t_rung = min(RUNG_SECONDS, self.seconds / 60)
        t_ref = self.seconds - t_rung * len(LADDER)
        steps = [Step(ref, 0.0, t_ref)]
        t = t_ref
        for mult in LADDER:
            steps.append(Step(ref * mult, t, t_rung))
            t += t_rung
        index = 0
        # every base graph is drawn once per round, in a seeded order that
        # takes one graph of each recipe in turn, so every run and every
        # rung of the ladder offers the same mix of request costs
        per_recipe = self.bases_per_recipe
        order: List[int] = []
        for k, step in enumerate(steps):
            at = 0.0
            while True:
                # evenly spaced arrivals: every run offers exactly the rung's
                # rate, which keeps p99 and the rung verdicts steady
                at += 1.0 / step.rate
                if at >= step.duration:
                    break
                if not order:
                    groups = [r * per_recipe + rng.permutation(per_recipe)
                              for r in range(len(RECIPES))]
                    order = [int(g[i]) for i in range(per_recipe) for g in groups][::-1]
                base = order.pop()
                n = self.bases[base].num_vertices
                step.requests.append(
                    Request(index, k, step.start + at, base, rng.permutation(n))
                )
                index += 1
        return steps

    def encode(self, tag: str) -> None:
        """Build every request's solve frame (outside the timed region).

        The payload is the ``edgelist-gz`` text ``SolveClient`` ships (a
        size header, one ``u v`` line per edge), written straight from
        the relabelled edge arrays.
        """
        from repro.server import protocol

        for step in self.steps:
            for req in step.requests:
                if req.payload is None:
                    g = self.bases[req.base]
                    src, dst = g.to_edge_list()
                    lines = "\n".join(
                        f"{u} {v}"
                        for u, v in zip(req.perm[src].tolist(), req.perm[dst].tolist())
                    )
                    text = f"# |V|={g.num_vertices} |E|={g.num_edges}\n{lines}\n"
                    req.payload = {
                        "kind": "edgelist-gz",
                        "data": base64.b64encode(
                            gzip.compress(text.encode(), compresslevel=6)
                        ).decode("ascii"),
                    }
                req.frame = protocol.encode_frame({
                    "type": "solve",
                    "id": f"r{req.index}",
                    "request_id": f"{tag}-{self.seed}-{req.index}",
                    "graph": req.payload,
                })
                req.sent = req.done = -1.0
                req.steal = 0
                req.reply = None

    # -- the run ----------------------------------------------------------
    def measure(self, trace: bool) -> Dict[str, Any]:
        tag = "traced" if trace else "plain"
        self.encode(tag)
        setups = []
        # set up three times: start the stack, complete a handshake and a
        # warm-up solve; the first two are torn down again
        for attempt in range(3):
            stack = Stack(self.workdir, trace=trace)
            try:
                setups.append(stack.start() + self._warmup(stack))
            except BaseException:
                stack.kill()
                raise
            if attempt < 2:
                stack.stop()
        try:
            run = self._drive(stack)
            backend = stats_frame(stack.serve_port)
            router = stats_frame(stack.router_port)
        finally:
            outs = stack.stop()
        run["tag"] = tag
        run["setup_s"] = median(setups)
        run["peak_rss_mb"] = sum(o.get("peak_rss_mb", 0.0) for o in outs)
        run["traces"] = [o["trace"] for o in outs if "trace" in o]
        run["backend_stats"] = backend
        run["router_stats"] = router
        return run

    def _warmup(self, stack: Stack) -> float:
        """One tiny solve through the router; seconds until it answers."""
        from repro.server import protocol

        t0 = time.perf_counter()
        deadline = t0 + 30
        while True:
            with socket.create_connection(("127.0.0.1", stack.router_port)) as s:
                s.settimeout(30)
                f = s.makefile("rb")
                s.sendall(protocol.encode_frame(
                    {"type": "hello", "protocol": protocol.PROTOCOL}))
                f.readline()
                s.sendall(protocol.encode_frame({
                    "type": "solve", "id": "warm",
                    "graph": {"kind": "edges", "edges": [[0, 1], [1, 2], [0, 2]]},
                }))
                reply = json.loads(f.readline())
            if reply.get("type") == "result":
                return time.perf_counter() - t0
            if time.perf_counter() > deadline:
                raise RuntimeError(f"warm-up solve failed: {reply}")
            time.sleep(0.05)

    def _drive(self, stack: Stack) -> Dict[str, Any]:
        """Send the schedule and collect the answers with two threads.

        This thread sends on both connections in due order; one reader
        thread takes the answers off both, so the load generator never
        runs more threads than the host has cores.
        """
        from repro.server import protocol

        conns = [
            socket.create_connection(("127.0.0.1", stack.router_port))
            for _ in range(CONNECTIONS)
        ]
        bufs = [bytearray() for _ in conns]
        hello = protocol.encode_frame({"type": "hello", "protocol": protocol.PROTOCOL})
        for s, buf in zip(conns, bufs):
            s.sendall(hello)
            while b"\n" not in buf:
                buf += s.recv(1 << 16)
            del buf[: buf.index(b"\n") + 1]
        requests = [r for step in self.steps for r in step.requests]
        by_id = {f"r{r.index}": r for r in requests}
        errors: List[BaseException] = []
        sending = threading.Event()
        sending.set()

        def reader() -> None:
            sel = selectors.DefaultSelector()
            for k, s in enumerate(conns):
                sel.register(s, selectors.EVENT_READ, k)
            outstanding = len(requests)
            give_up = None
            try:
                while outstanding and sel.get_map():
                    if give_up is None and not sending.is_set():
                        # answers still missing 30 s after the last send fail
                        give_up = time.perf_counter() + 30
                    if give_up is not None and time.perf_counter() > give_up:
                        return
                    for key, _ in sel.select(timeout=0.5):
                        data = key.fileobj.recv(1 << 20)
                        now = time.perf_counter()
                        if not data:
                            sel.unregister(key.fileobj)
                            continue
                        buf = bufs[key.data]
                        buf += data
                        while (cut := buf.find(b"\n")) >= 0:
                            frame = json.loads(bytes(buf[:cut]))
                            del buf[: cut + 1]
                            req = by_id.get(frame.get("id"))
                            if req is not None and req.reply is None:
                                req.done = now
                                req.reply = frame
                                outstanding -= 1
            except BaseException as exc:  # reported after the run
                errors.append(exc)
            finally:
                sel.close()

        t0 = time.perf_counter() + 0.05
        self.t0 = t0
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for req in requests:
                delay = t0 + req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                req.sent = time.perf_counter()
                conns[req.index % CONNECTIONS].sendall(req.frame)
                req.steal = cpu_steal_ticks()
        finally:
            sending.clear()
            thread.join(timeout=35)
            for s in conns:
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            thread.join(timeout=10)
            for s in conns:
                s.close()
        if errors:
            raise errors[0]
        return {"wall_s": time.perf_counter() - t0}

    # -- results ----------------------------------------------------------
    def outcome(self, run: Dict[str, Any]) -> Dict[str, Any]:
        """Metrics and the per-rung report of one run."""
        steps_report = []
        passes = 0
        lags = []
        attempted = failed = 0
        for k, step in enumerate(self.steps):
            lat = []
            lat_steal = []
            ok = fail = refused = edges = 0
            first_sent = last_done = None
            for req in step.requests:
                attempted += 1
                if req.sent >= 0:
                    lags.append((req.sent - (self.t0 + req.due)) * 1e3)
                    first_sent = req.sent if first_sent is None else min(first_sent, req.sent)
                reply = req.reply
                if reply is None:
                    fail += 1
                elif reply.get("type") == "error":
                    if reply.get("code") in REFUSED_CODES:
                        refused += 1
                    else:
                        fail += 1
                elif reply.get("record", {}).get("status") != "ok":
                    fail += 1
                else:
                    ok += 1
                    edges += self.bases[req.base].num_edges
                    lat.append((req.done - (self.t0 + req.due)) * 1e3)
                    lat_steal.append(req.steal)
                    last_done = req.done if last_done is None else max(last_done, req.done)
            # above the reference rate a refusal is the server shedding load
            # on purpose: reported per rung, not counted as a failure
            failed += fail + (refused if k == 0 else 0)
            # measured span of the rung: first send to last answer
            span = (last_done - first_sent) if ok and last_done > first_sent else step.duration
            p99 = percentile(lat, 99)
            # no growing backlog: the rung's last answer lands within one
            # latency limit of the rung's end
            backlog_ok = last_done is not None and (
                last_done - self.t0 <= step.start + step.duration + LATENCY_LIMIT_MS / 1e3
            )
            passed = fail == 0 and refused == 0 and p99 <= LATENCY_LIMIT_MS and backlog_ok
            steps_report.append({
                "rate_rps": round(step.rate, 3), "sent": len(step.requests),
                "succeeded": ok, "failed": fail, "refused": refused,
                "p50_ms": percentile(lat, 50), "p99_ms": p99,
                "achieved_rps": ok / span, "passed": passed,
            })
            if k > 0 and passed:
                passes += 1
            if k == 0:
                # latencies are in due order, so slices are runs of due times
                parts = [p for p in np.array_split(np.arange(len(lat)), SLICES) if p.size]
                p99_ms = quiet_median(
                    [percentile([lat[i] for i in p], 99) for p in parts],
                    [lat_steal[p[-1]] - lat_steal[p[0]] for p in parts],
                )
                ref = {"latencies": lat, "ok_per_s": ok / span, "edges_per_s": edges / span,
                       "p99_ms": p99_ms}
        # goodput is the rate as many rungs up the ladder as rungs passed:
        # the highest passing rung when passes and failures are separated,
        # and one stray failure below capacity or one stray pass above it
        # moves it by one step only, where the highest pass would jump
        if passes:
            goodput = self.steps[passes].rate
        else:
            # no rung met the limit: report the reference rung's rate of
            # answers that did, so the metric still orders runs
            within = sum(1 for ms in ref["latencies"] if ms <= LATENCY_LIMIT_MS)
            goodput = within / self.steps[0].duration
        return {
            "attempted": attempted,
            "failed": failed,
            # error_rate's fixed set: the whole schedule
            "window": (failed, attempted),
            "ok": sum(step["succeeded"] for step in steps_report),
            "op_ms": ref["latencies"],
            "op_p99_ms": ref["p99_ms"],
            "update_ms": ref["latencies"],
            "update_p99_ms": ref["p99_ms"],
            "edges_per_s": ref["edges_per_s"],
            "ops_per_s": ref["ok_per_s"],
            "goodput_rps": goodput,
            "steps": steps_report,
            "send_lag_p50_ms": percentile(lags, 50),
            "send_lag_max_ms": max(lags) if lags else 0.0,
            "windows": [
                (self.t0 + r.due, r.done, f"{run['tag']}-{self.seed}-{r.index}")
                for r in self.steps[0].requests if r.done > 0
            ],
        }

    def answers(self, run: Dict[str, Any]) -> Dict[int, Tuple]:
        """Per-request answer fields that must not depend on tracing.

        The model time is a float, so it is compared to rounding only:
        the server charges a job the difference of its device's running
        model clock, whose last bits depend on which jobs ran before it,
        and neither two interleaved connections nor load shedding on the
        overload rungs keep that order the same from run to run.
        """
        out = {}
        for step in self.steps:
            for req in step.requests:
                reply = req.reply
                if reply and reply.get("type") == "result":
                    rec = reply["record"]
                    out[req.index] = (
                        rec.get("clique_number"), rec.get("num_maximum_cliques"),
                        float(rec.get("model_time_s")),
                        json.dumps(reply.get("cliques")),
                    )
        return out

    def fixed_set(self, run: Dict[str, Any]) -> Tuple[float, float, int]:
        """(launches, model seconds, requests): model time over the
        reference rung, whose requests all run; launches over the run."""
        ref = [r.reply["record"] for r in self.steps[0].requests
               if r.reply and r.reply.get("type") == "result"]
        ok = sum(1 for r in self.records(run) if r.get("status") == "ok")
        launches = sum(t["counts"].get("gpusim.launches", 0) for t in run["traces"])
        return launches * len(ref) / max(ok, 1), sum(r["model_time_s"] for r in ref), len(ref)

    def records(self, run: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [
            r.reply["record"] for step in self.steps for r in step.requests
            if r.reply and r.reply.get("type") == "result"
        ]

    def verify(self, run: Dict[str, Any]) -> None:
        """Every answer against the in-process solve of its graph."""
        for step in self.steps:
            for req in step.requests:
                reply = req.reply
                if not reply or reply.get("type") != "result":
                    continue
                rec = reply["record"]
                omega, count = self.expected[req.base]
                check(
                    (rec.get("clique_number"), rec.get("num_maximum_cliques"))
                    == (omega, count),
                    f"request {req.index}: got ({rec.get('clique_number')}, "
                    f"{rec.get('num_maximum_cliques')}), expected ({omega}, {count})",
                )
                rows = reply.get("cliques") or []
                check(len(rows) >= 1, f"request {req.index}: no witness clique")
                # witnesses live in the relabelled graph: map them back
                g = self.bases[req.base]
                inverse = np.argsort(req.perm)
                for row in rows:
                    verts = inverse[np.asarray(row, dtype=np.int64)]
                    check(len(set(verts.tolist())) == omega,
                          f"request {req.index}: witness of wrong size")
                    a, b = np.triu_indices(len(verts), k=1)
                    check(bool(g.batch_has_edge(verts[a], verts[b]).all()),
                          f"request {req.index}: witness is not a clique")
                self.checks += 1
