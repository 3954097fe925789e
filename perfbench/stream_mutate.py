"""stream-mutate: closed-loop edge mutations on a resident session.

One ``SolveClient`` opens a session on a generated social graph (a few
tens of thousands of edges, admitted for full enumeration so the
session tracks its clique set) and sends a seeded sequence of small
insert/delete batches, each after the previous reply. Most inserts
join two members of one community, so they close triangles in dense
regions and run localized re-solves. A second connection holds a
``subscribe``; the update latency of a mutation runs from its send
until the subscriber sees an epoch at least as new.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from common import (
    Stack, check, cpu_steal_ticks, median, percentile, quiet_median, seeded, stats_frame,
)

Edge = Tuple[int, int]

#: every this-many epochs (and the last) is re-solved from scratch
CHECK_EVERY = 50
#: gpusim.model_time_s covers the bootstrap plus this many mutations
MODEL_PREFIX = 100
#: rates and p99s are medians over the quietest of this many equal
#: slices of the run
SEGMENTS = 7


def base_graph(seed: int, tiny: bool):
    """A social graph between soc-comm-30x70 and fb-comm-30x100."""
    from repro.graph import generators as gen

    comms, size = (6, 40) if tiny else (27, 70)
    s = int(seeded(seed, 3, 0).integers(0, 2**31 - 1))
    return gen.caveman_social(comms, size, p_in=0.44, p_out_degree=2.0, seed=s), size


class MutationScript:
    """Seeded (inserts, deletes) batches, valid in sequence, never ending.

    Batches are generated on demand from the edge set the previous
    batches leave, so however fast the program answers, the script
    cannot run out; the same seed always gives the same sequence.
    """

    def __init__(self, graph, size: int, seed: int) -> None:
        self.rng = seeded(seed, 3, 1)
        src, dst = graph.to_edge_list()
        self.edges: Set[Edge] = set(zip(src.tolist(), dst.tolist()))
        self.edge_list = list(self.edges)
        self.n = graph.num_vertices
        self.size = size
        self.batches: List[Tuple[list, list]] = []

    def __getitem__(self, i: int) -> Tuple[list, list]:
        self.generate(i + 1)
        return self.batches[i]

    def generate(self, count: int) -> None:
        """Make sure the first ``count`` batches exist."""
        while len(self.batches) < count:
            self.batches.append(self._next())

    def _next(self) -> Tuple[list, list]:
        rng, edges, n, size = self.rng, self.edges, self.n, self.size
        inserts: List[Edge] = []
        deletes: List[Edge] = []
        want = int(rng.integers(1, 4))
        while len(inserts) < want:
            if rng.random() < 0.8:
                # inside one community: closes triangles in a dense block
                c = int(rng.integers(0, n // size))
                u, v = (c * size + rng.choice(size, 2, replace=False)).tolist()
            else:
                u, v = rng.choice(n, 2, replace=False).tolist()
            e = (min(u, v), max(u, v))
            if e not in edges and e not in inserts:
                inserts.append(e)
        if rng.random() < 0.5:
            while True:
                e = self.edge_list[int(rng.integers(0, len(self.edge_list)))]
                if e in edges and e not in inserts:
                    deletes.append(e)
                    break
        for e in inserts:
            edges.add(e)
            self.edge_list.append(e)
        for e in deletes:
            edges.discard(e)
        return [list(e) for e in inserts], [list(e) for e in deletes]


class Workload:
    name = "stream-mutate"

    def __init__(self, seed: int, seconds: float, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.workdir = workdir
        self.checks = 0

    def prepare(self) -> None:
        self.graph, self.size = base_graph(self.seed, self.tiny)
        self.script = MutationScript(self.graph, self.size, self.seed)
        # generate ahead what a run at a few hundred mutations/s sends, so
        # the timed loop rarely extends the script itself
        self.script.generate(int(self.seconds * 300))

    # -- the run ----------------------------------------------------------
    def measure(self, trace: bool) -> Dict[str, Any]:
        setups = []
        for attempt in range(3):
            stack = Stack(self.workdir, trace=trace)
            try:
                t0 = time.perf_counter()
                stack.start()
                session = self._open(stack, f"s{attempt}")
                setups.append(time.perf_counter() - t0)
            except BaseException:
                stack.kill()
                raise
            if attempt < 2:
                self._close(session)
                stack.stop()
        try:
            run = self._drive(stack, session)
            run["backend_stats"] = stats_frame(stack.serve_port)
            run["router_stats"] = stats_frame(stack.router_port)
        finally:
            self._close(session)
            outs = stack.stop()
        run["subscriber"].join(timeout=30)
        run["setup_s"] = median(setups)
        run["peak_rss_mb"] = sum(o.get("peak_rss_mb", 0.0) for o in outs)
        run["traces"] = [o["trace"] for o in outs if "trace" in o]
        return run

    def _open(self, stack: Stack, sid: str) -> Dict[str, Any]:
        """Open the session and its subscription; both are set-up."""
        from repro.server import SolveClient

        addr = ("127.0.0.1", stack.router_port)
        client = SolveClient(*addr, timeout_s=60)
        opened = client.open_session(self.graph, session=f"bench-{sid}")
        # from here on a failed mutate counts as failed, not retried
        client.retries = 0
        client.timeout_s = 20
        watcher = SolveClient(*addr, timeout_s=30)
        updates: List[Tuple[float, int, bool]] = []
        first = threading.Event()

        def watch() -> None:
            try:
                for frame in watcher.subscribe(opened["session"]):
                    updates.append(
                        (time.perf_counter(), int(frame["epoch"]), bool(frame.get("closed")))
                    )
                    first.set()
            except Exception as exc:  # reported by the check on updates
                updates.append((time.perf_counter(), -1, True))
                print(f"subscriber ended: {exc}", flush=True)
            finally:
                first.set()
                watcher.close()

        thread = threading.Thread(target=watch, daemon=True)
        thread.start()
        first.wait(timeout=60)
        return {"client": client, "id": opened["session"], "opened": opened,
                "updates": updates, "thread": thread, "closed": False}

    def _close(self, session: Dict[str, Any]) -> None:
        if session["closed"]:
            return
        session["closed"] = True
        try:
            session["client"].close_session(session["id"])
        finally:
            session["client"].close()
        session["thread"].join(timeout=30)

    def _drive(self, stack: Stack, session: Dict[str, Any]) -> Dict[str, Any]:
        from repro.errors import ServerError

        client = session["client"]
        sent: List[float] = []
        done: List[float] = []
        steal: List[int] = []
        views: List[Any] = []
        model_prefix = None
        t_end = time.perf_counter() + self.seconds
        t0 = time.perf_counter()
        while time.perf_counter() < t_end:
            inserts, deletes = self.script[len(views)]
            s = time.perf_counter()
            try:
                reply = client.mutate(session["id"], insert=inserts, delete=deletes)
            except ServerError as exc:
                reply = {"error": exc.code}
            sent.append(s)
            done.append(time.perf_counter())
            steal.append(cpu_steal_ticks())
            views.append(reply)
            if len(views) == MODEL_PREFIX:
                model_prefix = stats_frame(stack.serve_port)["service"]["model_time_s"]
        wall = time.perf_counter() - t0
        return {"sent": sent, "done": done, "steal": steal, "views": views, "wall_s": wall,
                "updates": session["updates"], "subscriber": session["thread"],
                "opened": session["opened"], "model_prefix": model_prefix}

    # -- results ----------------------------------------------------------
    def outcome(self, run: Dict[str, Any]) -> Dict[str, Any]:
        views = run["views"]
        ok = [i for i, v in enumerate(views) if "epoch" in v]
        rtt = [(run["done"][i] - run["sent"][i]) * 1e3 for i in ok]
        updates = sorted((epoch, t) for t, epoch, _ in run["updates"] if epoch >= 0)
        upd_lat = []
        j = 0
        for i in ok:
            epoch = views[i]["epoch"]
            while j < len(updates) and updates[j][0] < epoch:
                j += 1
            # an update never seen counts as late as the run was long
            seen_at = updates[j][1] if j < len(updates) else run["done"][-1]
            upd_lat.append((seen_at - run["sent"][i]) * 1e3)
        # rates and tail latencies are medians over the quietest of
        # SEGMENTS equal slices of the run, so a burst of host contention
        # does not move them
        start = run["sent"][0] if run["sent"] else 0.0
        width = run["wall_s"] / SEGMENTS
        done_in = [[] for _ in range(SEGMENTS)]
        for k, i in enumerate(ok):  # k indexes rtt and upd_lat
            done_in[min(int((run["done"][i] - start) / width), SEGMENTS - 1)].append(k)
        done_in = [seg for seg in done_in if seg]
        steal = [run["steal"][ok[seg[-1]]] - run["steal"][ok[seg[0]]] for seg in done_in]
        mutations_per_s = quiet_median([len(seg) / width for seg in done_in], steal)
        edges_per_s = quiet_median(
            [sum(views[ok[k]]["num_edges"] for k in seg) / width for seg in done_in], steal
        )

        def sliced_p99(samples: List[float]) -> float:
            return quiet_median(
                [percentile([samples[k] for k in seg], 99) for seg in done_in], steal
            )

        epochs = {e for e, _ in updates}
        last_epoch = views[ok[-1]]["epoch"] if ok else 0
        prefix = views[:MODEL_PREFIX]
        return {
            "attempted": len(views),
            "failed": len(views) - len(ok),
            # error_rate's fixed set: the first MODEL_PREFIX mutations
            "window": (sum(1 for v in prefix if "epoch" not in v), len(prefix)),
            "ok": len(ok),
            "op_ms": rtt,
            "update_ms": upd_lat,
            "op_p99_ms": sliced_p99(rtt),
            "update_p99_ms": sliced_p99(upd_lat),
            "ops_per_s": mutations_per_s,
            "goodput_rps": mutations_per_s,
            "edges_per_s": edges_per_s,
            "windows": [(run["sent"][i], run["done"][i], None) for i in ok],
            "delivered_ratio": len(epochs & set(range(1, last_epoch + 1)))
            / max(last_epoch, 1),
        }

    def records(self, run: Dict[str, Any]) -> List[Dict[str, Any]]:
        return []  # session solves stay inside the server

    def fixed_set(self, run: Dict[str, Any]) -> Tuple[float, float, int]:
        """(launches, model seconds, mutations): model time over the
        bootstrap and the first MODEL_PREFIX mutations; launches over
        the run, scaled to that many mutations."""
        ok = max(sum(1 for v in run["views"] if "epoch" in v), 1)
        launches = sum(t["counts"].get("gpusim.launches", 0) for t in run["traces"])
        return launches * MODEL_PREFIX / ok, run.get("model_prefix") or 0.0, MODEL_PREFIX

    def answers(self, run: Dict[str, Any]) -> Dict[Any, Tuple]:
        """Every epoch's view, plus the model time of the fixed prefix."""
        out: Dict[Any, Tuple] = {"model_prefix": (repr(run["model_prefix"]),)}
        for v in [run["opened"], *run["views"]]:
            if "epoch" in v:
                out[v["epoch"]] = (
                    v["omega"], v["num_maximum_cliques"], tuple(v["witness"]),
                    v["fingerprint"], v["path"],
                )
        return out

    def verify(self, run: Dict[str, Any]) -> None:
        """Sampled epochs and the last against from-scratch solves."""
        from repro.core.config import SolverConfig
        from repro.graph.build import from_edge_array
        from repro.service import SolveService

        check(all("epoch" in v for v in run["views"]), "a mutation failed")
        views = run["views"]
        check(bool(views), "no mutation succeeded")
        service = SolveService(cache_size=0)
        src, dst = self.graph.to_edge_list()
        edges: Set[Edge] = set(zip(src.tolist(), dst.tolist()))
        universe = self.graph.num_vertices
        sample = set(range(CHECK_EVERY, len(views), CHECK_EVERY)) | {len(views)}
        for epoch, (inserts, deletes) in enumerate(self.script.batches[: len(views)], 1):
            for u, v in inserts:
                edges.add((u, v))
                universe = max(universe, v + 1)
            for u, v in deletes:
                edges.discard((u, v))
            if epoch not in sample:
                continue
            view = views[epoch - 1]
            check(view["epoch"] == epoch, f"reply epoch {view['epoch']} != {epoch}")
            arr = np.asarray(sorted(edges), dtype=np.int64)
            g = from_edge_array(arr[:, 0], arr[:, 1], num_vertices=universe)
            rec = service.solve(g, SolverConfig())
            check(
                (view["omega"], view["num_maximum_cliques"], view["fingerprint"])
                == (rec.clique_number, rec.num_maximum_cliques, g.fingerprint()),
                f"epoch {epoch}: session view disagrees with a from-scratch solve",
            )
            w = np.asarray(view["witness"], dtype=np.int64)
            a, b = np.triu_indices(w.size, k=1)
            check(len(w) == rec.clique_number and bool(g.batch_has_edge(w[a], w[b]).all()),
                  f"epoch {epoch}: witness is not a maximum clique")
            self.checks += 1
        # the subscriber saw strictly increasing epochs ending at the last
        check(all(e >= 0 for _, e, _ in run["updates"]), "subscriber failed")
        seen = [epoch for _, epoch, closed in run["updates"] if not closed]
        check(all(a < b for a, b in zip(seen, seen[1:])), "subscriber epochs went back")
        check(seen and seen[-1] == views[-1]["epoch"],
              f"subscriber ended at epoch {seen[-1] if seen else None}, "
              f"not {views[-1]['epoch']}")
        self.checks += 1
