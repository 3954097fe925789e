"""batch-solve: closed batches of distinct graphs through SolveService.

Ten graphs in the shapes of named suite entries, scaled down so one
batch takes about two seconds on a 2-core host, go to one
``SolveService`` batch with the threaded executor and two workers.
Three independently seeded versions of the batch take turns.
Every batch runs on fresh graph objects and a fresh service, so no
result cache, fingerprint or edge-key array carries over: each batch
pays for everything a first-time input pays for.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import check, median, seeded, self_peak_rss_mb

#: (suite entry, recipe) -- same generators and density parameters as
#: the entry, with vertex or community counts cut so a batch stays short
SHAPES = (
    "road-grid-300", "ca-team-16k", "tech-cl-56k", "web-rmat-16", "bio-cl-16k",
    "fb-comm-24x120", "fb-comm-40x120", "soc-comm-50x90", "fb-comm-20x130",
    "fb-hard-30x150",
)


def build(shape: str, seed: int, tiny: bool):
    from repro.graph import generators as gen
    from repro.graph.build import graph_union, relabel_random

    div = 10 if not tiny else 80
    if shape == "road-grid-300":
        side = 300 // (3 if not tiny else 10)
        g = gen.road_grid(side, side, seed=seed)
    elif shape == "ca-team-16k":
        g = gen.team_collaboration(16000 // div, 12000 // div, team_size_range=(2, 13), seed=seed)
    elif shape == "tech-cl-56k":
        n = 56000 // div
        g = graph_union(
            gen.chung_lu_power_law(n, 6.0, exponent=2.5, seed=seed),
            gen.team_collaboration(n, n // 10, team_size_range=(3, 13), seed=seed + 1),
        )
    elif shape == "web-rmat-16":
        scale = 13 if not tiny else 10
        g = graph_union(
            gen.rmat(scale, 4, seed=seed),
            gen.team_collaboration(1 << scale, (1 << scale) // 6,
                                   team_size_range=(3, 18), seed=seed + 1),
        )
    elif shape == "bio-cl-16k":
        n = 16000 // div
        g = graph_union(
            gen.chung_lu_power_law(n, 9.0, exponent=2.2, seed=seed),
            gen.team_collaboration(n, n // 8, team_size_range=(3, 20), seed=seed + 1),
        )
    else:  # social: keep community size and density, use fewer communities
        comms, size = (int(x) for x in shape.split("-")[-1].split("x"))
        p_in, p_out = {
            "fb-comm-24x120": (0.46, 5.0), "fb-comm-40x120": (0.44, 5.0),
            "soc-comm-50x90": (0.46, 4.0), "fb-comm-20x130": (0.48, 5.0),
            "fb-hard-30x150": (0.48, 5.0),
        }[shape]
        if tiny:
            size //= 3
        g = gen.caveman_social(max(comms // 8, 2), size, p_in=p_in,
                               p_out_degree=p_out, seed=seed)
    return relabel_random(g, seed=seed + 7919)


#: independently seeded versions of the batch, run in turn: averaging
#: over them keeps one hard draw of a dense graph from setting a seed's
#: figures; generating each one is one set-up sample
VARIANTS = 3


class Workload:
    name = "batch-solve"

    def __init__(self, seed: int, seconds: float, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.checks = 0

    def prepare(self) -> None:
        """Generate the variants of the batch; set-up is the median time."""
        times = []
        self.variants = []
        for v in range(VARIANTS):
            rng = seeded(self.seed, 1, v)
            t0 = time.perf_counter()
            graphs = [build(s, int(rng.integers(0, 2**31 - 1)), self.tiny) for s in SHAPES]
            times.append(time.perf_counter() - t0)
            self.variants.append(graphs)
        self.setup_s = median(times)

    def fresh_graphs(self, variant: int) -> List[Any]:
        from repro.graph.csr import CSRGraph

        return [
            CSRGraph(g.row_offsets.copy(), g.col_indices.copy(), validate=False)
            for g in self.variants[variant]
        ]

    def measure(self, trace: bool) -> Dict[str, Any]:
        recorder = None
        if trace:
            from tracing import Recorder

            recorder = Recorder().install()
        try:
            run = self._drive(recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        run["traces"] = [recorder.dump()] if recorder is not None else []
        return run

    def _drive(self, recorder) -> Dict[str, Any]:
        from repro.service import SolveService

        batches: List[Tuple[float, list]] = []
        starts: List[float] = []
        fixed_launches = 0
        t_end = time.perf_counter() + self.seconds
        while time.perf_counter() < t_end or not batches:
            variant = len(batches) % VARIANTS
            graphs = self.fresh_graphs(variant)
            service = SolveService(devices=2, executor="threaded", workers=2)
            for shape, g in zip(SHAPES, graphs):
                if recorder is not None:
                    recorder.request_of[id(g)] = f"{shape}#{len(batches)}"
                service.submit_graph(g, label=shape)
            t0 = time.perf_counter()
            records = service.run()
            wall = time.perf_counter() - t0
            batches.append((wall, records, variant))
            starts.append(t0)
            if recorder is not None and len(batches) == VARIANTS:
                # one batch of each variant: a fixed set for exact counts
                fixed_launches = recorder.counts.get("gpusim.launches", 0)
        return {
            "batches": batches,
            "starts": starts,
            "fixed_launches": fixed_launches,
            "setup_s": self.setup_s,
            "peak_rss_mb": self_peak_rss_mb(),
        }

    def outcome(self, run: Dict[str, Any]) -> Dict[str, Any]:
        walls = [w for w, _, _ in run["batches"]]
        jobs = [r for _, recs, _ in run["batches"] for r in recs]
        ok = [r for r in jobs if r.ok]
        # rates from each variant's median batch: one batch slowed by a
        # burst of host contention does not move them
        typical = sum(
            median([w for w, _, v in run["batches"] if v == variant])
            for variant in range(min(VARIANTS, len(walls)))
        )
        edges = sum(
            g.num_edges for graphs in self.variants[: len(walls)] for g in graphs
        )
        ok_share = len(ok) / len(jobs)
        # a job's caller sees it when its batch returns
        latencies = [w * 1e3 for w, recs, _ in run["batches"] for _ in recs]
        first = [r for _, recs, _ in run["batches"][:VARIANTS] for r in recs]
        return {
            "attempted": len(jobs),
            "failed": len(jobs) - len(ok),
            # error_rate's fixed set: one batch of each variant
            "window": (sum(1 for r in first if not r.ok), len(first)),
            "ok": len(ok),
            "op_ms": latencies,
            "update_ms": latencies,
            "edges_per_s": edges * ok_share / typical,
            "ops_per_s": len(SHAPES) * min(VARIANTS, len(walls)) * ok_share / typical,
            "goodput_rps": len(SHAPES) * min(VARIANTS, len(walls)) * ok_share / typical,
            "windows": [(t0, t0 + w, None) for t0, w in zip(run["starts"], walls)],
        }

    def records(self, run: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [r.to_dict() for _, recs, _ in run["batches"] for r in recs]

    def fixed_set(self, run: Dict[str, Any]) -> Tuple[float, float, int]:
        """(launches, model seconds, jobs) of one batch of each variant."""
        first = [r for _, recs, _ in run["batches"][:VARIANTS] for r in recs]
        return run["fixed_launches"], sum(r.model_time_s for r in first), len(first)

    def answers(self, run: Dict[str, Any]) -> Dict[str, Tuple]:
        """First batch's answers plus exact model time and launches."""
        _, records, _ = run["batches"][0]
        out = {}
        for r in records:
            res = r.result
            out[r.label] = (
                r.status, r.clique_number, r.num_maximum_cliques,
                res.cliques.tobytes() if res is not None else b"",
                repr(r.model_time_s),
                res.device_stats.kernel_launches if res is not None and res.device_stats else 0,
            )
        return out

    def verify(self, run: Dict[str, Any]) -> None:
        """Every witness against its graph; ω against the PMC baseline."""
        from repro.baselines.pmc import pmc_max_clique
        from repro.core.verify import VerificationError, verify_result

        omegas = [
            {s: pmc_max_clique(g).clique_number for s, g in zip(SHAPES, graphs)}
            for graphs in self.variants
        ]
        for _, records, v in run["batches"]:
            check(sorted(r.label for r in records) == sorted(SHAPES), "missing jobs")
            graphs = dict(zip(SHAPES, self.variants[v]))
            for r in records:
                check(r.ok, f"{r.label}: status {r.status} ({r.error})")
                try:
                    verify_result(graphs[r.label], r.result)
                except VerificationError as exc:
                    check(False, f"{r.label}: {exc}")
                check(r.clique_number == omegas[v][r.label],
                      f"{r.label}: omega {r.clique_number} != PMC {omegas[v][r.label]}")
                self.checks += 1
