"""Count-pass hit reuse: byte-identical to re-querying in the output pass.

The count pass hands the hits of its surviving threads to the output
pass, which writes them without touching the graph. The oracle here is
a test-local copy of the earlier passes: the count pass returns counts
only, and the output pass re-expands every surviving thread's pairs,
re-queries the graph and places each hit at ``offset + rank``. Every
clique-list node, every ``LevelStats`` and every device counter must
match across problem kinds, both launch schedules and chunk sizes.
"""

import numpy as np
import pytest

from repro import Device, DeviceSpec
from repro.core.config import Heuristic
from repro.core.heuristics import run_heuristic
from repro.core.setup import build_two_clique_list
from repro.engine import (
    MAX_CLIQUE,
    KCliqueCountKind,
    LevelDriver,
    MaximalEnumKind,
    chunk_slices,
    expand_pairs,
)
from repro.engine.sweep import split_windows
from repro.graph import generators as gen

MIB = 1 << 20


def legacy_count_pass(graph, vertex, tail, chunk_pairs):
    n = tail.size
    counts = np.zeros(n, dtype=np.int64)
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        if found.any():
            counts[start:stop] += np.bincount(
                idx1[found] - start, minlength=stop - start
            )
    return counts


def legacy_output_pass(
    graph, vertex, tail, counts, offsets, new_vertex, new_sublist, chunk_pairs
):
    live = counts > 0
    for start, stop in chunk_slices(tail, chunk_pairs):
        idx1, idx2 = expand_pairs(tail[start:stop], start)
        keep = live[idx1]
        idx1, idx2 = idx1[keep], idx2[keep]
        if idx1.size == 0:
            continue
        found = graph.batch_has_edge(vertex[idx1], vertex[idx2])
        f1 = idx1[found]
        f2 = idx2[found]
        if f1.size:
            run_start = np.flatnonzero(
                np.concatenate(([True], f1[1:] != f1[:-1]))
            )
            run_len = np.diff(np.concatenate([run_start, [f1.size]]))
            rank = np.arange(f1.size, dtype=np.int64) - np.repeat(
                run_start, run_len
            )
            pos = offsets[f1] + rank
            new_vertex[pos] = vertex[f2]
            new_sublist[pos] = f1.astype(np.int32)


class ReLookupKind:
    """Wraps a kind; runs the legacy passes instead of the hand-off.

    The driver prunes the count pass's ``counts`` array in place before
    the output pass, so keeping a reference to it (keyed by the
    thread's vertex array) gives the output pass the pruned counts.
    """

    def __init__(self, kind):
        self._kind = kind
        self._pending = {}

    def __getattr__(self, name):
        return getattr(self._kind, name)

    def count(self, graph, vertex, tail, chunk_pairs, min_count):
        counts = legacy_count_pass(graph, vertex, tail, chunk_pairs)
        self._pending[id(vertex)] = (graph, tail, counts, chunk_pairs)
        return counts, None

    def output(self, vertex, hits, new_vertex, new_sublist):
        assert hits is None
        graph, tail, counts, chunk_pairs = self._pending.pop(id(vertex))
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        legacy_output_pass(
            graph, vertex, tail, counts, offsets, new_vertex, new_sublist,
            chunk_pairs,
        )


GRAPHS = {
    # dense communities: answered from the adjacency bitmap
    "caveman": gen.caveman_social(4, 28, p_in=0.5, seed=11),
    # sparse backbone: answered from the sorted edge keys
    "planted": gen.planted_clique(400, 7, avg_degree=3.0, seed=12),
}
KINDS = {
    "max-clique": lambda: MAX_CLIQUE,
    "k-clique-count": lambda: KCliqueCountKind(4),
    "maximal-enum": lambda: MaximalEnumKind(),
}
SCHEDULES = ("isolated", "fused-1", "fused-3")


def _nodes_sig(clique_list):
    return [
        (n.level, n.vertex.a.tobytes(), n.sublist.a.tobytes())
        for n in clique_list.nodes
    ]


def _state_sig(state):
    return None if state is None else (state.count, list(state.cliques))


def run_schedule(graph, kind, schedule, chunk_pairs):
    """Everything one search leaves behind, minus wall time."""
    device = Device(DeviceSpec(memory_bytes=256 * MIB))
    heur = run_heuristic(graph, Heuristic.MULTI_DEGREE, device, h=4)
    omega_bar = max(heur.lower_bound, 2)
    src, dst, _ = build_two_clique_list(graph, omega_bar, device)
    driver = LevelDriver(graph, device, chunk_pairs=chunk_pairs)
    runs = []
    if schedule == "isolated":
        out = driver.run(src, dst, omega_bar, kind=kind)
        runs.append(
            (out.omega, out.levels, _nodes_sig(out.clique_list),
             _state_sig(out.state))
        )
        out.clique_list.free_all()
    else:
        fanout = int(schedule.split("-")[1])
        windows = split_windows(src, max(src.size // 5, 1))
        for g in range(0, len(windows), fanout):
            lanes = [
                driver.open_lane(g + i, a, b, src[a:b], dst[a:b], kind=kind)
                for i, (a, b) in enumerate(windows[g : g + fanout])
            ]
            driver.run_fused(lanes, omega_bar, kind=kind)
            for la in lanes:
                runs.append(
                    (la.omega, la.levels, _nodes_sig(la.clique_list),
                     _state_sig(la.state))
                )
                la.clique_list.free_all()
    return runs, device.stats()


@pytest.mark.parametrize("chunk_pairs", [37, 1 << 22])
@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kind_name", sorted(KINDS))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_hit_reuse_matches_relookup(graph_name, kind_name, schedule, chunk_pairs):
    graph = GRAPHS[graph_name]
    got, got_stats = run_schedule(
        graph, KINDS[kind_name](), schedule, chunk_pairs
    )
    want, want_stats = run_schedule(
        graph, ReLookupKind(KINDS[kind_name]()), schedule, chunk_pairs
    )
    assert len(got) == len(want)
    # the search went past the root, so the output pass was exercised
    assert any(len(nodes) > 1 for _, _, nodes, _ in got)
    assert got == want
    assert got_stats == want_stats


def test_graphs_cover_both_lookup_structures():
    assert GRAPHS["caveman"].lookup_structure == "bitmap"
    assert GRAPHS["planted"].lookup_structure == "keys"
