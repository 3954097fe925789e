"""Micro-benchmarks of the primitive kernels and pipeline stages.

These are conventional pytest-benchmark measurements (wall time of
the vectorised host implementation) for the pieces the paper's
implementation spends its time in: edge lookups (sorted keys on a
sparse graph, the adjacency bitmap on a dense one), scan/select/sort
primitives, the multi-run heuristic, one BFS level, and the k-core
decomposition.
"""

import numpy as np
import pytest

from repro.core.heuristics import multi_run_greedy
from repro.core.setup import build_two_clique_list
from repro.engine import LevelDriver
from repro.graph import core_numbers
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec, primitives as P

MIB = 1 << 20


@pytest.fixture(scope="module")
def graph():
    return gen.chung_lu_power_law(20_000, 10.0, seed=5)


@pytest.fixture
def device():
    return Device(DeviceSpec(memory_bytes=512 * MIB))


@pytest.fixture(scope="module")
def dense_graph():
    # the fb-hard-30x150 community shape: small enough for the bitmap
    return gen.caveman_social(4, 150, p_in=0.48, p_out_degree=5.0, seed=5)


def _bench_lookup(benchmark, graph, structure):
    assert graph.lookup_structure == structure
    rng = np.random.default_rng(0)
    u = rng.integers(0, graph.num_vertices, 500_000)
    v = rng.integers(0, graph.num_vertices, 500_000)
    graph.batch_has_edge(u[:1], v[:1])  # build outside the timed region
    out = benchmark(lambda: graph.batch_has_edge(u, v))
    assert out.size == u.size


def test_batch_edge_lookup(benchmark, graph):
    _bench_lookup(benchmark, graph, "keys")


def test_batch_edge_lookup_bitmap(benchmark, dense_graph):
    _bench_lookup(benchmark, dense_graph, "bitmap")


def test_batch_edge_lookup_binary(benchmark, graph):
    rng = np.random.default_rng(0)
    u = rng.integers(0, graph.num_vertices, 100_000)
    v = rng.integers(0, graph.num_vertices, 100_000)
    out = benchmark(lambda: graph.batch_has_edge(u, v, method="binary"))
    assert out.size == u.size


def test_exclusive_scan(benchmark, device):
    values = np.random.default_rng(1).integers(0, 50, 1_000_000)
    offs, total = benchmark(lambda: P.exclusive_scan(device, values))
    assert total == values.sum()


def test_radix_sort_pairs(benchmark, device):
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 1 << 20, 500_000)
    vals = np.arange(keys.size)
    k, _ = benchmark(lambda: P.radix_sort_pairs(device, keys, vals))
    assert (np.diff(k) >= 0).all()


def test_segmented_argmax(benchmark, device):
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1000, 1_000_000)
    seg = np.sort(rng.choice(values.size, 5000, replace=False))
    offsets = np.concatenate([[0], seg, [values.size]]).astype(np.int64)
    out = benchmark(lambda: P.segmented_argmax(device, values, offsets))
    assert out.size == offsets.size - 1


def test_kcore_decomposition(benchmark, graph):
    core = benchmark(lambda: core_numbers(graph))
    assert core.max() >= 1


def test_multi_run_heuristic(benchmark, graph, device):
    size, clique = benchmark(
        lambda: multi_run_greedy(graph, graph.degrees, device)
    )
    assert size == len(clique)


def test_two_clique_setup(benchmark, graph, device):
    src, dst, _ = benchmark(lambda: build_two_clique_list(graph, 4, device))
    assert src.size <= graph.num_edges


def test_full_bfs_small_graph(benchmark, device):
    g = gen.caveman_social(8, 40, p_in=0.35, seed=9)

    def run():
        src, dst, _ = build_two_clique_list(g, 2, device)
        out = LevelDriver(g, device).run(src, dst, 2)
        omega = out.omega
        out.clique_list.free_all()
        return omega

    omega = benchmark(run)
    assert omega >= 3
