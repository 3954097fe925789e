"""Windowed search tests (paper Section IV-E)."""

import numpy as np
import pytest

from repro.core import MaxCliqueSolver, SolverConfig, verify_result
from repro.core.config import WindowOrder
from repro.core.setup import build_two_clique_list
from repro.engine.sweep import auto_window_size, split_windows, window_sweep
from repro.graph import from_edge_list
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec

from ..conftest import assert_is_clique, nx_maximum_cliques


@pytest.fixture
def dev():
    return Device(DeviceSpec(memory_bytes=1 << 26))


class TestSplitWindows:
    def test_boundaries_respected(self):
        sub = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        for w in (1, 2, 3, 4, 8, 100):
            windows = split_windows(sub, w)
            # windows tile the array
            assert windows[0][0] == 0
            assert windows[-1][1] == sub.size
            for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
                assert b1 == a2
            # every cut is at a sublist boundary
            for _, b in windows[:-1]:
                assert sub[b - 1] != sub[b]

    def test_empty(self):
        assert split_windows(np.zeros(0, dtype=np.int32), 4) == []

    def test_single_window_when_large(self):
        sub = np.array([0, 0, 1])
        assert split_windows(sub, 100) == [(0, 3)]

    def test_progress_with_tiny_window(self):
        sub = np.array([0] * 50)  # one long sublist, window smaller
        assert split_windows(sub, 4) == [(0, 50)]

    def test_snaps_to_nearest_boundary(self):
        sub = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        # nominal end 5 is nearer to boundary 4 than 8
        assert split_windows(sub, 5) == [(0, 4), (4, 8)]


class TestAutoWindowSize:
    def test_unlimited_budget_means_one_window(self):
        dev = Device(DeviceSpec())
        dev.pool._budget = None  # oracle device
        g = gen.erdos_renyi(20, 0.3, seed=1)
        assert auto_window_size(g, dev, 55) == 55

    def test_bounded_and_clamped(self):
        dev = Device(DeviceSpec(memory_bytes=1 << 20))
        g = gen.caveman_social(5, 50, p_in=0.5, seed=2)
        w = auto_window_size(g, dev, g.num_edges)
        assert 256 <= w <= 1 << 20


class TestWindowedSearch:
    def run(self, g, dev, **kw):
        src, dst, _ = build_two_clique_list(g, 2, dev)
        return window_sweep(
            g, src, dst, 2, np.zeros(0, dtype=np.int32), dev, **kw
        )

    @pytest.mark.parametrize("window_size", [2, 8, 64, "auto"])
    def test_finds_maximum_clique(self, dev, window_size):
        for seed in range(8):
            g = gen.erdos_renyi(30, 0.35, seed=seed)
            if g.num_edges == 0:
                continue
            omega, _ = nx_maximum_cliques(g)
            out = self.run(g, dev, window_size=window_size)
            assert out.omega == omega
            assert_is_clique(g, out.best_clique)

    @pytest.mark.parametrize(
        "order", [WindowOrder.NATURAL, WindowOrder.ASC_DEGREE, WindowOrder.DESC_DEGREE]
    )
    def test_orderings_agree_on_omega(self, dev, order):
        g = gen.erdos_renyi(40, 0.3, seed=9)
        omega, _ = nx_maximum_cliques(g)
        out = self.run(g, dev, window_size=8, window_order=order)
        assert out.omega == omega

    def test_windows_free_memory(self, dev):
        g = gen.erdos_renyi(50, 0.3, seed=10)
        before = dev.pool.in_use_bytes
        self.run(g, dev, window_size=16)
        assert dev.pool.in_use_bytes == before

    def test_smaller_windows_lower_peak(self, dev):
        g = gen.caveman_social(4, 40, p_in=0.4, seed=11)
        src, dst, _ = build_two_clique_list(g, 2, dev)
        empty = np.zeros(0, dtype=np.int32)
        small = window_sweep(g, src, dst, 2, empty, dev, window_size=16)
        big = window_sweep(g, src, dst, 2, empty, dev, window_size=1 << 20)
        assert small.peak_window_bytes <= big.peak_window_bytes
        assert small.omega == big.omega
        assert len(small.windows) > len(big.windows)

    def test_heuristic_clique_is_floor(self, dev):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)])
        src = np.zeros(0, dtype=np.int32)
        out = window_sweep(
            g, src, src, 3, np.array([0, 1, 2], dtype=np.int32), dev,
            window_size=4,
        )
        assert out.omega == 3
        assert sorted(out.best_clique.tolist()) == [0, 1, 2]

    def test_lower_bound_carries_across_windows(self, dev):
        # later windows inherit the best-so-far bound: total stored
        # candidates under a sweep must not exceed the no-bound sweep
        g = gen.erdos_renyi(50, 0.35, seed=12)
        src, dst, _ = build_two_clique_list(g, 2, dev)
        empty = np.zeros(0, dtype=np.int32)
        out = window_sweep(g, src, dst, 2, empty, dev, window_size=8)
        bars = [w.best_clique_size for w in out.windows]
        assert bars == sorted(bars)  # never decreases


class TestOmegaTwoWitness:
    """With no heuristic clique the sweep starts at ``best = ω̄ = 2``
    holding no witness; a window that only matches that bound must
    still supply one, on both the sequential and the fused sweep."""

    @pytest.mark.parametrize("fanout", [1, 2])
    @pytest.mark.parametrize(
        "graph", [gen.cycle_graph(12), gen.star_graph(9)], ids=["cycle", "star"]
    )
    def test_witness_verifies(self, graph, fanout):
        config = SolverConfig(
            heuristic="none", window_size=4, window_fanout=fanout
        )
        result = MaxCliqueSolver(graph, config).solve()
        assert result.clique_number == 2
        assert result.cliques.shape == (1, 2)
        verify_result(graph, result)
