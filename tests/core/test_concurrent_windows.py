"""Concurrent-windows extension tests (paper Section V-C3)."""

import numpy as np
import pytest

from repro import Device, DeviceSpec, find_maximum_cliques
from repro.baselines import maximum_cliques_via_bk
from repro.core.setup import build_two_clique_list
from repro.engine import window_sweep
from repro.errors import SolveTimeoutError, SolverConfigError
from repro.graph import generators as gen

from ..conftest import assert_is_clique

MIB = 1 << 20


def fresh_device():
    return Device(DeviceSpec(memory_bytes=256 * MIB))


class TestCorrectness:
    @pytest.mark.parametrize("fanout", [1, 2, 4, 7])
    def test_matches_oracle(self, fanout):
        for seed in range(6):
            g = gen.erdos_renyi(35, 0.35, seed=seed)
            if g.num_edges == 0:
                continue
            ref, _ = maximum_cliques_via_bk(g)
            r = find_maximum_cliques(
                g, device=fresh_device(), window_size=8, window_fanout=fanout
            )
            assert r.clique_number == ref
            assert_is_clique(g, r.cliques[0])

    def test_fanout_one_equals_sequential_omega(self):
        g = gen.caveman_social(5, 40, p_in=0.4, seed=2)
        seq = find_maximum_cliques(g, device=fresh_device(), window_size=64)
        con = find_maximum_cliques(
            g, device=fresh_device(), window_size=64, window_fanout=1
        )
        assert seq.clique_number == con.clique_number

    def test_direct_api(self):
        g = gen.erdos_renyi(40, 0.3, seed=3)
        ref, _ = maximum_cliques_via_bk(g)
        dev = fresh_device()
        src, dst, _ = build_two_clique_list(g, 2, dev)
        out = window_sweep(
            g, src, dst, 2, np.zeros(0, dtype=np.int32), dev,
            window_size=16, fanout=3,
        )
        assert out.omega == ref

    def test_bad_fanout_rejected(self):
        g = gen.complete_graph(4)
        dev = fresh_device()
        src, dst, _ = build_two_clique_list(g, 2, dev)
        with pytest.raises(ValueError):
            window_sweep(
                g, src, dst, 2, np.zeros(0, dtype=np.int32), dev,
                window_size=4, fanout=0,
            )


class TestTradeOff:
    def test_fanout_trades_memory_for_time(self):
        g = gen.caveman_social(8, 60, p_in=0.4, seed=3)
        seq = find_maximum_cliques(g, device=fresh_device(), window_size=256)
        con = find_maximum_cliques(
            g, device=fresh_device(), window_size=256, window_fanout=8
        )
        assert con.clique_number == seq.clique_number
        assert con.model_time_s < seq.model_time_s
        assert con.search_memory_bytes > seq.search_memory_bytes

    def test_memory_freed_after_solve(self):
        dev = fresh_device()
        g = gen.erdos_renyi(40, 0.3, seed=4)
        before = dev.pool.in_use_bytes
        find_maximum_cliques(g, device=dev, window_size=8, window_fanout=4)
        assert dev.pool.in_use_bytes == before


class TestConfigInteraction:
    def test_fanout_requires_window(self):
        with pytest.raises(SolverConfigError):
            find_maximum_cliques(gen.complete_graph(3), window_fanout=2)

    def test_fanout_excludes_adaptive(self):
        with pytest.raises(SolverConfigError):
            find_maximum_cliques(
                gen.complete_graph(3), window_size=4,
                window_fanout=2, adaptive_windowing=True,
            )

    def test_timeout_honoured(self):
        g = gen.caveman_social(8, 60, p_in=0.45, seed=5)
        with pytest.raises(SolveTimeoutError):
            find_maximum_cliques(
                g, device=fresh_device(), window_size=16,
                window_fanout=2, time_limit_s=1e-4,
            )

    def test_auto_window_size_supported(self):
        g = gen.erdos_renyi(30, 0.3, seed=6)
        ref, _ = maximum_cliques_via_bk(g)
        r = find_maximum_cliques(
            g, device=fresh_device(), window_size="auto", window_fanout=2
        )
        assert r.clique_number == ref
