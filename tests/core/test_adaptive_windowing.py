"""Recursive (adaptive) windowing extension tests (paper Section V-C3)."""

import numpy as np
import pytest

from repro import Device, DeviceSpec, find_maximum_cliques
from repro.baselines import maximum_cliques_via_bk
from repro.core.setup import build_two_clique_list
from repro.engine import LevelDriver, window_sweep
from repro.errors import DeviceOOMError, SolverConfigError
from repro.graph import generators as gen

from ..conftest import assert_is_clique


def _tight_budget(graph) -> int:
    """A budget too small for one big window, workable when split."""
    dev = Device(DeviceSpec(memory_bytes=1 << 26))
    src, dst, _ = build_two_clique_list(graph, 2, dev)
    out = LevelDriver(graph, dev).run(src, dst, 2)
    need = out.clique_list.total_bytes
    out.clique_list.free_all()
    return need // 16 + graph.num_edges * 16 + 100_000


class TestAdaptiveWindowing:
    def test_splits_rescue_oom(self):
        g = gen.caveman_social(5, 45, p_in=0.55, seed=6)
        ref, _ = maximum_cliques_via_bk(g)
        budget = _tight_budget(g)
        empty = np.zeros(0, dtype=np.int32)

        dev = Device(DeviceSpec(memory_bytes=budget))
        src, dst, _ = build_two_clique_list(g, 2, dev)
        with pytest.raises(DeviceOOMError):
            window_sweep(g, src, dst, 2, empty, dev, window_size=1 << 20)

        dev = Device(DeviceSpec(memory_bytes=budget))
        src, dst, _ = build_two_clique_list(g, 2, dev)
        out = window_sweep(
            g, src, dst, 2, empty, dev, window_size=1 << 20, adaptive=True
        )
        assert out.omega == ref
        assert out.adaptive_splits > 0
        assert_is_clique(g, out.best_clique)

    def test_single_sublist_still_ooms(self):
        # one dense community: the root sublists themselves explode
        g = gen.caveman_social(1, 60, p_in=0.8, p_out_degree=0, seed=7)
        dev = Device(DeviceSpec(memory_bytes=1 << 17))
        with pytest.raises(DeviceOOMError):
            find_maximum_cliques(
                g, device=dev, heuristic="none", window_size=4,
                adaptive_windowing=True,
            )

    def test_solver_level_flag(self):
        g = gen.erdos_renyi(40, 0.35, seed=8)
        ref, _ = maximum_cliques_via_bk(g)
        r = find_maximum_cliques(
            g, window_size=16, adaptive_windowing=True
        )
        assert r.clique_number == ref

    def test_flag_requires_windowed(self):
        with pytest.raises(SolverConfigError):
            find_maximum_cliques(
                gen.complete_graph(3), adaptive_windowing=True
            )

    def test_no_split_when_memory_suffices(self):
        g = gen.erdos_renyi(30, 0.3, seed=9)
        dev = Device(DeviceSpec(memory_bytes=1 << 26))
        src, dst, _ = build_two_clique_list(g, 2, dev)
        out = window_sweep(
            g, src, dst, 2, np.zeros(0, dtype=np.int32), dev,
            window_size=1 << 20, adaptive=True,
        )
        assert out.adaptive_splits == 0
