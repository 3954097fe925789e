"""Unit + property tests for the CSR graph structure."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph, from_edge_array, from_edge_list
from repro.graph import generators as gen
from repro.gpusim import Device, DeviceSpec


class TestBasics:
    def test_triangle_properties(self, triangle):
        assert triangle.num_vertices == 3
        assert triangle.num_edges == 3
        assert triangle.num_directed_edges == 6
        assert triangle.degrees.tolist() == [2, 2, 2]
        assert triangle.max_degree == 2
        assert triangle.average_degree == pytest.approx(2.0)

    def test_neighbors_sorted(self, paper_graph):
        for v in range(paper_graph.num_vertices):
            nbrs = paper_graph.neighbors(v)
            assert (np.diff(nbrs) > 0).all()

    def test_empty_graph(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert g.average_degree == 0.0

    def test_isolated_vertices(self):
        g = from_edge_list([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.degrees.tolist() == [1, 1, 0, 0, 0]

    def test_nbytes_counts_structure(self, triangle):
        expected = triangle.row_offsets.nbytes + triangle.col_indices.nbytes
        assert triangle.nbytes == expected

    def test_to_edge_list_roundtrip(self, paper_graph):
        src, dst = paper_graph.to_edge_list()
        assert (src < dst).all()
        g2 = from_edge_list(list(zip(src.tolist(), dst.tolist())))
        assert (g2.row_offsets == paper_graph.row_offsets).all()
        assert (g2.col_indices == paper_graph.col_indices).all()


class TestFingerprint:
    def test_stable_across_instances(self, triangle):
        same = from_edge_list([(0, 1), (1, 2), (0, 2)])
        assert triangle.fingerprint() == same.fingerprint()

    def test_memoised(self, triangle):
        assert triangle.fingerprint() is triangle.fingerprint()

    def test_is_hex_sha256(self, triangle):
        fp = triangle.fingerprint()
        assert len(fp) == 64
        int(fp, 16)  # parses as hex

    def test_differs_on_edge_change(self, triangle, path4):
        assert triangle.fingerprint() != path4.fingerprint()

    def test_differs_on_isolated_vertex(self):
        g1 = from_edge_list([(0, 1)], num_vertices=2)
        g2 = from_edge_list([(0, 1)], num_vertices=3)
        assert g1.fingerprint() != g2.fingerprint()

    def test_differs_on_relabel(self):
        # isomorphic graphs with different labels are different inputs
        g1 = from_edge_list([(0, 1), (1, 2)])
        g2 = from_edge_list([(0, 2), (2, 1)])
        assert g1.fingerprint() != g2.fingerprint()

    def test_generator_determinism(self):
        a = gen.erdos_renyi(40, 0.2, seed=3)
        b = gen.erdos_renyi(40, 0.2, seed=3)
        c = gen.erdos_renyi(40, 0.2, seed=4)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_empty_graph_fingerprint(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        assert len(g.fingerprint()) == 64


class TestValidation:
    def test_bad_row_offsets_start(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([1, 2]), np.array([0, 1], dtype=np.int32))

    def test_decreasing_row_offsets(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2, 1, 2]), np.array([1, 0], dtype=np.int32))

    def test_column_out_of_range(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1]), np.array([5], dtype=np.int32))

    def test_unsorted_row_rejected(self):
        # row 0 = [2, 1] is out of order
        with pytest.raises(GraphFormatError):
            CSRGraph(
                np.array([0, 2, 2, 2]), np.array([2, 1], dtype=np.int32)
            )

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 1, 1]), np.array([0], dtype=np.int32))

    def test_duplicate_in_row_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(
                np.array([0, 2, 2, 2]), np.array([1, 1], dtype=np.int32)
            )


class TestEdgeLookup:
    def test_has_edge_scalar(self, paper_graph):
        assert paper_graph.has_edge(1, 2)
        assert paper_graph.has_edge(2, 1)
        assert not paper_graph.has_edge(0, 4)
        assert not paper_graph.has_edge(0, 3)

    def test_batch_methods_agree(self):
        g = gen.erdos_renyi(60, 0.3, seed=5)
        rng = np.random.default_rng(0)
        u = rng.integers(0, 60, 5000)
        v = rng.integers(0, 60, 5000)
        keys = g.batch_has_edge(u, v, method="keys")
        binary = g.batch_has_edge(u, v, method="binary")
        assert (keys == binary).all()
        scalar = np.array([g.has_edge(int(a), int(b)) for a, b in zip(u[:200], v[:200])])
        assert (keys[:200] == scalar).all()

    def test_batch_empty(self, triangle):
        out = triangle.batch_has_edge(np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert out.size == 0

    def test_batch_shape_mismatch(self, triangle):
        with pytest.raises(ValueError):
            triangle.batch_has_edge(np.zeros(2, np.int64), np.zeros(3, np.int64))

    def test_unknown_method(self, triangle):
        with pytest.raises(ValueError):
            triangle.batch_has_edge(
                np.zeros(1, np.int64), np.ones(1, np.int64), method="magic"
            )

    def test_device_charged_per_query(self, triangle):
        dev = Device(DeviceSpec())
        before = dev.stats().useful_ops
        triangle.batch_has_edge(
            np.array([0, 1]), np.array([1, 2]), device=dev
        )
        s = dev.stats()
        assert s.kernel_launches == 1
        # cost = ceil(log2(deg+1)) + 1 = 3 per query for degree-2 rows
        assert s.useful_ops - before == pytest.approx(6.0)

    def test_lookup_cost_formula(self):
        g = gen.star_graph(7)  # hub degree 7, leaves degree 1
        cost = g.lookup_cost
        assert cost[0] == np.ceil(np.log2(8)) + 1  # hub
        assert cost[1] == np.ceil(np.log2(2)) + 1  # leaf

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_lookup_matches_adjacency_sets(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        g = gen.erdos_renyi(n, float(rng.uniform(0, 0.7)), seed=seed)
        adj = {v: set(g.neighbors(v).tolist()) for v in range(n)}
        u = rng.integers(0, n, 200)
        v = rng.integers(0, n, 200)
        got = g.batch_has_edge(u, v)
        want = np.array([b in adj[a] for a, b in zip(u.tolist(), v.tolist())])
        assert (got == want).all()


def _rule(n, num_edges):
    """The documented size rule: bitmap iff it is no larger than the keys."""
    return "bitmap" if n * ((n + 7) // 8) <= 16 * num_edges else "keys"


class TestLookupStructure:
    @given(
        n=st.integers(0, 90),
        density=st.sampled_from([0.0, 0.004, 0.015, 0.03, 0.1, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    @example(n=0, density=0.0, seed=0, dtype=np.int64)
    @example(n=1, density=0.0, seed=0, dtype=np.int32)
    @example(n=13, density=1.0, seed=1, dtype=np.int32)
    @example(n=64, density=0.004, seed=2, dtype=np.int64)
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_binary_and_scalar(self, n, density, seed, dtype):
        rng = np.random.default_rng(seed)
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < density
        g = from_edge_array(iu[keep], iv[keep], num_vertices=n)
        assert g.num_vertices == n
        expected = _rule(n, g.num_edges)
        assert g.lookup_structure == expected
        q = 0 if n == 0 else 400
        u = rng.integers(0, max(n, 1), q).astype(dtype)
        v = rng.integers(0, max(n, 1), q).astype(dtype)
        if n:  # always ask about every stored edge too
            su, sv = g.to_edge_list()
            u = np.concatenate([u, su.astype(dtype), sv.astype(dtype)])
            v = np.concatenate([v, sv.astype(dtype), su.astype(dtype)])
        fast = g.batch_has_edge(u, v, method="keys")
        binary = g.batch_has_edge(u, v, method="binary")
        scalar = np.array(
            [g.has_edge(int(a), int(b)) for a, b in zip(u, v)], dtype=bool
        )
        assert fast.dtype == bool and fast.shape == u.shape
        assert (fast == binary).all()
        assert (fast == scalar).all()
        # the memo holds exactly the chosen structure
        table = g._lookup_table
        if q:
            assert table is not None
            assert table.dtype == (np.uint8 if expected == "bitmap" else np.int64)
            if expected == "bitmap":
                assert table.nbytes == n * ((n + 7) // 8)

    def test_dense_graph_uses_bitmap(self):
        g = gen.caveman_social(4, 60, p_in=0.45, seed=3)
        assert g.lookup_structure == "bitmap"

    def test_sparse_graph_uses_keys(self):
        g = gen.road_grid(30, 30, seed=1)
        assert g.lookup_structure == "keys"

    def test_rule_boundary_is_inclusive(self):
        # n=16 -> a 32-byte bitmap; 2 edges -> 32 bytes of keys
        g = from_edge_list([(0, 1), (2, 3)], num_vertices=16)
        assert g.lookup_structure == "bitmap"
        g = from_edge_list([(0, 1)], num_vertices=16)
        assert g.lookup_structure == "keys"

    def test_empty_graph_answers_empty_batches(self):
        g = CSRGraph(np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int32))
        assert g.lookup_structure == "bitmap"
        out = g.batch_has_edge(np.zeros(0, np.int32), np.zeros(0, np.int32))
        assert out.size == 0
