"""Surrogate dataset suite integrity tests."""

import pytest

from repro.datasets import MONSTERS, SUITE, categories, iter_suite, load, names
from repro.datasets import suite as suite_module
from repro.datasets.suite import DatasetSpec
from repro.graph import from_edge_list


class TestSuiteShape:
    def test_has_58_entries_like_the_paper(self):
        assert len(SUITE) == 58

    def test_names_unique(self):
        assert len(set(names())) == 58

    def test_six_categories(self):
        cats = categories()
        assert sorted(cats) == sorted(
            ["road", "collab", "bio", "tech", "web", "social"]
        )

    def test_category_counts(self):
        from collections import Counter

        counts = Counter(spec.category for spec in SUITE)
        assert counts["road"] == 8
        assert counts["collab"] == 10
        assert counts["bio"] == 8
        assert counts["tech"] == 8
        assert counts["web"] == 10
        assert counts["social"] == 14

    def test_monsters_are_social_suite_members(self):
        all_names = set(names())
        for m in MONSTERS:
            assert m in all_names


class TestLoading:
    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load("no-such-graph")

    def test_load_deterministic_and_memoised(self):
        a = load("road-grid-60")
        b = load("road-grid-60")
        assert a is b  # lru_cache
        assert a.num_vertices == 3600

    def test_build_is_deterministic(self):
        spec = SUITE[0]
        g1 = spec.build()
        g2 = spec.build()
        assert (g1.col_indices == g2.col_indices).all()

    def test_small_graphs_valid(self):
        for spec, graph in iter_suite(max_edges=20_000):
            graph.validate()
            assert graph.num_edges > 500, spec.name

    def test_max_edges_filters_before_building(self, monkeypatch):
        built = []
        real_load = suite_module.load

        def spy(name):
            built.append(name)
            return real_load(name)

        monkeypatch.setattr(suite_module, "load", spy)
        got = [spec.name for spec, _ in iter_suite(max_edges=8_000)]
        expected = [s.name for s in SUITE if s.num_edges <= 8_000]
        assert got == expected and built == expected

    def test_build_rejects_a_stale_edge_count(self):
        triangle = lambda: from_edge_list([(0, 1), (1, 2), (0, 2)])
        assert DatasetSpec("t", "road", triangle, 1, 3).build().num_edges == 3
        with pytest.raises(RuntimeError, match="records 4"):
            DatasetSpec("t", "road", triangle, 1, 4).build()

    def test_iter_filters(self):
        road = list(iter_suite(categories=["road"]))
        assert len(road) == 8
        limited = list(iter_suite(limit=3))
        assert len(limited) == 3

    def test_degree_regimes_cover_papers_spread(self):
        degs = {
            spec.category: graph.average_degree
            for spec, graph in iter_suite(max_edges=120_000)
        }
        # low-degree road vs high-degree social, as in the paper
        assert degs["road"] < 6
        assert degs["social"] > 15
