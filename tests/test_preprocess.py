import tracemalloc

import numpy as np
import pytest

from conftest import pairs, random_undirected_graph, toy_graph
from robustgsl.graph import SparseGraph
from robustgsl.linalg import EDGE_BLOCK, edge_cosines, make_rng
from robustgsl.preprocess import (
    _edge_jaccard,
    edge_scores,
    feature_similarity,
    identical_views,
    make_views,
    random_perturb_views,
    rough_preprocess,
)


class TestFeatureSimilarity:
    def test_jaccard_hand_values(self):
        a = np.array([1.0, 1.0, 0.0, 0.0])
        b = np.array([1.0, 0.0, 1.0, 0.0])
        assert feature_similarity(a, b, "jaccard") == pytest.approx(1 / 3)
        assert feature_similarity(a, a, "jaccard") == 1.0

    def test_jaccard_disjoint_and_empty(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        z = np.zeros(2)
        assert feature_similarity(a, b, "jaccard") == 0.0
        assert feature_similarity(z, z, "jaccard") == 0.0

    def test_cosine_hand_values(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert feature_similarity(a, b, "cosine") == pytest.approx(1 / np.sqrt(2))
        assert feature_similarity(a, np.zeros(2), "cosine") == 0.0

    def test_cosine_matches_numpy_oracle(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=7), rng.normal(size=7)
            expected = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert feature_similarity(a, b, "cosine") == pytest.approx(expected, abs=1e-12)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            feature_similarity(np.ones(2), np.ones(2), "dot")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            feature_similarity(np.ones(2), np.ones(3), "jaccard")


class TestEdgeScores:
    @pytest.mark.parametrize("metric", ["jaccard", "cosine"])
    def test_bitwise_equal_to_feature_similarity(self, metric, rng):
        # Over EDGE_BLOCK edges, so the scores come from more than one gather block.
        g = random_undirected_graph(400, 0.12, rng)
        assert g.num_edges > EDGE_BLOCK
        x = rng.normal(size=(400, 30)) * (rng.random((400, 30)) < 0.4)
        x[::17] = 0.0
        scores = edge_scores(g, x, metric)
        assert list(scores) == g.edges()
        assert list(scores.values()) == [feature_similarity(x[u], x[v], metric) for u, v in g.edges()]

    @pytest.mark.parametrize("kernel", [edge_cosines, _edge_jaccard])
    def test_working_set_does_not_grow_with_edges(self, kernel):
        # The gathered row slices are EDGE_BLOCK x d whatever the edge count;
        # only the output grows, by 8 bytes an edge.
        rng = make_rng(2)
        x = rng.normal(size=(1000, 100)) * (rng.random((1000, 100)) < 0.3)
        peaks = []
        for count in (2_000, 40_000):
            edges = rng.integers(0, 1000, size=(count, 2))
            tracemalloc.start()
            try:
                kernel(x, edges)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2**20


class TestRoughPreprocess:
    def test_partition_of_edges(self, rng):
        g = random_undirected_graph(30, 0.2, rng)
        x = (rng.random((30, 12)) < 0.3).astype(float)
        pruned, removed = rough_preprocess(g, x, "jaccard", 0.2)
        assert set(edge_scores(g, x, "jaccard")) == g.edge_set()
        assert pruned.edge_set() | pairs(removed) == g.edge_set()
        assert not (pruned.edge_set() & pairs(removed))

    def test_strict_threshold_boundary(self):
        # similarity of the single edge is exactly 0.5; t1 == 0.5 keeps it
        g = SparseGraph.from_edges(2, [(0, 1)])
        x = np.array([[1.0, 1.0], [1.0, 0.0]])
        _, removed = rough_preprocess(g, x, "jaccard", 0.5)
        assert edge_scores(g, x, "jaccard")[(0, 1)] == 0.5
        assert not pairs(removed)
        _, removed = rough_preprocess(g, x, "jaccard", 0.5 + 1e-12)
        assert pairs(removed) == {(0, 1)}

    def test_zero_threshold_removes_nothing(self, rng):
        g = toy_graph()
        x = rng.random((8, 4))
        pruned, removed = rough_preprocess(g, x, "cosine", 0.0)
        assert not pairs(removed)
        assert pruned.edges() == g.edges()

    def test_matches_bruteforce_filter(self, rng):
        g = random_undirected_graph(25, 0.25, rng)
        x = (rng.random((25, 10)) < 0.4).astype(float)
        t1 = 0.3
        _, removed = rough_preprocess(g, x, "jaccard", t1)
        expected = {
            e for e, s in edge_scores(g, x, "jaccard").items() if s < t1
        }
        assert pairs(removed) == expected


class TestMakeViews:
    def test_view_count_and_edge_bounds(self, rng):
        g = random_undirected_graph(20, 0.3, rng)
        x = (rng.random((20, 6)) < 0.3).astype(float)
        base, removed = rough_preprocess(g, x, "jaccard", 0.4)
        bundle = make_views(base, removed, p=0.5, m=4, seed=7)
        assert len(bundle.views) == 4
        for view in bundle.views:
            extra = view.edge_set() - base.edge_set()
            assert extra <= pairs(removed)
            assert base.edge_set() <= view.edge_set()

    def test_p_zero_and_one(self, rng):
        g = random_undirected_graph(20, 0.3, rng)
        x = (rng.random((20, 6)) < 0.3).astype(float)
        base, removed = rough_preprocess(g, x, "jaccard", 0.4)
        assert pairs(removed)  # needs a nonempty removed set to be meaningful
        none_back = make_views(base, removed, p=0.0, m=2, seed=1)
        assert all(v.edge_set() == base.edge_set() for v in none_back.views)
        all_back = make_views(base, removed, p=1.0, m=2, seed=1)
        assert all(v.edge_set() == base.edge_set() | pairs(removed) for v in all_back.views)

    def test_recovery_rate_statistics(self):
        # 400 removed edges, p = 0.25: mean recovered count within 4 sigma
        base = SparseGraph.from_edges(900, [])
        removed = {(2 * i, 2 * i + 1) for i in range(400)}
        counts = [
            len(make_views(base, removed, 0.25, 1, seed).views[0].edges())
            for seed in range(50)
        ]
        mean, sigma = 100.0, np.sqrt(400 * 0.25 * 0.75)
        assert abs(np.mean(counts) - mean) < 4 * sigma / np.sqrt(50)

    def test_seed_determinism(self, rng):
        base = random_undirected_graph(15, 0.2, rng)
        removed = {(0, 9), (2, 11), (3, 14)}
        a = make_views(base, removed, 0.5, 3, seed=5)
        b = make_views(base, removed, 0.5, 3, seed=5)
        assert [v.edges() for v in a.views] == [v.edges() for v in b.views]

    def test_invalid_arguments(self, rng):
        base = toy_graph()
        with pytest.raises(ValueError):
            make_views(base, set(), p=1.5, m=2, seed=0)
        with pytest.raises(ValueError):
            make_views(base, set(), p=0.5, m=0, seed=0)


class TestAblationViews:
    def test_identical_views(self):
        base = toy_graph()
        bundle = identical_views(base, 3)
        assert len(bundle.views) == 3
        assert all(v.edges() == base.edges() for v in bundle.views)

    def test_random_perturb_counts(self, rng):
        base = random_undirected_graph(30, 0.3, rng)
        ratio = 0.2
        count = round(ratio * base.num_edges / 2)
        bundle = random_perturb_views(base, ratio, 3, seed=11)
        for view in bundle.views:
            assert view.num_edges == base.num_edges  # removals balance additions
            assert len(view.edge_set() - base.edge_set()) == count
            assert len(base.edge_set() - view.edge_set()) == count

    def test_random_perturb_infeasible(self):
        base = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="cannot remove and add"):
            random_perturb_views(base, 1.0, 1, seed=0)

    def test_random_perturb_deterministic(self, rng):
        base = random_undirected_graph(20, 0.3, rng)
        a = random_perturb_views(base, 0.3, 2, seed=3)
        b = random_perturb_views(base, 0.3, 2, seed=3)
        assert [v.edges() for v in a.views] == [v.edges() for v in b.views]
