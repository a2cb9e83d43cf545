import numpy as np
import pytest

from conftest import random_undirected_graph
from robustgsl.graph import SparseGraph, degrees, renormalized_adjacency


class TestSparseGraph:
    def test_dedup_and_symmetry(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges() == [(0, 1)]
        assert g.adj.nnz == 2

    def test_self_loops_dropped(self):
        g = SparseGraph.from_edges(3, [(0, 0), (1, 2)])
        assert g.edges() == [(1, 2)]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseGraph.from_edges(2, [(0, 5)])


class TestDegrees:
    def test_empty(self):
        g = SparseGraph.from_edges(4, [])
        np.testing.assert_array_equal(degrees(g), np.zeros(4, dtype=int))

    def test_triangle(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        np.testing.assert_array_equal(degrees(g), [2, 2, 2])

    def test_path(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        np.testing.assert_array_equal(degrees(g), [1, 2, 1])

    def test_sum_is_twice_edges(self, rng):
        for _ in range(10):
            g = random_undirected_graph(30, 0.2, rng)
            assert degrees(g).sum() == 2 * g.num_edges


class TestRenormalizedAdjacency:
    def test_isolated_node_diagonal_one(self):
        g = SparseGraph.from_edges(2, [])
        a = renormalized_adjacency(g).toarray()
        np.testing.assert_allclose(a, np.eye(2))

    def test_single_edge(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        a = renormalized_adjacency(g).toarray()
        np.testing.assert_allclose(a, np.full((2, 2), 0.5), atol=1e-15)

    def test_path_value(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2)])
        a = renormalized_adjacency(g).toarray()
        assert a[0, 1] == pytest.approx(1 / np.sqrt(6), abs=1e-12)

    def test_symmetric_entries_in_unit_interval(self, rng):
        for _ in range(5):
            g = random_undirected_graph(40, 0.1, rng)
            a = renormalized_adjacency(g).toarray()
            np.testing.assert_allclose(a, a.T, atol=1e-15)
            nz = a[a != 0]
            assert np.all(nz > 0) and np.all(nz <= 1)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 60))
            g = random_undirected_graph(n, 0.15, rng)
            dense = g.adj.toarray() + np.eye(n)
            dinv = np.diag(1.0 / np.sqrt(dense.sum(axis=1)))
            np.testing.assert_allclose(
                renormalized_adjacency(g).toarray(), dinv @ dense @ dinv, atol=1e-12
            )

