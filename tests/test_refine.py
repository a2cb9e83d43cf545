import tracemalloc

import numpy as np
import pytest

from conftest import random_undirected_graph
from robustgsl.graph import SparseGraph
from robustgsl.linalg import EDGE_BLOCK, edge_cosines, make_rng
from robustgsl.refine import (
    _TOPK_BLOCK,
    _normalized_rows,
    _topk_columns,
    embedding_similarity,
    prune_edges,
    removal_report,
    similarity_matrix,
    topk_insert,
)


def _reference_topk_insert(retained, h, k):
    """topk_insert as it was before its blocks shared one buffer and were
    ranked in chunks: each 512-row block is a fresh product, ranked whole."""
    n = retained.num_nodes
    kept = retained.edge_array()
    edges = [kept, kept[:, ::-1]]
    if k > 0 and n > 1:
        hn = _normalized_rows(h)
        kk = min(k, n - 1)
        for lo in range(0, n, _TOPK_BLOCK):
            sim = hn[lo : lo + _TOPK_BLOCK] @ hn.T
            rows = np.arange(sim.shape[0])
            sim[rows, lo + rows] = -np.inf
            src, dst = _topk_columns(sim, kk)
            edges.append(np.column_stack((src + lo, dst)))
    return SparseGraph.from_edges(n, np.concatenate(edges), directed=True)


def _csr_bytes(g):
    a = g.adj
    return a.shape, g.directed, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes()


class TestSimilarity:
    def test_matches_matrix(self, rng):
        h = rng.normal(size=(10, 4))
        sim = similarity_matrix(h)
        for i in range(10):
            for j in range(10):
                assert sim[i, j] == pytest.approx(embedding_similarity(h, i, j), abs=1e-12)

    def test_zero_row(self, rng):
        h = rng.normal(size=(3, 4))
        h[1] = 0.0
        assert embedding_similarity(h, 0, 1) == 0.0
        assert np.all(similarity_matrix(h)[1] == 0.0)

    def test_self_similarity_one(self, rng):
        h = rng.normal(size=(5, 3))
        np.testing.assert_allclose(np.diag(similarity_matrix(h)), 1.0, atol=1e-12)


class TestPruneEdges:
    def test_strict_threshold(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = SparseGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        s01 = 1 / np.sqrt(2)
        pruned = prune_edges(g, h, s01)  # strictly-greater keeps nothing at equality
        assert (0, 1) not in pruned.edge_set()
        pruned = prune_edges(g, h, s01 - 1e-9)
        assert (0, 1) in pruned.edge_set()
        assert (0, 2) not in pruned.edge_set()  # orthogonal pair, sim 0

    def test_matches_bruteforce(self, rng):
        g = random_undirected_graph(30, 0.2, rng)
        h = rng.normal(size=(30, 6))
        t2 = 0.1
        expected = {e for e in g.edges() if embedding_similarity(h, *e) > t2}
        assert prune_edges(g, h, t2).edge_set() == expected

    def test_cosines_bitwise_equal_to_oracle_across_edge_blocks(self, rng):
        g = random_undirected_graph(400, 0.12, rng)
        assert g.num_edges > EDGE_BLOCK
        h = rng.normal(size=(400, 16))
        h[::13] = 0.0
        edges = g.edge_array()
        oracle = [embedding_similarity(h, u, v) for u, v in edges.tolist()]
        assert edge_cosines(h, edges).tolist() == oracle
        expected = {e for e, s in zip(g.edges(), oracle) if s > 0.2}
        assert prune_edges(g, h, 0.2).edge_set() == expected

    def test_negative_threshold_keeps_all(self, rng):
        g = random_undirected_graph(15, 0.3, rng)
        h = np.abs(rng.normal(size=(15, 4))) + 0.1  # all-positive rows: sim > 0
        assert prune_edges(g, h, -1.0).edges() == g.edges()


class TestTopkInsert:
    def test_hand_instance(self):
        # three well-separated directions; node 3 sits close to node 0
        h = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.1], [0.9, 0.1]])
        retained = SparseGraph.from_edges(4, [(1, 2)])
        out = topk_insert(retained, h, 1)
        assert out.directed
        es = out.edge_set()
        assert {(1, 2), (2, 1)} <= es  # retained edges survive in both directions
        assert (0, 3) in es and (3, 0) in es  # mutual nearest pair

    def test_k_zero_symmetrizes_only(self, rng):
        g = random_undirected_graph(10, 0.3, rng)
        h = rng.normal(size=(10, 4))
        out = topk_insert(g, h, 0)
        assert out.edge_set() == {(u, v) for u, v in g.edges()} | {
            (v, u) for u, v in g.edges()
        }

    def test_out_degree_bounds(self, rng):
        g = random_undirected_graph(20, 0.1, rng)
        h = rng.normal(size=(20, 4))
        k = 5
        out = topk_insert(g, h, k)
        indptr = out.adj.indptr
        base = {e for u, v in g.edges() for e in ((u, v), (v, u))}
        for i in range(20):
            row = set(out.adj.indices[indptr[i]:indptr[i + 1]].tolist())
            inserted = {j for j in row if (i, j) not in base}
            assert len(inserted) <= k
            assert len(row) >= min(k, 19)  # at least the top-k candidates

    def test_tie_breaks_to_smaller_id(self):
        h = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])  # all identical rows
        out = topk_insert(SparseGraph.from_edges(3, []), h, 1)
        # node 0 ties between 1 and 2 -> picks 1; nodes 1 and 2 pick 0
        assert out.edge_set() == {(0, 1), (1, 0), (2, 0)}

    def test_k_larger_than_graph(self, rng):
        h = rng.normal(size=(4, 3))
        out = topk_insert(SparseGraph.from_edges(4, []), h, 10)
        assert out.adj.nnz == 4 * 3  # complete directed graph, no self-loops

    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_sort_oracle_across_row_blocks(self, k, rng):
        # Three row blocks; 3-dim embeddings rounded to one decimal repeat
        # directions, so many rows tie at their k-th place, and zero rows tie
        # with everything at similarity 0.
        n = 2 * _TOPK_BLOCK + 77
        h = np.round(rng.normal(size=(n, 3)), 1)
        h[::97] = 0.0
        g = random_undirected_graph(n, 2.0 / n, rng)
        out = topk_insert(g, h, k)
        sim = similarity_matrix(h)
        expected = {e for u, v in g.edges() for e in ((u, v), (v, u))}
        tied_rows = set()
        for i in range(n):
            order = sorted((j for j in range(n) if j != i), key=lambda j: (-sim[i, j], j))
            expected |= {(i, j) for j in order[:k]}
            if sim[i, order[k - 1]] == sim[i, order[k]]:
                tied_rows.add(i // _TOPK_BLOCK)
        assert tied_rows == {0, 1, 2}  # the tie rule is exercised in every block
        assert out.edge_set() == expected

    @pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 300, 511, 512, 513, 2 * _TOPK_BLOCK + 77])
    def test_csr_bitwise_equal_to_reference(self, n):
        # Rounded 3-dim rows repeat directions, so rows tie at their k-th
        # place; zero rows tie with everything at similarity 0. The chunks of
        # 64 ranked rows split the blocks at 63/64/65 and 511/512/513 nodes.
        rng = make_rng(n)
        h = np.round(rng.normal(size=(n, 3)), 1)
        h[::7] = 0.0
        g = random_undirected_graph(n, min(1.0, 3.0 / n), rng)
        for k in sorted({0, 1, 5, n - 1}):
            want = _csr_bytes(_reference_topk_insert(g, h, k))
            assert _csr_bytes(topk_insert(g, h, k)) == want, f"k={k}"

    def test_working_set_bounded(self):
        # One 512 x n block buffer plus one 64-row chunk's partition copy and
        # boolean masks; two 512 x n blocks would exceed this.
        n, k = 3000, 5
        h = make_rng(0).normal(size=(n, 64))
        g = SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        tracemalloc.start()
        try:
            topk_insert(g, h, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * _TOPK_BLOCK * n + 3 * 8 * 64 * n

    @pytest.mark.parametrize("rows", [9, 11])
    def test_embedding_row_count_checked(self, rows, rng):
        g = random_undirected_graph(10, 0.3, rng)
        h = rng.normal(size=(rows, 3))
        with pytest.raises(ValueError, match="node count 10"):
            prune_edges(g, h, 0.1)
        with pytest.raises(ValueError, match="node count 10"):
            topk_insert(g, h, 2)

    def test_negative_k_rejected(self, rng):
        with pytest.raises(ValueError):
            topk_insert(SparseGraph.from_edges(3, []), rng.normal(size=(3, 2)), -1)


class TestRemovalReport:
    def test_hand_counts(self):
        clean = SparseGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        poisoned = SparseGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (0, 5), (2, 3)])
        labels = np.array([0, 0, 0, 1, 1, 1])
        removed = {(0, 5), (2, 3), (1, 2), (3, 4)}
        report = removal_report(clean, poisoned, removed, labels)
        assert report["total"] == 4
        assert report["adversarial"] == 2  # (0,5) and (2,3) were attack additions
        assert report["normal"] == 2
        assert report["normal_heterophilic"] == 0
        assert report["accuracy"] == pytest.approx(0.5)

    def test_heterophilic_normal_edge(self):
        clean = SparseGraph.from_edges(4, [(0, 1), (1, 2)])
        labels = np.array([0, 0, 1, 1])
        report = removal_report(clean, clean, {(1, 2)}, labels)
        assert report["normal_heterophilic"] == 1
        assert report["accuracy"] == 0.0

    def test_empty_removed(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        report = removal_report(g, g, set(), np.zeros(3, dtype=int))
        assert report["total"] == 0 and report["accuracy"] == 0.0

    def test_matches_set_reference(self, rng):
        for _ in range(5):
            clean = random_undirected_graph(40, 0.15, rng)
            extra = [(u, v) for u, v in random_undirected_graph(40, 0.05, rng).edges()]
            poisoned = SparseGraph.from_edges(40, clean.edges() + extra)
            labels = rng.integers(0, 3, size=40)
            removed = {e for e in poisoned.edges() if rng.random() < 0.3}
            clean_edges = clean.edge_set()
            normal = removed & clean_edges
            report = removal_report(clean, poisoned, removed, labels)
            assert report == {
                "total": len(removed),
                "adversarial": len(removed - clean_edges),
                "normal": len(normal),
                "normal_heterophilic": sum(labels[u] != labels[v] for u, v in normal),
                "accuracy": len(removed - clean_edges) / len(removed),
            }

    @pytest.mark.parametrize("edge", [(1, 0), (0, 7), (-1, 1), (2, 2)])
    def test_rejects_edge_outside_poisoned(self, edge):
        g = SparseGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="not present"):
            removal_report(g, g, {(0, 1), edge}, np.zeros(3, dtype=int))

    def test_rejects_phantom_removal(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="not present"):
            removal_report(g, g, {(1, 2)}, np.zeros(3, dtype=int))
