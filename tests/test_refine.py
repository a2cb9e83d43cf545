import tracemalloc

import numpy as np
import pytest

from conftest import random_undirected_graph
from robustgsl.graph import SparseGraph
from robustgsl.linalg import BLOCK_BYTES, EDGE_BLOCK, edge_cosines, make_rng
from robustgsl.refine import (
    _block_rows,
    _normalized_rows,
    _topk_columns,
    embedding_similarity,
    prune_edges,
    removal_report,
    similarity_matrix,
    topk_insert,
)


def _reference_topk_insert(retained, h, k, rows=None, rank_rows=None):
    """topk_insert without its reused buffer: each block of rows (default
    _block_rows(n)) is a fresh product, ranked whole or, given rank_rows, in
    chunks of that many rows."""
    n = retained.num_nodes
    kept = retained.edge_array()
    edges = [kept, kept[:, ::-1]]
    if k > 0 and n > 1:
        hn = _normalized_rows(h)
        kk = min(k, n - 1)
        rows = rows or _block_rows(n)
        for lo in range(0, n, rows):
            sim = hn[lo : lo + rows] @ hn.T
            diag = np.arange(sim.shape[0])
            sim[diag, lo + diag] = -np.inf
            chunk = rank_rows or sim.shape[0]
            for c in range(0, sim.shape[0], chunk):
                src, dst = _topk_columns(sim[c : c + chunk], kk)
                edges.append(np.column_stack((src + lo + c, dst)))
    return SparseGraph.from_edges(n, np.concatenate(edges), directed=True)


def _three_mask_topk_columns(sim, kk):
    """The earlier rank: separate strict, tie and taken masks over every row."""
    n = sim.shape[1]
    kth = np.partition(sim, n - kk, axis=1)[:, [n - kk]]
    above = sim > kth
    at = sim == kth
    take = above | at
    over = np.flatnonzero(take.sum(axis=1) > kk)
    if over.size:
        need = kk - above[over].sum(axis=1, keepdims=True)
        take[over] = above[over] | (at[over] & (np.cumsum(at[over], axis=1) <= need))
    return np.nonzero(take)


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

    def test_rank_matches_three_mask_rank(self):
        # Few distinct values make many ties at the kk-th place, some rows
        # tie throughout, and -inf marks the diagonal as topk_insert does.
        rng = make_rng(11)
        for _ in range(200):
            rows, n = int(rng.integers(1, 12)), int(rng.integers(2, 40))
            sim = rng.integers(-3, 4, size=(rows, n)) / 4.0
            sim[rng.random(rows) < 0.2] = 0.5
            lo = int(rng.integers(0, n - min(rows, n) + 1))
            diag = np.arange(min(rows, n))
            sim[diag, lo + diag] = -np.inf
            kk = int(rng.integers(1, n))
            got, want = _topk_columns(sim, kk), _three_mask_topk_columns(sim, kk)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_k_larger_than_graph(self, rng):
        h = rng.normal(size=(4, 3))
        out = topk_insert(SparseGraph.from_edges(4, []), h, 10)
        assert out.adj.nnz == 4 * 3  # complete directed graph, no self-loops

    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_sort_oracle_across_row_blocks(self, k, rng):
        # Five row blocks of 238 rows (the last of 149); 3-dim embeddings
        # rounded to one decimal repeat directions, so many rows tie at their
        # k-th place, and zero rows tie with everything at similarity 0.
        n = 1101
        rows = _block_rows(n)
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
                tied_rows.add(i // rows)
        # The tie rule is exercised in every block.
        assert tied_rows == set(range(-(-n // rows))) == set(range(5))
        assert out.edge_set() == expected

    @pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 300, 511, 512, 513, 1101])
    def test_csr_bitwise_equal_to_reference(self, n):
        # Rounded 3-dim rows repeat directions, so rows tie at their k-th
        # place; zero rows tie with everything at similarity 0. Up to 512
        # nodes every row is in one block; at 513 the blocks hold 511 and 2
        # rows, at 1101 238 rows and a last one of 149.
        rng = make_rng(n)
        h = np.round(rng.normal(size=(n, 3)), 1)
        h[::7] = 0.0
        g = random_undirected_graph(n, min(1.0, 3.0 / n), rng)
        for k in sorted({0, 1, 5, n - 1}):
            want = _csr_bytes(_reference_topk_insert(g, h, k))
            assert _csr_bytes(topk_insert(g, h, k)) == want, f"k={k}"

    @pytest.mark.parametrize("n", [300, 3000])
    def test_csr_bitwise_equal_to_parent_blocks(self, n):
        # The refined graphs at the benchmark's sizes (n=300 and n=3000) are
        # those of the earlier rule: 512-row blocks, each ranked in chunks of
        # 64 rows.
        rng = make_rng(n)
        h = rng.normal(size=(n, 64))
        g = random_undirected_graph(n, 3.0 / n, rng)
        want = _csr_bytes(_reference_topk_insert(g, h, 5, rows=512, rank_rows=64))
        assert _csr_bytes(topk_insert(g, h, 5)) == want

    def test_working_set_bounded(self):
        # The block buffer and one block's partition copy (at most
        # BLOCK_BYTES each), the block's boolean masks, and 1 MiB.
        # The copy is freed before the masks are made, so the masks' share
        # and the 1 MiB hold the normalized embeddings (1.5 MB here) and the
        # edges. One 512 x n block alone (12 MB at n=3000) would exceed this.
        n, k = 3000, 5
        h = make_rng(0).normal(size=(n, 64))
        g = SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        tracemalloc.start()
        try:
            topk_insert(g, h, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * BLOCK_BYTES + 3 * _block_rows(n) * n + 2**20

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
