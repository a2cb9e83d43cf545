import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_undirected_graph
from robustgsl.graph import (
    SparseGraph,
    degrees,
    edge_difference,
    edge_keys,
    key_edges,
    pair_at,
    renormalized_adjacency,
    sample_nonedge,
    symmetrized,
)


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


class TestSymmetrized:
    def test_directed_to_undirected(self):
        g = SparseGraph.from_edges(3, [(0, 1), (2, 1)], directed=True)
        s = symmetrized(g)
        assert not s.directed
        assert s.edges() == [(0, 1), (1, 2)]

    def test_idempotent_on_undirected(self):
        g = SparseGraph.from_edges(3, [(0, 1)])
        assert symmetrized(g).edges() == g.edges()


def reference_from_edges(num_nodes, edges, directed=False):
    """The set-of-tuples constructor the edge-array core replaced."""
    rows, cols = [], []
    seen = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        rows.append(u)
        cols.append(v)
        if not directed:
            rows.append(v)
            cols.append(u)
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes))
    adj.sort_indices()
    return adj


def reference_edges(adj, directed):
    coo = adj.tocoo()
    if directed:
        return sorted(zip(coo.row.tolist(), coo.col.tolist()))
    return sorted({(min(u, v), max(u, v)) for u, v in zip(coo.row.tolist(), coo.col.tolist())})


def random_edge_lists(seed, count=40):
    """Edge lists with repeats, reversed pairs and self-loops, plus empty ones."""
    rng = np.random.default_rng(seed)
    yield 0, []
    yield 5, []
    for _ in range(count):
        n = int(rng.integers(1, 50))
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        pairs = np.concatenate((pairs, pairs[: len(pairs) // 3, ::-1], pairs[: len(pairs) // 4]))
        yield n, [tuple(p) for p in pairs.tolist()]


def sort_divmod_from_edges(num_nodes, arr, directed):
    """The earlier array constructor: drop self-loops, stack the reversed
    pairs, sort the keys, then divmod and bincount the unique ones."""
    arr = arr[arr[:, 0] != arr[:, 1]]
    if not directed:
        arr = np.concatenate((arr, arr[:, ::-1]))
    keys = np.sort(arr[:, 0] * num_nodes + arr[:, 1])
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rows, cols = np.divmod(keys[first], num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr, cols.astype(np.int32)


class TestEdgeArrayCore:
    @pytest.mark.parametrize("directed", [False, True])
    def test_csr_matches_sort_divmod_on_random_pairs(self, directed):
        # Up to 5 pairs per node among n ids: repeats, reversed repeats and
        # self-loops are all common.
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 3000))
            arr = rng.integers(0, n, size=(int(rng.integers(0, 5 * n)), 2))
            g = SparseGraph.from_edges(n, arr, directed=directed)
            indptr, indices = sort_divmod_from_edges(n, arr, directed)
            assert g.adj.indptr.dtype == indptr.dtype and g.adj.indices.dtype == indices.dtype
            assert np.array_equal(g.adj.indptr, indptr) and np.array_equal(g.adj.indices, indices)
            assert g.adj.data.dtype == np.float64 and (g.adj.data == 1.0).all()

    def test_peak_memory_per_edge(self):
        # The two directions' keys (16 B per input pair), the self-loop test's
        # remainders and the compacted keys; the input array is the caller's.
        n = 10000
        arr = np.random.default_rng(0).integers(0, n, size=(200000, 2))
        tracemalloc.start()
        try:
            SparseGraph.from_edges(n, arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * len(arr)

    @pytest.mark.parametrize("directed", [False, True])
    def test_csr_matches_reference_byte_for_byte(self, directed):
        for n, edges in random_edge_lists(7):
            ref = reference_from_edges(n, edges, directed)
            for given in (edges, np.array(edges, dtype=np.int64).reshape(-1, 2), iter(edges)):
                g = SparseGraph.from_edges(n, given, directed=directed)
                for name in ("indptr", "indices", "data"):
                    got, want = getattr(g.adj, name), getattr(ref, name)
                    assert got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), name
                assert g.adj.shape == ref.shape

    @pytest.mark.parametrize("directed", [False, True])
    def test_edges_match_reference(self, directed):
        for n, edges in random_edge_lists(8):
            g = SparseGraph.from_edges(n, edges, directed=directed)
            want = reference_edges(reference_from_edges(n, edges, directed), directed)
            arr = g.edge_array()
            assert arr.dtype == np.int64 and arr.shape == (len(want), 2)
            assert g.edges() == want
            assert g.edge_set() == set(want)
            assert g.num_edges == len(want)

    def test_out_of_range_self_loop_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(5, 5\) out of range for 2 nodes"):
            SparseGraph.from_edges(2, [(5, 5)])

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseGraph.from_edges(3, np.array([[0, 1], [-1, 2]]))

    def test_edge_difference_matches_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_undirected_graph(30, 0.2, rng)
            kept = [e for e in a.edges() if rng.random() < 0.7]
            b = SparseGraph.from_edges(30, kept + [(0, 29)])
            diff = edge_difference(a, b)
            assert diff.tolist() == [list(e) for e in sorted(a.edge_set() - b.edge_set())]


class _StuckRng:
    """Draws node 0 for the first ``stuck`` calls, so a rejection loop sees
    only self-pairs, then ``pick`` (mod the range) for every later call."""

    def __init__(self, stuck, pick):
        self.stuck, self.pick, self.calls = stuck, pick, 0

    def integers(self, high):
        self.calls += 1
        return 0 if self.calls <= self.stuck else self.pick % high


class TestEdgeKeys:
    def test_key_edges_inverts_edge_keys(self):
        rng = np.random.default_rng(2)
        g = random_undirected_graph(30, 0.2, rng)
        keys = edge_keys(g.edge_array(), 30)
        for given in (keys, rng.permutation(keys).tolist(), set(keys.tolist())):
            arr = key_edges(given, 30)
            assert arr.dtype == np.int64 and arr.tobytes() == g.edge_array().tobytes()
        assert key_edges(set(), 30).shape == (0, 2)

    def test_sample_nonedge_returns_an_absent_key(self):
        rng = np.random.default_rng(0)
        n = 12
        labels = rng.integers(0, 3, size=n)
        forbidden = set(edge_keys(random_undirected_graph(n, 0.5, rng).edge_array(), n).tolist())
        for lab in (None, labels):
            for _ in range(50):
                u, v = divmod(sample_nonedge(rng, n, forbidden, lab), n)
                assert u < v and u * n + v not in forbidden
                assert lab is None or lab[u] != lab[v]

    def test_exhausted_loop_picks_from_enumerated_pool(self):
        # Once its 50 n draws are rejected, the pick indexes the eligible keys
        # in the order of a loop over i < j, the order the tuple lists had.
        rng = np.random.default_rng(1)
        for n in range(2, 8):
            for density in (0.3, 0.6, 1.0):
                forbidden = set(edge_keys(random_undirected_graph(n, density, rng).edge_array(), n).tolist())
                labels = rng.integers(0, 2, size=n)
                for lab in (None, labels):
                    pool = [
                        i * n + j
                        for i in range(n)
                        for j in range(i + 1, n)
                        if i * n + j not in forbidden and (lab is None or lab[i] != lab[j])
                    ]
                    for pick in range(len(pool) + 2):
                        rng_stub = _StuckRng(100 * n, pick)
                        got = sample_nonedge(rng_stub, n, forbidden, lab)
                        assert got == (pool[pick % len(pool)] if pool else None)
                        assert rng_stub.calls == 100 * n + bool(pool)


class TestPairOrder:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_pair_at_matches_triu_indices(self, n):
        iu, ju = np.triu_indices(n, k=1)
        i, j = pair_at(np.arange(len(iu), dtype=np.int64), n)
        assert i.dtype == j.dtype == np.int64
        np.testing.assert_array_equal(i, iu)
        np.testing.assert_array_equal(j, ju)

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_exhausted_pool_independent_of_block(self, monkeypatch, block):
        # The enumerated pool, and so the pick, is the same however many
        # blocks the pairs are walked in.
        rng = np.random.default_rng(3)
        for n in range(2, 9):
            forbidden = set(edge_keys(random_undirected_graph(n, 0.5, rng).edge_array(), n).tolist())
            labels = rng.integers(0, 2, size=n)
            for lab in (None, labels):
                want = [sample_nonedge(_StuckRng(100 * n, pick), n, forbidden, lab) for pick in range(n * n)]
                with monkeypatch.context() as m:
                    m.setattr("robustgsl.graph.PAIR_BLOCK", block)
                    got = [sample_nonedge(_StuckRng(100 * n, pick), n, forbidden, lab) for pick in range(n * n)]
                assert got == want
