"""Graph data model plus degree and normalization utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def as_edge_array(edges) -> np.ndarray:
    """Any collection of (u, v) pairs (an (E, 2) array, a list, a set) as an
    (E, 2) int64 array, in the collection's order."""
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (u, v) pairs, got an array of shape {arr.shape}")
    return arr


def edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Row-major key u * n + v of each in-range pair; sorted pairs give sorted keys."""
    return edges[:, 0] * num_nodes + edges[:, 1]


def key_edges(keys, num_nodes: int) -> np.ndarray:
    """The pairs of any collection of keys u * n + v, as a sorted (E, 2) int64 array."""
    keys = np.sort(np.fromiter(keys, dtype=np.int64))
    return np.column_stack(np.divmod(keys, num_nodes))


@dataclass(frozen=True)
class SparseGraph:
    """Unweighted adjacency in CSR form. Self-loops are never stored.

    Undirected graphs keep both (i, j) and (j, i) entries; ``edge_array()``
    and ``edges()`` then report each pair once with i < j.
    """

    num_nodes: int
    adj: sp.csr_matrix
    directed: bool = False

    @classmethod
    def from_edges(cls, num_nodes: int, edges, directed: bool = False) -> "SparseGraph":
        """Graph of any (E, 2) integer pairs; self-loops and repeats are dropped,
        and an undirected graph also drops reversed repeats."""
        arr = as_edge_array(edges)
        n, m = num_nodes, len(arr)
        if m and (arr.min() < 0 or arr.max() >= n):
            outside = ((arr < 0) | (arr >= n)).any(axis=1)
            u, v = arr[np.argmax(outside)].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        # The row-major key u * n + v of each entry (both directions of an
        # undirected pair), written into one array and sorted in place: the
        # unique keys are the CSR entries in row order, columns sorted.
        # (np.unique hashes, about 20x slower here.)
        keys = np.empty(m if directed else 2 * m, dtype=np.int64)
        np.multiply(arr[:, 0], n, out=keys[:m])
        keys[:m] += arr[:, 1]
        if not directed:
            np.multiply(arr[:, 1], n, out=keys[m:])
            keys[m:] += arr[:, 0]
        keys.sort()
        keep = keys % (n + 1) != 0  # a self-loop's key is u * (n + 1)
        keep[1:] &= keys[1:] != keys[:-1]
        keys = keys[keep]
        # The index dtype scipy itself picks for a matrix of this size.
        index = np.int32 if max(n, len(keys)) < 2 ** 31 else np.int64
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(index)
        cols = np.remainder(keys, n, out=keys).astype(index)
        del keys  # freed before the data array is made
        adj = sp.csr_matrix((np.ones(len(cols)), cols, indptr), shape=(n, n))
        return cls(num_nodes=num_nodes, adj=adj, directed=directed)

    def edge_array(self) -> np.ndarray:
        """Stored edges as a sorted (E, 2) int64 array, read off the CSR rows."""
        counts = np.diff(self.adj.indptr)
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), counts)
        arr = np.column_stack((rows, self.adj.indices.astype(np.int64)))
        return arr if self.directed else arr[arr[:, 0] < arr[:, 1]]

    def edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, self.edge_array().tolist()))

    @property
    def num_edges(self) -> int:
        return self.adj.nnz if self.directed else self.adj.nnz // 2

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())


def edge_difference(a: SparseGraph, b: SparseGraph) -> np.ndarray:
    """The edges of a that b lacks, as a sorted (E, 2) array."""
    if a.num_nodes != b.num_nodes:
        raise ValueError(f"node-count mismatch: {a.num_nodes} vs {b.num_nodes}")
    ea, n = a.edge_array(), a.num_nodes
    return ea[np.isin(edge_keys(ea, n), edge_keys(b.edge_array(), n), invert=True)]


# Pairs per block when a loop walks the row-major order of all pairs i < j.
PAIR_BLOCK = 2 ** 20


def pair_blocks(n: int):
    """The ranges (lo, hi) that split the row-major positions of the
    n(n - 1)/2 pairs i < j into consecutive blocks of PAIR_BLOCK."""
    total = n * (n - 1) // 2
    for lo in range(0, total, PAIR_BLOCK):
        yield lo, min(lo + PAIR_BLOCK, total)


def pair_at(flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, at the positions flat of the row-major order
    of all such pairs of n nodes, as two int64 arrays."""
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # position of row i's first pair (i, i + 1)
    i = np.searchsorted(starts, flat, side="right") - 1
    return i, flat - starts[i] + i + 1


def sample_nonedge(rng: np.random.Generator, n: int, forbidden: set, labels=None) -> int | None:
    """Uniform rejection sampling of an absent unordered pair, as its key
    u * n + v with u < v; forbidden holds the keys that may not be drawn.

    With labels given, only inter-class pairs qualify. Returns None once the
    eligible pool is provably empty (checked by enumeration after repeated
    rejection failures), one PAIR_BLOCK of pairs at a time, never all of them.
    """
    for _ in range(50 * n):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        key = u * n + v if u < v else v * n + u
        if key in forbidden:
            continue
        if labels is not None and labels[u] == labels[v]:
            continue
        return key
    # Slow path: enumerate to tell "unlucky" from "exhausted", in the (i, j) order of a loop over i < j.
    taken = np.fromiter(forbidden, dtype=np.int64, count=len(forbidden))
    pool = [np.empty(0, dtype=np.int64)]
    for lo, hi in pair_blocks(n):
        i, j = pair_at(np.arange(lo, hi, dtype=np.int64), n)
        keys = i * n + j
        keep = np.isin(keys, taken, invert=True)
        if labels is not None:
            keep &= labels[i] != labels[j]
        pool.append(keys[keep])
    pool = np.concatenate(pool)
    return int(pool[int(rng.integers(len(pool)))]) if len(pool) else None


def symmetrized(g: SparseGraph) -> SparseGraph:
    """Undirected graph over all ordered edges of g (OR with its transpose);
    an undirected g is returned as it is."""
    if not g.directed:
        return g
    return SparseGraph.from_edges(g.num_nodes, g.edge_array(), directed=False)


def degrees(g: SparseGraph) -> np.ndarray:
    """Neighbor counts excluding self; out-neighbors per row for directed graphs."""
    return np.diff(g.adj.indptr).astype(np.int64)


def renormalized_adjacency(g: SparseGraph) -> sp.csr_matrix:
    """(D + I)^(-1/2) (A + I) (D + I)^(-1/2) for an undirected graph."""
    if g.directed:
        raise ValueError("renormalized adjacency expects an undirected graph")
    a_hat = g.adj + sp.identity(g.num_nodes, format="csr")
    inv_sqrt = 1.0 / np.sqrt(degrees(g) + 1.0)
    d = sp.diags(inv_sqrt)
    out = (d @ a_hat @ d).tocsr()
    out.sort_indices()
    return out

