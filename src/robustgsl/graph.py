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
        outside = ((arr < 0) | (arr >= num_nodes)).any(axis=1)
        if outside.any():
            u, v = arr[np.argmax(outside)].tolist()
            raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
        arr = arr[arr[:, 0] != arr[:, 1]]
        if not directed:
            arr = np.concatenate((arr, arr[:, ::-1]))
        # Unique row-major keys are the CSR entries in row order, columns sorted.
        # (np.sort plus a neighbour test: np.unique hashes, about 20x slower here.)
        keys = np.sort(edge_keys(arr, num_nodes))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        rows, cols = np.divmod(keys[first], num_nodes)
        # The index dtype scipy itself picks for a matrix of this size.
        index = np.int32 if max(num_nodes, len(cols)) < 2 ** 31 else np.int64
        indptr = np.zeros(num_nodes + 1, dtype=index)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        adj = sp.csr_matrix(
            (np.ones(len(cols)), cols.astype(index), indptr), shape=(num_nodes, num_nodes)
        )
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


def sample_nonedge(rng: np.random.Generator, n: int, forbidden: set, labels=None) -> int | None:
    """Uniform rejection sampling of an absent unordered pair, as its key
    u * n + v with u < v; forbidden holds the keys that may not be drawn.

    With labels given, only inter-class pairs qualify. Returns None once the
    eligible pool is provably empty (checked by enumeration after repeated
    rejection failures).
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
    i, j = np.triu_indices(n, k=1)
    keys = i * n + j
    keep = np.isin(keys, np.fromiter(forbidden, dtype=np.int64, count=len(forbidden)), invert=True)
    if labels is not None:
        keep &= labels[i] != labels[j]
    pool = keys[keep]
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

