"""Graph data model plus degree and normalization utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


Edge = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SparseGraph:
    """Unweighted adjacency in CSR form. Self-loops are never stored.

    Undirected graphs keep both (i, j) and (j, i) entries; ``edges()`` then
    reports each pair once with i < j.
    """

    num_nodes: int
    adj: sp.csr_matrix
    directed: bool = False

    @classmethod
    def from_edges(cls, num_nodes: int, edges, directed: bool = False) -> "SparseGraph":
        rows, cols = [], []
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_nodes} nodes")
            key = (u, v) if directed else canonical_edge(u, v)
            if key in seen:
                continue
            seen.add(key)
            rows.append(u)
            cols.append(v)
            if not directed:
                rows.append(v)
                cols.append(u)
        data = np.ones(len(rows), dtype=float)
        adj = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        adj.sort_indices()
        return cls(num_nodes=num_nodes, adj=adj, directed=directed)

    def edges(self) -> list[Edge]:
        coo = self.adj.tocoo()
        if self.directed:
            pairs = sorted(zip(coo.row.tolist(), coo.col.tolist()))
            return pairs
        return sorted({canonical_edge(int(u), int(v)) for u, v in zip(coo.row, coo.col)})

    @property
    def num_edges(self) -> int:
        return self.adj.nnz if self.directed else self.adj.nnz // 2

    def edge_set(self) -> set[Edge]:
        return set(self.edges())


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

