"""Embedding-driven structure refinement: similarity pruning and top-k insertion."""

from __future__ import annotations

import numpy as np

from .graph import SparseGraph, as_edge_array, edge_keys
from .linalg import edge_cosines
from .preprocess import feature_similarity


def _normalized_rows(h: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return h / safe


def embedding_similarity(h: np.ndarray, i: int, j: int) -> float:
    """Cosine of two embedding rows; 0 when either row is all zero."""
    return feature_similarity(h[i], h[j], "cosine")


# Bytes of one block of cosine rows: topk_insert computes each block into one
# reused buffer and ranks it whole, and similarity_matrix stacks the same
# blocks. The budget is 512² cosines so that a graph of at most 512 nodes is
# one block, the single product of the full matrix, with its bits: for small
# n the GEMM's bits depend on the row count.
_BLOCK_BYTES = 8 * 512 * 512


def _block_rows(n: int) -> int:
    """Rows per cosine block at n nodes: all n up to 512 nodes, else as many
    as fit in _BLOCK_BYTES (87 at n=3000), and at least one."""
    return max(1, min(n, _BLOCK_BYTES // (8 * max(n, 1))))


def similarity_matrix(h: np.ndarray) -> np.ndarray:
    """Full pairwise cosine matrix (zero rows give zero similarity), stacked
    from the row blocks that topk_insert ranks."""
    hn = _normalized_rows(h)
    rows = _block_rows(len(hn))
    return np.vstack([np.matmul(hn[lo : lo + rows], hn.T) for lo in range(0, max(len(hn), 1), rows)])


def _check_rows(g: SparseGraph, h: np.ndarray) -> None:
    if h.shape[0] != g.num_nodes:
        raise ValueError(f"embedding rows {h.shape[0]} != node count {g.num_nodes}")


def prune_edges(g: SparseGraph, h: np.ndarray, t2: float) -> SparseGraph:
    """Keep an edge only when its embedding similarity strictly exceeds t2."""
    _check_rows(g, h)
    edges = g.edge_array()
    return SparseGraph.from_edges(g.num_nodes, edges[edge_cosines(h, edges) > t2])


def _topk_columns(sim: np.ndarray, kk: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) pairs of each row's kk largest entries, ties to the
    smaller column: the first kk of the row sorted by (-sim, column)."""
    n = sim.shape[1]
    # The list index copies the column, so the partitioned block is freed.
    kth = np.partition(sim, n - kk, axis=1)[:, [n - kk]]
    take = sim >= kth
    # Where more entries tie with the kk-th largest than places are left, the
    # places go to the smallest ids.
    over = np.flatnonzero(np.count_nonzero(take, axis=1) > kk)
    if over.size:
        above = sim[over] > kth[over]
        at = take[over] & ~above
        need = kk - np.count_nonzero(above, axis=1, keepdims=True)
        take[over] = above | (at & (np.cumsum(at, axis=1) <= need))
    return np.nonzero(take)


def _topk_pairs(h: np.ndarray, kk: int) -> list[np.ndarray]:
    """Each node's kk most similar peers as (node, peer) arrays, one per
    block of rows. The cosines of a block are computed into one reused
    buffer and ranked whole; the buffer and the normalized rows are freed on
    return."""
    hn = _normalized_rows(h)
    n = len(hn)
    rows = _block_rows(n)
    buf = np.empty((rows, n))
    pairs = []
    for lo in range(0, n, rows):
        sim = np.matmul(hn[lo : lo + rows], hn.T, out=buf[: min(rows, n - lo)])
        diag = np.arange(sim.shape[0])
        sim[diag, lo + diag] = -np.inf
        src, dst = _topk_columns(sim, kk)
        pairs.append(np.column_stack((src + lo, dst)))
    return pairs


def topk_insert(retained: SparseGraph, h: np.ndarray, k: int) -> SparseGraph:
    """Directed union of the retained edges with each node's k most similar peers.

    Ties break toward the smaller candidate id. The cosines are computed in
    blocks of at most _BLOCK_BYTES into one reused buffer, and each block is
    ranked whole, so no n x n matrix is held: the working set is about
    2 * _BLOCK_BYTES + 3 * rows * n bytes, rows = _block_rows(n). The result
    is directed: row i lists the aggregation sources of node i.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_rows(retained, h)
    n = retained.num_nodes
    kept = retained.edge_array()
    edges = [kept, kept[:, ::-1]]
    if k > 0 and n > 1:
        edges += _topk_pairs(h, min(k, n - 1))
    return SparseGraph.from_edges(n, np.concatenate(edges), directed=True)


def removal_report(
    clean: SparseGraph,
    poisoned: SparseGraph,
    removed,
    labels: np.ndarray,
) -> dict:
    """Audit removed (u, v) pairs, repeats counted once, against the attack ground truth.

    adversarial = removals that were attack additions; normal = removals of
    clean edges; accuracy = adversarial / total.
    """
    n = max(clean.num_nodes, poisoned.num_nodes)
    removed = np.unique(as_edge_array(removed), axis=0)
    keys = edge_keys(removed, n)
    inside = ((removed >= 0) & (removed < n)).all(axis=1)
    extra = removed[~inside | ~np.isin(keys, edge_keys(poisoned.edge_array(), n))]
    if len(extra):
        raise ValueError(
            f"removed edges not present in the poisoned graph: {sorted(map(tuple, extra.tolist()))[:5]}"
        )
    normal = np.isin(keys, edge_keys(clean.edge_array(), n))
    total = len(removed)
    adversarial = total - int(normal.sum())
    u, v = removed[normal].T
    return {
        "total": total,
        "adversarial": adversarial,
        "normal": int(normal.sum()),
        "normal_heterophilic": int(np.count_nonzero(labels[u] != labels[v])),
        "accuracy": (adversarial / total) if total else 0.0,
    }
