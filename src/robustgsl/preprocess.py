"""Feature-similarity pre-processing and recovery-based view generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, as_edge_array, edge_keys, key_edges, sample_nonedge
from .linalg import EDGE_BLOCK, edge_cosines, make_rng

METRICS = ("jaccard", "cosine")


def feature_similarity(x_i: np.ndarray, x_j: np.ndarray, metric: str) -> float:
    """Jaccard on binarized support (value > 0) or cosine on raw values."""
    if x_i.shape != x_j.shape:
        raise ValueError(f"feature dimension mismatch: {x_i.shape} vs {x_j.shape}")
    if metric == "jaccard":
        a, b = x_i > 0, x_j > 0
        union = np.count_nonzero(a | b)
        if union == 0:
            return 0.0
        return float(np.count_nonzero(a & b) / union)
    if metric == "cosine":
        ni, nj = np.linalg.norm(x_i), np.linalg.norm(x_j)
        if ni == 0.0 or nj == 0.0:
            return 0.0
        return float(np.dot(x_i, x_j) / (ni * nj))
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _edge_jaccard(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    support = x > 0
    sizes = np.count_nonzero(support, axis=1)
    out = np.zeros(len(edges))
    for lo in range(0, len(edges), EDGE_BLOCK):
        u, v = edges[lo : lo + EDGE_BLOCK].T
        inter = np.count_nonzero(support[u] & support[v], axis=1)
        union = sizes[u] + sizes[v] - inter
        nonzero = union != 0
        out[lo : lo + EDGE_BLOCK][nonzero] = inter[nonzero] / union[nonzero]
    return out


def _score_array(edges: np.ndarray, features: np.ndarray, metric: str) -> np.ndarray:
    if metric == "jaccard":
        return _edge_jaccard(features, edges)
    if metric == "cosine":
        return edge_cosines(features, edges)
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def edge_scores(g: SparseGraph, features: np.ndarray, metric: str) -> dict[tuple[int, int], float]:
    """Similarity score for every stored (undirected) edge, equal to
    feature_similarity on its two rows."""
    edges = g.edge_array()
    return dict(zip(map(tuple, edges.tolist()), _score_array(edges, features, metric).tolist()))


def rough_preprocess(
    g: SparseGraph, features: np.ndarray, metric: str, t1: float
) -> tuple[SparseGraph, np.ndarray]:
    """Drop every edge scoring strictly below t1.

    Returns (pruned graph, removed edges as a sorted (E, 2) array). Kept and
    removed edges partition the input edge set.
    """
    edges = g.edge_array()
    low = _score_array(edges, features, metric) < t1
    return SparseGraph.from_edges(g.num_nodes, edges[~low]), edges[low]


@dataclass
class ViewBundle:
    """Pre-processed base graph plus M augmentation views.

    Each view's edges are the base edges plus a recovered subset of the
    removed edges (or random perturbations in the featureless/ablation modes).
    """

    base: SparseGraph
    views: list


def make_views(base: SparseGraph, removed, p: float, m: int, seed: int) -> ViewBundle:
    """M views, each independently recovering every removed edge with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"recovery probability must be in [0, 1], got {p}")
    if m < 1:
        raise ValueError("need at least one view")
    rng = make_rng(seed)
    ordered = as_edge_array(removed)
    ordered = ordered[np.lexsort((ordered[:, 1], ordered[:, 0]))]
    base_edges = base.edge_array()
    views = []
    for _ in range(m):
        mask = rng.random(len(ordered)) < p
        views.append(SparseGraph.from_edges(base.num_nodes, np.concatenate((base_edges, ordered[mask]))))
    return ViewBundle(base=base, views=views)


def identical_views(base: SparseGraph, m: int) -> ViewBundle:
    """M copies of the base graph (no-augmentation ablation)."""
    if m < 1:
        raise ValueError("need at least one view")
    return ViewBundle(base=base, views=[base] * m)


def random_perturb_views(base: SparseGraph, ratio: float, m: int, seed: int) -> ViewBundle:
    """M views, each removing and adding round(ratio * |E| / 2) random edges."""
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"perturb ratio must be in [0, 1], got {ratio}")
    if m < 1:
        raise ValueError("need at least one view")
    rng = make_rng(seed)
    edges = base.edge_array()
    n = base.num_nodes
    count = int(round(ratio * len(edges) / 2))
    max_edges = n * (n - 1) // 2
    if count > len(edges) or len(edges) + count > max_edges:
        raise ValueError(
            f"cannot remove and add {count} edges on a graph with {len(edges)} edges"
        )
    present = set(edge_keys(edges, n).tolist())
    views = []
    for _ in range(m):
        kept = np.ones(len(edges), dtype=bool)
        if count:
            kept[rng.choice(len(edges), size=count, replace=False)] = False
        # The size check above leaves at least count absent pairs to draw.
        taken = set(present)
        for _ in range(count):
            taken.add(sample_nonedge(rng, n, taken))
        views.append(SparseGraph.from_edges(n, np.concatenate((edges[kept], key_edges(taken - present, n)))))
    return ViewBundle(base=base, views=views)
