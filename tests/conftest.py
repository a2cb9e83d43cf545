import numpy as np
import pytest

from robustgsl.graph import SparseGraph
from robustgsl.linalg import make_rng


@pytest.fixture
def rng():
    return make_rng(1234)


def random_undirected_graph(n: int, density: float, rng: np.random.Generator) -> SparseGraph:
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < density
    return SparseGraph.from_edges(n, list(zip(iu[mask].tolist(), ju[mask].tolist())))


def pairs(edges) -> set:
    """The (u, v) rows of an (E, 2) edge array, or any pairs, as a set of tuples."""
    return {(int(u), int(v)) for u, v in edges}


def toy_graph(n=8):
    ring = [(i, (i + 1) % n) for i in range(n)]
    return SparseGraph.from_edges(n, ring + [(2, 5)])


def masked_sigmoid(x):
    """The sigmoid as a boolean-mask gather and scatter, split by sign: the
    oracle that ``linalg.sigmoid`` must match bit for bit."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
