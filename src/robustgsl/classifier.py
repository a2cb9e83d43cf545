"""Two-layer GCN classifier with a degree-reweighted aggregation mode.

The advanced mode weights each in-message by (d_i d_j)^alpha, row-normalized
so neighbor weights sum to one, and adds a beta-weighted self term. The
vanilla mode is the classic renormalized-adjacency GCN, kept as an exact
separate implementation for baselines and ablation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph, degrees, renormalized_adjacency
from .linalg import NumericError, adam_init, adam_step, glorot, make_rng, relu, spmm


@dataclass
class ClassifierModel:
    w1: np.ndarray
    w2: np.ndarray
    mode: str  # "advanced" | "vanilla"
    alpha: float = 0.0
    beta: float = 0.0


@dataclass
class ClassifierConfig:
    hidden: int = 16
    lr: float = 1e-2
    weight_decay: float = 5e-4
    epochs: int = 200


def degree_weighted_matrix(g: SparseGraph, alpha: float, beta: float) -> sp.csr_matrix:
    """Aggregation operator: row-normalized (d_i d_j)^alpha weights plus beta I."""
    deg = degrees(g).astype(float)
    adj = g.adj
    data = np.zeros_like(adj.data)
    for i in range(g.num_nodes):
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        if lo == hi:
            continue
        dd = deg[i] * deg[adj.indices[lo:hi]]
        if alpha < 0:
            # zero-degree sources are excluded rather than raised to a negative power
            w = np.where(dd > 0, dd, 1.0) ** alpha * (dd > 0)
        else:
            w = dd ** alpha
        z = w.sum()
        if z > 0:
            data[lo:hi] = w / z
    weighted = sp.csr_matrix((data, adj.indices.copy(), adj.indptr.copy()), shape=adj.shape)
    out = (weighted + beta * sp.identity(g.num_nodes, format="csr")).tocsr()
    out.sort_indices()
    return out


def propagation_matrix(g: SparseGraph, mode: str, alpha: float = 0.0, beta: float = 0.0) -> sp.csr_matrix:
    if mode == "advanced":
        return degree_weighted_matrix(g, alpha, beta)
    if mode == "vanilla":
        if g.directed:
            raise ValueError("vanilla propagation expects an undirected graph")
        return renormalized_adjacency(g)
    raise ValueError(f"unknown classifier mode {mode!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(q: sp.csr_matrix, h0: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    z1 = spmm(q, h0) @ w1
    h1 = relu(z1)
    logits = spmm(q, h1) @ w2
    return z1, h1, logits


def classifier_loss_and_grads(
    w1: np.ndarray,
    w2: np.ndarray,
    q: sp.csr_matrix,
    h0: np.ndarray,
    labels: np.ndarray,
    node_ids: np.ndarray,
    weight_decay: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over node_ids plus L2 on both layer weights."""
    z1, h1, logits = _forward(q, h0, w1, w2)
    probs = _softmax(logits[node_ids])
    picked = probs[np.arange(len(node_ids)), labels[node_ids]]
    loss = -np.log(np.clip(picked, 1e-12, None)).mean()
    loss += 0.5 * weight_decay * (np.sum(w1 * w1) + np.sum(w2 * w2))

    d_logits = np.zeros_like(logits)
    grad = probs.copy()
    grad[np.arange(len(node_ids)), labels[node_ids]] -= 1.0
    d_logits[node_ids] = grad / len(node_ids)

    qt_dl = spmm(q.T.tocsr(), d_logits)
    d_w2 = h1.T @ qt_dl + weight_decay * w2
    d_h1 = qt_dl @ w2.T
    d_z1 = d_h1 * (z1 > 0)
    d_w1 = spmm(q, h0).T @ d_z1 + weight_decay * w1
    return float(loss), {"w1": d_w1, "w2": d_w2}


def logits_of(model: ClassifierModel, g: SparseGraph, h0: np.ndarray) -> np.ndarray:
    q = propagation_matrix(g, model.mode, model.alpha, model.beta)
    return _forward(q, h0, model.w1, model.w2)[2]


def predict(model: ClassifierModel, g: SparseGraph, h0: np.ndarray) -> np.ndarray:
    """Per-node argmax class; ties go to the smaller class id."""
    return np.argmax(logits_of(model, g, h0), axis=1)


def accuracy(predictions: np.ndarray, labels: np.ndarray, node_ids) -> float:
    node_ids = np.asarray(list(node_ids), dtype=np.int64)
    if node_ids.size == 0:
        raise ValueError("accuracy over an empty node set is undefined")
    return float(np.mean(predictions[node_ids] == labels[node_ids]))


def train_classifier(
    g: SparseGraph,
    h0: np.ndarray,
    labels: np.ndarray,
    split,
    config: ClassifierConfig,
    mode: str,
    alpha: float,
    beta: float,
    seed: int,
) -> tuple[ClassifierModel, float]:
    """Adam training with model selection by best validation accuracy.

    Returns the selected model and its test accuracy.
    """
    if not split.train:
        raise ValueError("training split is empty")
    if h0.shape[0] != g.num_nodes:
        raise ValueError(f"feature rows {h0.shape[0]} != node count {g.num_nodes}")
    num_classes = int(labels.max()) + 1
    rng = make_rng(seed)
    params = {
        "w1": glorot(h0.shape[1], config.hidden, rng),
        "w2": glorot(config.hidden, num_classes, rng),
    }
    q = propagation_matrix(g, mode, alpha, beta)
    train_ids = np.asarray(split.train, dtype=np.int64)
    val_ids = np.asarray(split.val, dtype=np.int64)
    state = adam_init(params, config.lr)
    best = {k: v.copy() for k, v in params.items()}
    best_val = -1.0
    for epoch in range(config.epochs):
        loss, grads = classifier_loss_and_grads(
            params["w1"], params["w2"], q, h0, labels, train_ids, config.weight_decay
        )
        if not np.isfinite(loss):
            raise NumericError(f"classifier loss diverged at epoch {epoch}")
        params = adam_step(params, grads, state)
        if val_ids.size:
            logits = _forward(q, h0, params["w1"], params["w2"])[2]
            val_acc = float(np.mean(np.argmax(logits[val_ids], axis=1) == labels[val_ids]))
            if val_acc > best_val:
                best_val = val_acc
                best = {k: v.copy() for k, v in params.items()}
    if not val_ids.size:
        warnings.warn("empty validation split; using the last-epoch model", stacklevel=2)
        best = params
    model = ClassifierModel(w1=best["w1"], w2=best["w2"], mode=mode, alpha=alpha, beta=beta)
    test_acc = accuracy(predict(model, g, h0), labels, split.test) if split.test else float("nan")
    return model, test_acc
