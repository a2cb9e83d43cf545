"""Two-layer GCN classifier with a degree-reweighted aggregation mode.

The advanced mode weights each in-message by (d_i d_j)^alpha, row-normalized
so neighbor weights sum to one, and adds a beta-weighted self term. The
vanilla mode is the classic renormalized-adjacency GCN, kept as an exact
separate implementation for baselines and ablation; it makes a directed graph
undirected itself, so every caller passes the graph it has.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import SparseGraph, degrees, renormalized_adjacency, symmetrized
from .linalg import NumericError, adam_init, adam_step, glorot, make_rng, relu, spmm


@dataclass
class ClassifierModel:
    w1: np.ndarray
    w2: np.ndarray
    mode: str  # "advanced" | "vanilla"
    alpha: float = 0.0
    beta: float = 0.0
    val_accuracy: float | None = None  # the selected model's; None without a validation split


@dataclass
class ClassifierConfig:
    hidden: int = 16
    lr: float = 1e-2
    weight_decay: float = 5e-4
    epochs: int = 200


def degree_weighted_matrix(g: SparseGraph, alpha: float, beta: float) -> sp.csr_matrix:
    """Aggregation operator: row-normalized (d_i d_j)^alpha weights plus beta I."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be a finite number >= 0, got {beta!r}")
    deg = degrees(g).astype(float)
    adj = g.adj
    rows = np.repeat(np.arange(g.num_nodes), np.diff(adj.indptr))
    dd = deg[rows] * deg[adj.indices]
    if alpha < 0:
        # zero-degree sources are excluded rather than raised to a negative power
        w = np.where(dd > 0, dd, 1.0) ** alpha * (dd > 0)
    else:
        w = dd ** alpha
    # Row sums, added one entry at a time in CSR order; a row whose weights are
    # all 0 keeps 0 in data.
    z = np.bincount(rows, weights=w, minlength=g.num_nodes)[rows]
    data = np.divide(w, z, out=np.zeros_like(w), where=z > 0)
    weighted = sp.csr_matrix((data, adj.indices.copy(), adj.indptr.copy()), shape=adj.shape)
    out = (weighted + beta * sp.identity(g.num_nodes, format="csr")).tocsr()
    out.sort_indices()
    return out


def propagation_matrix(g: SparseGraph, mode: str, alpha: float = 0.0, beta: float = 0.0) -> sp.csr_matrix:
    if mode == "advanced":
        return degree_weighted_matrix(g, alpha, beta)
    if mode == "vanilla":
        # The classic GCN is defined on an undirected graph.
        return renormalized_adjacency(symmetrized(g))
    raise ValueError(f"unknown classifier mode {mode!r}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _labelled_forward(
    q_lab: sp.csr_matrix, lab, qh0: np.ndarray, w1: np.ndarray, w2: np.ndarray, prop: np.ndarray
):
    """Both layers, given the first propagation qh0 = q @ h0, with the second
    propagation on the rows lab only (an index array or a slice), q_lab = q[lab].

    The propagated rows are written into ``prop``, an N x hidden array, so
    the product with w2 has the full N x C shape whatever lab is: every row
    of lab gets the bits the whole of q would give it. Only those rows of the
    logits are meaningful; the others come from whatever ``prop`` held.
    """
    z1 = qh0 @ w1
    h1 = relu(z1)
    prop[lab] = spmm(q_lab, h1)
    return z1, h1, prop @ w2


def _loss_and_grads(
    forward: tuple[np.ndarray, np.ndarray, np.ndarray],
    w1: np.ndarray,
    w2: np.ndarray,
    qt_ids: sp.csr_matrix,
    qh0: np.ndarray,
    labels: np.ndarray,
    node_ids: np.ndarray,
    weight_decay: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """classifier_loss_and_grads given a forward pass at (w1, w2) whose logits
    are right on the rows node_ids, qt_ids = q[node_ids].T and qh0 = q @ h0,
    so a training loop computes each of them once.

    The logits' gradient is back-propagated through qt_ids, whose column k is
    row node_ids[k] of q: a node listed twice adds both of its rows' terms.
    """
    z1, h1, logits = forward
    probs = _softmax(logits[node_ids])
    picked = probs[np.arange(len(node_ids)), labels[node_ids]]
    loss = -np.log(np.clip(picked, 1e-12, None)).mean()
    loss += 0.5 * weight_decay * (np.sum(w1 * w1) + np.sum(w2 * w2))

    grad = probs
    grad[np.arange(len(node_ids)), labels[node_ids]] -= 1.0
    grad /= len(node_ids)

    qt_dl = spmm(qt_ids, grad)
    d_w2 = h1.T @ qt_dl + weight_decay * w2
    d_h1 = qt_dl @ w2.T
    d_z1 = d_h1 * (z1 > 0)
    d_w1 = qh0.T @ d_z1 + weight_decay * w1
    return float(loss), {"w1": d_w1, "w2": d_w2}


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
    qh0 = spmm(q, h0)
    q_ids = q[node_ids]
    prop = np.zeros((q.shape[0], w1.shape[1]))
    forward = _labelled_forward(q_ids, node_ids, qh0, w1, w2, prop)
    return _loss_and_grads(forward, w1, w2, q_ids.T.tocsr(), qh0, labels, node_ids, weight_decay)


def predict(model: ClassifierModel, g: SparseGraph, h0: np.ndarray) -> np.ndarray:
    """Per-node argmax class; ties go to the smaller class id."""
    q = propagation_matrix(g, model.mode, model.alpha, model.beta)
    prop = np.empty((g.num_nodes, model.w1.shape[1]))
    return np.argmax(_labelled_forward(q, slice(None), spmm(q, h0), model.w1, model.w2, prop)[2], axis=1)


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

    Returns the selected model, with that accuracy, and its test accuracy.
    """
    if not split.train:
        raise ValueError("training split is empty")
    if config.epochs < 1:
        raise ValueError(f"classifier epochs must be >= 1, got {config.epochs}")
    if h0.shape[0] != g.num_nodes:
        raise ValueError(f"feature rows {h0.shape[0]} != node count {g.num_nodes}")
    num_classes = int(labels.max()) + 1
    rng = make_rng(seed)
    params = {
        "w1": glorot(h0.shape[1], config.hidden, rng),
        "w2": glorot(config.hidden, num_classes, rng),
    }
    q = propagation_matrix(g, mode, alpha, beta)
    qh0 = spmm(q, h0)
    train_ids = np.asarray(split.train, dtype=np.int64)
    val_ids = np.asarray(split.val, dtype=np.int64)
    # Epochs read the logits of the train and validation rows only, so they
    # propagate only those rows, in the split's order.
    lab = np.concatenate((train_ids, val_ids))
    q_lab = q[lab]
    qt_train = q_lab[: len(train_ids)].T.tocsr()
    prop = np.zeros((g.num_nodes, config.hidden))
    state = adam_init(params, config.lr)
    best = {k: v.copy() for k, v in params.items()}
    best_val = -1.0
    forward = _labelled_forward(q_lab, lab, qh0, params["w1"], params["w2"], prop)
    for epoch in range(config.epochs):
        loss, grads = _loss_and_grads(
            forward, params["w1"], params["w2"], qt_train, qh0, labels, train_ids, config.weight_decay
        )
        if not np.isfinite(loss):
            raise NumericError(f"classifier loss diverged at epoch {epoch}")
        params = adam_step(params, grads, state)
        # Validation and the next epoch's loss share this forward pass.
        forward = _labelled_forward(q_lab, lab, qh0, params["w1"], params["w2"], prop)
        if val_ids.size:
            logits = forward[2]
            val_acc = float(np.mean(np.argmax(logits[val_ids], axis=1) == labels[val_ids]))
            if val_acc > best_val:
                best_val = val_acc
                best = {k: v.copy() for k, v in params.items()}
    if not val_ids.size:
        warnings.warn("empty validation split; using the last-epoch model", stacklevel=2)
        best, best_val = params, None
    model = ClassifierModel(
        w1=best["w1"], w2=best["w2"], mode=mode, alpha=alpha, beta=beta, val_accuracy=best_val
    )
    if not split.test:
        return model, float("nan")
    test_ids = np.asarray(split.test, dtype=np.int64)
    logits = _labelled_forward(q[test_ids], test_ids, qh0, model.w1, model.w2, prop)[2]
    return model, accuracy(np.argmax(logits, axis=1), labels, test_ids)
