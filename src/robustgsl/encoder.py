"""One-layer GCN encoder trained by local/global mutual-information contrast.

Positive pairs couple node embeddings on the pre-processed graph with view
summaries; negatives come from row-shuffled features. Gradients for both the
encoder weight and the bilinear discriminator are derived by hand and gated
by finite-difference checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import SparseGraph, renormalized_adjacency
from .linalg import NumericError, adam_init, adam_step, glorot, make_rng, relu, sigmoid, spmm
from .preprocess import ViewBundle

PROB_CLIP = 1e-7


@dataclass
class EncoderModel:
    w_enc: np.ndarray  # d x h
    w_disc: np.ndarray  # h x h
    activation: str = "relu"


@dataclass
class EncoderConfig:
    hidden: int = 64
    lr: float = 1e-3
    epochs: int = 500
    patience: int = 20
    activation: str = "relu"


def init_encoder(dim: int, config: EncoderConfig, rng: np.random.Generator) -> EncoderModel:
    return EncoderModel(
        w_enc=glorot(dim, config.hidden, rng),
        w_disc=glorot(config.hidden, config.hidden, rng),
        activation=config.activation,
    )


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return relu(z)
    if activation == "linear":
        return z
    raise ValueError(f"unknown activation {activation!r}")


def _activate_grad_mask(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0).astype(float)
    if activation == "linear":
        return np.ones_like(z)
    raise ValueError(f"unknown activation {activation!r}")


def preactivation(model: EncoderModel, features: np.ndarray, g: SparseGraph) -> np.ndarray:
    """Pre-activation A_hat X W on the given graph.

    Its entries take both signs, so cosines between its rows span [-1, 1]; the
    refinement thresholds are set on that scale.
    """
    if features.shape[1] != model.w_enc.shape[0]:
        raise ValueError(
            f"feature dim {features.shape[1]} != encoder input dim {model.w_enc.shape[0]}"
        )
    return spmm(renormalized_adjacency(g), features) @ model.w_enc


def encode(model: EncoderModel, features: np.ndarray, g: SparseGraph) -> np.ndarray:
    """Node embeddings act(A_hat X W) on the given graph."""
    return _activate(preactivation(model, features, g), model.activation)


def readout(h_view: np.ndarray) -> np.ndarray:
    """Logistic sigmoid of the column-wise mean; permutation invariant."""
    return sigmoid(h_view.mean(axis=0))


def shuffle_features(features: np.ndarray, seed: int) -> np.ndarray:
    """Row permutation of the feature matrix (negative-sample construction)."""
    n = features.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes to shuffle features")
    perm = make_rng(seed).permutation(n)
    return features[perm]


def _loss_and_grads(
    w_enc: np.ndarray,
    w_disc: np.ndarray,
    ax_base: np.ndarray,
    ax_shuf: np.ndarray,
    ax_views: list[np.ndarray],
    activation: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """Contrastive BCE loss and its gradients, from precomputed A_hat X products."""
    n = ax_base.shape[0]
    m = len(ax_views)

    z_pos = ax_base @ w_enc
    h_pos = _activate(z_pos, activation)
    z_neg = ax_shuf @ w_enc
    h_neg = _activate(z_neg, activation)

    z_views = [ax @ w_enc for ax in ax_views]
    h_views = [_activate(z, activation) for z in z_views]
    means = np.stack([h.mean(axis=0) for h in h_views])  # M x h
    summaries = sigmoid(means)

    logits_pos = h_pos @ w_disc @ summaries.T  # N x M
    logits_neg = h_neg @ w_disc @ summaries.T
    p = sigmoid(logits_pos)
    q = sigmoid(logits_neg)
    pc = np.clip(p, PROB_CLIP, 1 - PROB_CLIP)
    qc = np.clip(q, PROB_CLIP, 1 - PROB_CLIP)
    scale = 1.0 / (2.0 * n * m)
    loss = -scale * (np.log(pc).sum() + np.log(1 - qc).sum())

    # Gradient w.r.t. the discriminator logits; zero where the clip is active.
    g_pos = -scale * (p * (1 - p) / pc) * (p == pc)
    g_neg = scale * (q * (1 - q) / (1 - qc)) * (q == qc)

    d_wd = h_pos.T @ g_pos @ summaries + h_neg.T @ g_neg @ summaries
    sw = summaries @ w_disc.T  # row j is w_disc @ s_j
    d_hpos = g_pos @ sw
    d_hneg = g_neg @ sw
    d_summ = g_pos.T @ h_pos @ w_disc + g_neg.T @ h_neg @ w_disc  # M x h

    d_we = ax_base.T @ (d_hpos * _activate_grad_mask(z_pos, activation))
    d_we += ax_shuf.T @ (d_hneg * _activate_grad_mask(z_neg, activation))
    d_means = d_summ * summaries * (1 - summaries)
    for j in range(m):
        d_hj = np.broadcast_to(d_means[j] / n, h_views[j].shape)
        d_we += ax_views[j].T @ (d_hj * _activate_grad_mask(z_views[j], activation))

    return float(loss), {"w_enc": d_we, "w_disc": d_wd}


def contrastive_loss(
    model: EncoderModel,
    g_base: SparseGraph,
    views: list[SparseGraph],
    features: np.ndarray,
    shuffled: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy contrast between positive and negative pairs."""
    if not views:
        raise ValueError("need at least one view")
    a_base = renormalized_adjacency(g_base)
    ax_base = spmm(a_base, features)
    ax_shuf = spmm(a_base, shuffled)
    ax_views = [spmm(renormalized_adjacency(v), features) for v in views]
    return _loss_and_grads(
        model.w_enc, model.w_disc, ax_base, ax_shuf, ax_views, model.activation
    )


def train_encoder(
    bundle: ViewBundle,
    features: np.ndarray,
    config: EncoderConfig,
    seed: int,
) -> tuple[EncoderModel, np.ndarray, np.ndarray]:
    """Adam loop on the contrastive loss with patience-based early stopping.

    Returns the best-loss model, its embeddings on the base graph and their
    pre-activation A_hat X W (see ``preactivation``).
    """
    rng = make_rng(seed)
    model = init_encoder(features.shape[1], config, rng)

    a_base = renormalized_adjacency(bundle.base)
    ax_base = spmm(a_base, features)
    ax_views = [spmm(renormalized_adjacency(v), features) for v in bundle.views]
    ax_shuf = spmm(a_base, shuffle_features(features, int(rng.integers(2 ** 63))))

    params = {"w_enc": model.w_enc, "w_disc": model.w_disc}
    state = adam_init(params, config.lr)
    best = {k: v.copy() for k, v in params.items()}
    best_loss = np.inf
    stale = 0
    for epoch in range(config.epochs):
        loss, grads = _loss_and_grads(
            params["w_enc"], params["w_disc"], ax_base, ax_shuf, ax_views, config.activation
        )
        if not np.isfinite(loss):
            raise NumericError(f"contrastive loss diverged at epoch {epoch}")
        if loss < best_loss - 1e-9:
            best_loss = loss
            best = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        params = adam_step(params, grads, state)

    model = EncoderModel(w_enc=best["w_enc"], w_disc=best["w_disc"], activation=config.activation)
    z = ax_base @ model.w_enc
    return model, _activate(z, model.activation), z
