"""One-layer GCN encoder trained by local/global mutual-information contrast.

Positive pairs couple node embeddings on the pre-processed graph with view
summaries; negatives come from row-shuffled features. Gradients for both the
encoder weight and the bilinear discriminator are derived by hand and gated
by finite-difference checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def _contrastive_epoch(
    ax_base: np.ndarray,
    ax_shuf: np.ndarray,
    ax_views: list[np.ndarray],
    activation: str,
    hidden: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[float, dict[str, np.ndarray]]]:
    """Contrastive BCE loss and its gradients as a function of (w_enc, w_disc),
    for fixed precomputed A_hat X products.

    The N x hidden working arrays and the boolean ReLU masks are allocated
    here, once per run, and every call overwrites them; the loss and the
    gradients it returns are fresh. Each call takes the same floating-point
    operations in the same order as the plain expression, so its results do
    not depend on the buffers.
    """
    if activation not in ("relu", "linear"):
        raise ValueError(f"unknown activation {activation!r}")
    if not ax_views:
        raise ValueError("need at least one view")
    n = ax_base.shape[0]
    m = len(ax_views)
    scale = 1.0 / (2.0 * n * m)
    h_pos, h_neg, work, grad = (np.empty((n, hidden)) for _ in range(4))
    # The linear activation has no mask: its gradient factor is exactly 1.
    masks = [
        np.empty((n, hidden), dtype=bool) if activation == "relu" else None for _ in range(2 + m)
    ]

    def forward(ax, w_enc, out, mask):
        np.matmul(ax, w_enc, out=out)
        if mask is not None:
            np.greater(out, 0.0, out=mask)
            np.maximum(out, 0.0, out=out)
        return out

    def backward(ax, out, mask):
        """ax.T @ (out * mask): the gradient's contribution through one graph."""
        if mask is not None:
            np.multiply(out, mask, out=out)
        return ax.T @ out

    def loss_and_grads(w_enc: np.ndarray, w_disc: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        forward(ax_base, w_enc, h_pos, masks[0])
        forward(ax_shuf, w_enc, h_neg, masks[1])
        # One buffer serves every view: only its readout and its mask are kept.
        summaries = np.stack(
            [readout(forward(ax, w_enc, work, masks[2 + j])) for j, ax in enumerate(ax_views)]
        )  # M x h

        logits_pos = np.matmul(h_pos, w_disc, out=work) @ summaries.T  # N x M
        logits_neg = np.matmul(h_neg, w_disc, out=work) @ summaries.T
        p = sigmoid(logits_pos)
        q = sigmoid(logits_neg)
        pc = np.clip(p, PROB_CLIP, 1 - PROB_CLIP)
        qc = np.clip(q, PROB_CLIP, 1 - PROB_CLIP)
        loss = -scale * (np.log(pc).sum() + np.log(1 - qc).sum())

        # Gradient w.r.t. the discriminator logits; zero where the clip is active.
        g_pos = -scale * (p * (1 - p) / pc) * (p == pc)
        g_neg = scale * (q * (1 - q) / (1 - qc)) * (q == qc)

        d_wd = h_pos.T @ g_pos @ summaries + h_neg.T @ g_neg @ summaries
        sw = summaries @ w_disc.T  # row j is w_disc @ s_j
        d_summ = g_pos.T @ h_pos @ w_disc + g_neg.T @ h_neg @ w_disc  # M x h

        d_we = backward(ax_base, np.matmul(g_pos, sw, out=grad), masks[0])
        d_we += backward(ax_shuf, np.matmul(g_neg, sw, out=grad), masks[1])
        d_means = d_summ * summaries * (1 - summaries)
        for j in range(m):
            grad[...] = d_means[j] / n  # every row of the view's gradient
            d_we += backward(ax_views[j], grad, masks[2 + j])

        return float(loss), {"w_enc": d_we, "w_disc": d_wd}

    return loss_and_grads


def contrastive_loss(
    model: EncoderModel,
    g_base: SparseGraph,
    views: list[SparseGraph],
    features: np.ndarray,
    shuffled: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy contrast between positive and negative pairs."""
    a_base = renormalized_adjacency(g_base)
    ax_base = spmm(a_base, features)
    ax_shuf = spmm(a_base, shuffled)
    ax_views = [spmm(renormalized_adjacency(v), features) for v in views]
    epoch = _contrastive_epoch(ax_base, ax_shuf, ax_views, model.activation, model.w_enc.shape[1])
    return epoch(model.w_enc, model.w_disc)


def train_encoder(
    bundle: ViewBundle,
    features: np.ndarray,
    config: EncoderConfig,
    seed: int,
) -> tuple[EncoderModel, np.ndarray, np.ndarray]:
    """Adam loop on the contrastive loss with patience-based early stopping.

    Returns the best-loss model, its embeddings on the base graph and their
    pre-activation A_hat X W. The pre-activation takes both signs, so cosines
    between its rows span [-1, 1]; the refinement thresholds are set on that
    scale.
    """
    rng = make_rng(seed)
    model = init_encoder(features.shape[1], config, rng)
    params = {"w_enc": model.w_enc, "w_disc": model.w_disc}
    # The best weights outlive this call, so they are allocated once, before
    # the N x d products, and overwritten in place. Copies made during
    # training could land among the products and split the memory those free
    # into pieces that later large arrays (top-k's cosine block) cannot reuse.
    best = {k: v.copy() for k, v in params.items()}

    a_base = renormalized_adjacency(bundle.base)
    ax_base = spmm(a_base, features)
    ax_views = [spmm(renormalized_adjacency(v), features) for v in bundle.views]
    ax_shuf = spmm(a_base, shuffle_features(features, int(rng.integers(2 ** 63))))

    state = adam_init(params, config.lr)
    loss_and_grads = _contrastive_epoch(ax_base, ax_shuf, ax_views, config.activation, config.hidden)
    best_loss = np.inf
    stale = 0
    for epoch in range(config.epochs):
        loss, grads = loss_and_grads(params["w_enc"], params["w_disc"])
        if not np.isfinite(loss):
            raise NumericError(f"contrastive loss diverged at epoch {epoch}")
        if loss < best_loss - 1e-9:
            best_loss = loss
            for k, v in params.items():
                np.copyto(best[k], v)
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        params = adam_step(params, grads, state)

    model = EncoderModel(w_enc=best["w_enc"], w_disc=best["w_disc"], activation=config.activation)
    z = ax_base @ model.w_enc
    return model, _activate(z, model.activation), z
