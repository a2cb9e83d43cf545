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
ACTIVATIONS = ("relu", "linear")


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
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    return relu(z) if activation == "relu" else z


def shuffle_features(features: np.ndarray, seed: int) -> np.ndarray:
    """Row permutation of the feature matrix (negative-sample construction)."""
    n = features.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes to shuffle features")
    perm = make_rng(seed).permutation(n)
    return features[perm]


def _view_delta(ax_base: np.ndarray, ax_view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the rows where a view's A_hat X differs from the base's,
    and those rows of the view."""
    rows = np.flatnonzero((ax_view != ax_base).any(axis=1))
    return rows, ax_view[rows]


def _contrastive_epoch(
    ax_base: np.ndarray,
    ax_shuf: np.ndarray,
    ax_views: list[np.ndarray],
    activation: str,
    hidden: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[float, dict[str, np.ndarray]]]:
    """Contrastive BCE loss and its gradients as a function of (w_enc, w_disc),
    for fixed precomputed A_hat X products.

    A view differs from the base graph in a few edges (a recovery view adds
    back some of the removed ones), so its A_hat X differs from ``ax_base``
    only in the rows those edges renormalize. Each view is kept as those
    changed rows; its other rows are bit-equal to the base rows, so their
    activations and ReLU masks are the base's. An epoch then takes four
    N x d x h products (forward and backward through the base and the
    shuffled features) and one small product per view over its changed rows.

    The working arrays and the boolean ReLU masks are allocated here, once per
    run, and every call overwrites them; the loss and the gradients it returns
    are fresh.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if not ax_views:
        raise ValueError("need at least one view")
    n = ax_base.shape[0]
    m = len(ax_views)
    scale = 1.0 / (2.0 * n * m)
    # unchanged[j, i] is 1 when row i of view j equals the base row.
    unchanged = np.ones((m, n))
    ax_changed = []
    for j, ax in enumerate(ax_views):
        rows, ax_rows = _view_delta(ax_base, ax)
        unchanged[j, rows] = 0.0
        ax_changed.append(ax_rows)
    h_pos, h_neg, work, grad = (np.empty((n, hidden)) for _ in range(4))
    h_changed = [np.empty((len(ax), hidden)) for ax in ax_changed]
    # The linear activation has no mask: its gradient factor is exactly 1.
    masks = [
        np.empty(h.shape, dtype=bool) if activation == "relu" else None
        for h in (h_pos, h_neg, *h_changed)
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
        sums = unchanged @ h_pos  # M x h column sums of each view's activations
        for j in range(m):
            sums[j] += forward(ax_changed[j], w_enc, h_changed[j], masks[2 + j]).sum(axis=0)
        summaries = sigmoid(sums / n)  # the readout: sigmoid of each view's mean

        ws = w_disc @ summaries.T  # h x M
        logits_pos = h_pos @ ws  # N x M
        logits_neg = h_neg @ ws
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
        # Every row of view j's activation gradient is d_view[j].
        d_view = d_summ * summaries * (1 - summaries) / n

        # The views' unchanged rows share the base rows' A_hat X and mask.
        np.matmul(g_pos, sw, out=grad)
        np.add(grad, np.matmul(unchanged.T, d_view, out=work), out=grad)
        d_we = backward(ax_base, grad, masks[0])
        d_we += backward(ax_shuf, np.matmul(g_neg, sw, out=grad), masks[1])
        for j in range(m):
            h_changed[j][...] = d_view[j]
            d_we += backward(ax_changed[j], h_changed[j], masks[2 + j])

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
    del ax_views  # the epoch keeps only each view's changed rows
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
