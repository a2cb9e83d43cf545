"""One-layer GCN encoder trained by local/global mutual-information contrast.

Positive pairs couple node embeddings on the pre-processed graph with view
summaries; negatives come from row-shuffled features. Gradients for both the
encoder weight and the bilinear discriminator are derived by hand and gated
by finite-difference checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

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
    ax_views: Iterable[np.ndarray],
    activation: str,
    hidden: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[float, dict[str, np.ndarray]]]:
    """Contrastive BCE loss and its gradients as a function of (w_enc, w_disc),
    for fixed precomputed A_hat X products.

    A view differs from the base graph in a few edges (a recovery view adds
    back some of the removed ones), so its A_hat X differs from ``ax_base``
    only in the rows those edges renormalize. Each view is kept as those
    changed rows; its other rows are bit-equal to the base rows, so their
    activations and ReLU masks are the base's. ``ax_views`` is consumed one
    product at a time, so a generator keeps a single view product alive.

    Once per run, the base rows, the shuffled rows and every view's changed
    rows are stacked into one R x d operand, R = 2N + sum_j |C_j|. An epoch
    takes one forward product of it into one R x h activation buffer and one
    backward product ``operand.T @ rows``. The gradient rows come from one
    R x 2M by 2M x h product: its left columns are the discriminator's
    logit gradients of the base and shuffled rows, and the fixed indicators
    of which rows make up each view; its right rows are ``w_disc @ s_j`` and
    each view's readout gradient.

    The working arrays are allocated here, once per run, and every call
    overwrites them; the loss and the gradients it returns are fresh. The
    returned function carries the operand's base rows as ``ax_base``, so a
    caller can drop its own copy.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    n = ax_base.shape[0]
    changed, ax_changed = [], []
    for ax in ax_views:
        rows, ax_rows = _view_delta(ax_base, ax)
        del ax  # free this product before the next one is computed
        changed.append(rows)
        ax_changed.append(ax_rows)
    m = len(changed)
    if not m:
        raise ValueError("need at least one view")
    operand = np.concatenate((ax_base, ax_shuf, *ax_changed))
    del ax_changed
    r = operand.shape[0]
    scale = 1.0 / (2.0 * n * m)
    # left[:2N, :M] takes each epoch's logit gradients. Column M + j, fixed for
    # the run, marks the operand rows that make up view j: the base rows it
    # shares, then its own changed rows.
    left = np.zeros((r, 2 * m))
    start = 2 * n
    for j, rows in enumerate(changed):
        left[:n, m + j] = 1.0
        left[rows, m + j] = 0.0
        left[start : start + len(rows), m + j] = 1.0
        start += len(rows)
    selector = left[:, m:].T
    right = np.empty((2 * m, hidden))
    act = np.empty((r, hidden))
    # The linear activation has no mask: its gradient factor is exactly 1.
    mask = np.empty((r, hidden), dtype=bool) if activation == "relu" else None

    def loss_and_grads(w_enc: np.ndarray, w_disc: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        np.matmul(operand, w_enc, out=act)
        if mask is not None:
            np.greater(act, 0.0, out=mask)
            np.maximum(act, 0.0, out=act)
        summaries = sigmoid(selector @ act / n)  # the readout: sigmoid of each view's mean

        h = act[: 2 * n]  # the base rows, then the shuffled rows
        probs = sigmoid(h @ (w_disc @ summaries.T))  # 2N x M
        p, q = probs[:n], probs[n:]
        pc = np.clip(p, PROB_CLIP, 1 - PROB_CLIP)
        qc = np.clip(q, PROB_CLIP, 1 - PROB_CLIP)
        loss = -scale * (np.log(pc).sum() + np.log(1 - qc).sum())

        # Gradient w.r.t. the discriminator logits; zero where the clip is active.
        g = left[: 2 * n, :m]
        g[:n] = -scale * (p * (1 - p) / pc) * (p == pc)
        g[n:] = scale * (q * (1 - q) / (1 - qc)) * (q == qc)
        pg = h.T @ g  # hidden x M, shared by both discriminator gradients
        d_wd = pg @ summaries
        # Every row of view j's activation gradient is right[M + j].
        right[:m] = summaries @ w_disc.T  # row j is w_disc @ s_j
        right[m:] = (pg.T @ w_disc) * summaries * (1 - summaries) / n

        np.matmul(left, right, out=act)
        if mask is not None:
            np.multiply(act, mask, out=act)
        return float(loss), {"w_enc": operand.T @ act, "w_disc": d_wd}

    loss_and_grads.ax_base = operand[:n]
    return loss_and_grads


def _graph_epoch(
    base: SparseGraph, views, features: np.ndarray, shuffled: np.ndarray, activation: str, hidden: int
):
    """_contrastive_epoch on the A_hat X products of the base graph, of the shuffled
    features on it and of every view. ``shuffled`` is dropped once its product is
    made: on CPython 3.11+ a temporary argument is then freed before any view's."""
    a_base = renormalized_adjacency(base)
    ax_base = spmm(a_base, features)
    ax_shuf = spmm(a_base, shuffled)
    del shuffled
    ax_views = (spmm(renormalized_adjacency(v), features) for v in views)
    return _contrastive_epoch(ax_base, ax_shuf, ax_views, activation, hidden)


def contrastive_loss(
    model: EncoderModel,
    g_base: SparseGraph,
    views: list[SparseGraph],
    features: np.ndarray,
    shuffled: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy contrast between positive and negative pairs."""
    epoch = _graph_epoch(g_base, views, features, shuffled, model.activation, model.w_enc.shape[1])
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

    loss_and_grads = _graph_epoch(
        bundle.base, bundle.views, features, shuffle_features(features, int(rng.integers(2 ** 63))),
        config.activation, config.hidden,
    )
    state = adam_init(params, config.lr)
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
    z = loss_and_grads.ax_base @ model.w_enc
    return model, relu(z) if model.activation == "relu" else z, z
