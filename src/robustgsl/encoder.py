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
import scipy.sparse as sp

from .graph import SparseGraph, renormalized_adjacency
from .linalg import BLOCK_BYTES, NumericError, adam_init, adam_step, glorot, make_rng, relu, sigmoid
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


def shuffle_permutation(n: int, seed: int) -> np.ndarray:
    """The row permutation of the negative samples: row i of the shuffled
    features is row perm[i] of the features."""
    if n < 2:
        raise ValueError("need at least two nodes to shuffle features")
    return make_rng(seed).permutation(n)


def shuffle_features(features: np.ndarray, seed: int) -> np.ndarray:
    """Row permutation of the feature matrix (negative-sample construction)."""
    return features[shuffle_permutation(features.shape[0], seed)]


def _relabelled_columns(a: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """a with column l renamed perm[l], its entries left in their order.

    Its product with X equals ``a @ X[perm]`` bit for bit: row i sums the
    same terms a[i, l] * X[perm[l]] in the same order. So the shuffled rows
    need no N x d copy of the features."""
    return sp.csr_matrix((a.data, perm.astype(a.indices.dtype)[a.indices], a.indptr), shape=a.shape)


def _step(width: int) -> int:
    """Rows of the given width in one block of BLOCK_BYTES, and at least one."""
    return max(1, BLOCK_BYTES // (8 * max(width, 1)))


def _changed_rows(a_view: sp.csr_matrix, a_base: sp.csr_matrix, features: np.ndarray) -> np.ndarray:
    """The indices of the rows where a_view @ features differs from
    a_base @ features, computed one block of rows at a time.

    Only the rows where the two sparse matrices differ are multiplied: an
    equal row sums the same terms in the same order, so its products are
    bit-equal. A differing row is still dropped when its products are equal,
    as when the features are zero on the neighbours whose weights changed."""
    candidates = np.flatnonzero((a_view != a_base).getnnz(axis=1))
    step = _step(features.shape[1])
    kept = [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(candidates), step):
        rows = candidates[lo : lo + step]
        kept.append(rows[(a_view[rows] @ features != a_base[rows] @ features).any(axis=1)])
    return np.concatenate(kept)


def _write_product(out: np.ndarray, a: sp.csr_matrix, x: np.ndarray) -> None:
    """out[:] = a @ x, one block of BLOCK_BYTES of rows at a time. Each row
    of a sparse product is summed on its own, so the blocks give the bits of
    the whole product."""
    step = _step(x.shape[1])
    for lo in range(0, len(out), step):
        out[lo : lo + step] = a[lo : lo + step] @ x


def _stacked_operand(
    a_base: sp.csr_matrix, views, features: np.ndarray, negatives: np.ndarray, perm: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The R x d operand of _contrastive_epoch, and each view's changed rows.

    Its rows are A_hat X, then the shuffled rows A_hat (negatives[perm]),
    then, view by view, the rows of the view's A_hat X that differ from the
    base's; R = 2N + sum_j |C_j|. A first pass finds each view's changed
    rows C_j (_changed_rows) and keeps those rows of its A_hat. The operand is
    then allocated once, and every row is written straight into it by
    _write_product, so the working set is the operand, one block and a few
    sparse matrices. The shuffled rows come from A_hat with its columns
    relabelled by perm (_relabelled_columns), with no permuted copy of
    ``negatives``."""
    n, d = features.shape
    changed, a_rows = [], []
    for view in views:
        a_view = renormalized_adjacency(view)
        rows = _changed_rows(a_view, a_base, features)
        changed.append(rows)
        a_rows.append(a_view[rows])
    if not changed:
        raise ValueError("need at least one view")
    operand = np.empty((2 * n + sum(map(len, changed)), d))
    _write_product(operand[:n], a_base, features)
    _write_product(operand[n : 2 * n], _relabelled_columns(a_base, perm), negatives)
    start = 2 * n
    for a in a_rows:
        _write_product(operand[start : start + a.shape[0]], a, features)
        start += a.shape[0]
    return operand, changed


def _contrastive_epoch(
    operand: np.ndarray,
    changed: list[np.ndarray],
    activation: str,
    hidden: int,
) -> Callable[[np.ndarray, np.ndarray], tuple[float, dict[str, np.ndarray]]]:
    """Contrastive BCE loss and its gradients as a function of (w_enc, w_disc),
    on a fixed stacked operand of A_hat X products.

    A view differs from the base graph in a few edges (a recovery view adds
    back some of the removed ones), so its A_hat X differs from the base's
    only in the rows those edges renormalize (about 5 % at n=3000 with
    recovery views). Each view j is kept as those changed rows C_j; its other
    rows are bit-equal to the base rows, so their activations and ReLU masks
    are the base's.

    ``operand`` (R x d, see _stacked_operand) holds the base rows, the
    shuffled rows and then every view's changed rows, in the order of
    ``changed``; so N = (R - sum_j |C_j|) / 2. An epoch takes one forward
    product of it into one R x h activation buffer and one backward product
    ``operand.T @ rows``. The gradient rows come from one R x 2M by 2M x h
    product: its left columns are the discriminator's logit gradients of the
    base and shuffled rows, and the fixed indicators of which rows make up
    each view; its right rows are ``w_disc @ s_j`` and each view's readout
    gradient.

    These sums run in another order than the per-view oracle of the tests,
    and agree with it to 1e-12 of the largest entry. The loss keeps the
    oracle's log of the clipped p and 1 - q: a log-sigmoid form drifts past
    that tolerance (1.7e-12 to 7.4e-12 on the reference test's instances),
    as the oracle's own log(1 - q) loses digits when q nears 1.

    The R x h activations, the R x h ReLU mask and the R x 2M ``left`` are
    allocated here, once per run, and live as long as the returned function;
    every call overwrites them, and the loss and the gradients it returns
    are fresh. The function carries the operand's base rows as ``ax_base``.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    m = len(changed)
    r = operand.shape[0]
    n = (r - sum(map(len, changed))) // 2
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
    base: SparseGraph,
    views,
    features: np.ndarray,
    negatives: np.ndarray,
    perm: np.ndarray,
    activation: str,
    hidden: int,
):
    """_contrastive_epoch on the operand that _stacked_operand builds from the
    base graph, the views and the shuffled rows A_hat (negatives[perm]).

    The base graph's A_hat is an argument temporary of _stacked_operand, so
    it is freed with the build's other locals (the views' A_hat rows and the
    relabelled A_hat) when the build returns, before _contrastive_epoch
    allocates its buffers: then only the operand, ``features`` and
    ``negatives`` (the caller's) are alive. The operand then lives as long as
    the returned function."""
    operand, changed = _stacked_operand(renormalized_adjacency(base), views, features, negatives, perm)
    return _contrastive_epoch(operand, changed, activation, hidden)


def contrastive_loss(
    model: EncoderModel,
    g_base: SparseGraph,
    views: list[SparseGraph],
    features: np.ndarray,
    shuffled: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Binary cross-entropy contrast between positive and negative pairs."""
    epoch = _graph_epoch(
        g_base, views, features, shuffled, np.arange(len(shuffled)), model.activation, model.w_enc.shape[1]
    )
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

    What is alive when, beside ``features``: while the operand is built, the
    operand, one block and a few sparse matrices (_stacked_operand); the
    negatives are ``features`` under a permutation, and no shuffled copy is
    made. While training, the epoch's buffers: the operand, the R x h
    activations and mask, and the R x 2M ``left``. The epoch function, and
    with it those buffers, is dropped before z and the embeddings are
    computed from the operand's base rows.
    """
    rng = make_rng(seed)
    model = init_encoder(features.shape[1], config, rng)
    params = {"w_enc": model.w_enc, "w_disc": model.w_disc}
    # The best weights outlive this call, so they are allocated once, before
    # the operand, and overwritten in place. Copies made during training
    # could land among the epoch's buffers and split the memory those free
    # into pieces that later large arrays (top-k's cosine block) cannot reuse.
    best = {k: v.copy() for k, v in params.items()}

    perm = shuffle_permutation(features.shape[0], int(rng.integers(2 ** 63)))
    loss_and_grads = _graph_epoch(
        bundle.base, bundle.views, features, features, perm, config.activation, config.hidden
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

    ax_base = loss_and_grads.ax_base
    del loss_and_grads  # frees the activations, the mask and left
    model = EncoderModel(w_enc=best["w_enc"], w_disc=best["w_disc"], activation=config.activation)
    z = ax_base @ model.w_enc
    return model, relu(z) if model.activation == "relu" else z, z
