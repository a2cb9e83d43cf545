"""Dense kernels, parameter init, Adam, and finite-difference checking.

Everything here is deterministic: random draws go through an explicit
numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """Raised when a computation produces non-finite values."""


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives identical draws on all platforms."""
    return np.random.default_rng(np.random.PCG64(seed))


# Edges per gather in the edge kernels: a block holds two EDGE_BLOCK x d row
# slices (1.6 MB at d=100). Each edge's score is computed on its own, so the
# block size does not change the output.
EDGE_BLOCK = 1024


def edge_cosines(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Cosine of rows u and v of x for each (u, v) row of edges; 0 when
    either row is all zero.

    Bitwise equal to the cosines of ``feature_similarity``: numpy computes
    the matmul of a 1 x d by a d x 1 slice with the same BLAS dot that np.dot
    and np.linalg.norm take on a row.
    """
    norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    out = np.zeros(len(edges))
    for lo in range(0, len(edges), EDGE_BLOCK):
        u, v = edges[lo : lo + EDGE_BLOCK].T
        dots = (x[u][:, None, :] @ x[v][:, :, None])[:, 0, 0]
        nonzero = (norms[u] != 0.0) & (norms[v] != 0.0)
        out[lo : lo + EDGE_BLOCK][nonzero] = dots[nonzero] / (norms[u] * norms[v])[nonzero]
    return out


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init in +/- sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError(f"glorot needs positive dimensions, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below.
    # np.minimum(x, -x) is -|x| except that it passes a NaN on with its sign.
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# Adam's moment decay rates and denominator offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adaptive-moment optimizer state for a named set of parameters."""

    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One Adam update with bias correction; returns fresh parameter arrays.

    The moments are updated in place, with the operations of
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p - (lr*mhat) / (sqrt(vhat)+eps) in that order, so the bits are those of
    the expressions written out.
    """
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r} at step {t}")
        m, v = state.m[name], state.v[name]
        tmp = (1 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += tmp
        np.multiply(1 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        # tmp becomes sqrt(vhat) + eps, the update's denominator.
        np.divide(v, 1 - ADAM_BETA2 ** t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = m / (1 - ADAM_BETA1 ** t)
        update *= state.lr
        update /= tmp
        out[name] = p - update
    return out


def grad_check(loss_and_grad, params: dict[str, np.ndarray], epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_and_grad(params) -> (loss, grads)``; the relative error per entry
    is |analytic - numeric| / max(1, |numeric|).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    loss0, analytic = loss_and_grad(params)
    if not np.isfinite(loss0):
        raise NumericError("loss is not finite at the given parameters")
    worst = 0.0
    for name, p in params.items():
        flat = p.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            lp, _ = loss_and_grad(params)
            flat[idx] = orig - epsilon
            lm, _ = loss_and_grad(params)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * epsilon)
            err = abs(analytic[name].ravel()[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
