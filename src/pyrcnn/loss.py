"""Pairwise verification objective: distance, comparator, loss, gradients.

A pair of feature vectors is scored by D = alpha * d(v1, v2) - beta with
alpha = exp(log_alpha) kept positive by construction, and penalized by
softplus(delta * D) where delta is +1 for matched pairs and -1 for
unmatched ones.  Minimizing the loss therefore pulls matched features
together and pushes unmatched ones apart.

Training calls only `pair_loss_grads`, on whole batches.  The scalar
functions `distance`, `comparator`, `logistic` and `pair_loss` score one
pair at a time: the reference `pair_loss_grads` is tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class PairLabel(enum.IntEnum):
    MATCHED = 1
    UNMATCHED = -1


@dataclass
class ComparatorParams:
    """Trainable affine comparator; alpha is stored as its logarithm."""

    log_alpha: float = 0.0
    beta: float = 1.0

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))


@dataclass
class PairGradients:
    """Floats and (m,) vectors for one pair; (n,) and (n, m) arrays for n."""

    loss: float
    grad_v1: np.ndarray
    grad_v2: np.ndarray
    grad_log_alpha: float
    grad_beta: float


def distance(v1, v2) -> float:
    """Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(v1, dtype=np.float64).reshape(-1)
    b = np.asarray(v2, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(
            f"feature lengths differ: {a.shape[0]} vs {b.shape[0]}"
        )
    return float(np.sqrt(np.sum((a - b) ** 2)))


def comparator(dist: float, params: ComparatorParams) -> float:
    """Match logit D = exp(log_alpha) * dist - beta."""
    return params.alpha * dist - params.beta


def logistic(x: float) -> float:
    # overflow-safe in both tails
    if x >= 0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def pair_loss(D: float, label: PairLabel) -> float:
    """softplus(delta * D), computed as max(x,0) + log1p(exp(-|x|))."""
    x = float(label) * D
    return max(x, 0.0) + float(np.log1p(np.exp(-abs(x))))


def pair_loss_grads(v1, v2, label, params: ComparatorParams) -> PairGradients:
    """Loss value plus analytic gradients w.r.t. both features and (log_alpha, beta).

    `v1` and `v2` are one pair of feature vectors with a PairLabel, or
    (n, m) rows of n pairs with an (n,) vector of labels; rows give (n,)
    losses and comparator gradients and (n, m) feature gradients, each row
    the bits of the pair scored alone.  At d == 0 the Euclidean norm is not
    differentiable; the feature gradient is defined as zero there
    (subgradient choice).
    """
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    single = a.ndim < 2 and b.ndim < 2
    if single:
        a, b = a.reshape(1, -1), b.reshape(1, -1)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"features must be two vectors or two (n, m) row "
                         f"arrays of one shape, got shapes {np.shape(v1)} "
                         f"and {np.shape(v2)}")
    delta = np.asarray(label, dtype=np.float64).reshape(-1)
    if delta.shape != (a.shape[0],):
        raise ValueError(f"need {a.shape[0]} labels, got {delta.size}")
    diff = a - b
    d = np.sqrt(np.sum(diff ** 2, axis=1))
    alpha = params.alpha
    x = delta * (alpha * d - params.beta)
    # logistic(x) and softplus(x), both from exp(-|x|), safe in both tails
    e = np.exp(-np.abs(x))
    dL_dD = delta * np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    moved = d > 0.0
    unit = np.divide(diff, d[:, None], out=np.zeros_like(diff),
                     where=moved[:, None])
    grad_v1 = (dL_dD * alpha)[:, None] * unit
    grad_v1[~moved] = 0.0  # +0.0, where the product above may be -0.0
    g = PairGradients(
        loss=np.maximum(x, 0.0) + np.log1p(e),
        grad_v1=grad_v1,
        grad_v2=-grad_v1,
        grad_log_alpha=dL_dD * d * alpha,
        grad_beta=-dL_dD,
    )
    if single:
        return PairGradients(float(g.loss[0]), g.grad_v1[0], g.grad_v2[0],
                             float(g.grad_log_alpha[0]),
                             float(g.grad_beta[0]))
    return g
