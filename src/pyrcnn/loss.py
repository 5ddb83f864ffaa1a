"""Pairwise verification objective: the pair loss and its gradients.

A pair of feature vectors is scored by D = alpha * d(v1, v2) - beta with
alpha = exp(log_alpha) kept positive by construction, and penalized by
softplus(delta * D) where delta is +1 for matched pairs and -1 for
unmatched ones.  Minimizing the loss therefore pulls matched features
together and pushes unmatched ones apart.

`pair_loss_grads` is the one entry: it scores (n, m) rows of n pairs at
once, each row the bits of the pair scored alone.
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
    """(n,) losses and comparator gradients, (n, m) feature gradients."""

    loss: np.ndarray
    grad_v1: np.ndarray
    grad_v2: np.ndarray
    grad_log_alpha: np.ndarray
    grad_beta: np.ndarray


def pair_loss_grads(v1, v2, label, params: ComparatorParams) -> PairGradients:
    """Loss value plus analytic gradients w.r.t. both features and (log_alpha, beta).

    `v1` and `v2` are (n, m) rows of n pairs with an (n,) vector of labels
    (PairLabel values); they give (n,) losses and comparator gradients and
    (n, m) feature gradients, each row the bits of the pair scored alone.
    At d == 0 the Euclidean norm is not differentiable; the feature
    gradient is defined as zero there (subgradient choice).
    """
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"features must be two (n, m) row arrays of one "
                         f"shape, got shapes {np.shape(v1)} and "
                         f"{np.shape(v2)}")
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
    return PairGradients(
        loss=np.maximum(x, 0.0) + np.log1p(e),
        grad_v1=grad_v1,
        grad_v2=-grad_v1,
        grad_log_alpha=dL_dD * d * alpha,
        grad_beta=-dL_dD,
    )
