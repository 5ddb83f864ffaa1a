"""The pair loss scored one pair at a time, in plain scalar arithmetic.

`pyrcnn.loss.pair_loss_grads` scores whole batches; these functions are the
per-pair reference the tests hold it to.
"""

import numpy as np

from pyrcnn.loss import ComparatorParams, PairLabel


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
