"""Verification metrics over matched/unmatched distance sets.

The decision rule everywhere is "same person iff distance < threshold".
All metrics use exact counting over observed distances (no interpolation):
the ROC enumerates every distinct distance plus -inf/+inf sentinels, AUC is
the trapezoidal area under that exact curve, and the operating-point picker
chooses the largest threshold whose false-positive rate stays at or below
the target — a conservative choice, the achieved FPR never exceeds the
target.  Everything is a few sorts and searchsorted passes, so a million
unmatched distances are no problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MetricError(ValueError):
    """Empty inputs or malformed metric arguments."""


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass
class RocCurve:
    points: list[RocPoint]

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([p.threshold for p in self.points])

    @property
    def fprs(self) -> np.ndarray:
        return np.array([p.fpr for p in self.points])

    @property
    def tprs(self) -> np.ndarray:
        return np.array([p.tpr for p in self.points])


@dataclass
class VerificationReport:
    accuracy: float
    accuracy_threshold: float
    auc: float
    tpr_points: list[tuple[float, float, float, float]]  # target, thr, fpr, tpr
    n_matched: int
    n_unmatched: int
    curve: RocCurve


def _clean(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise MetricError(f"{name} distances must be nonempty")
    if not np.isfinite(arr).all():
        raise MetricError(f"{name} distances must be finite, got "
                          f"{float(arr[~np.isfinite(arr)][0])!r}")
    return arr


def compute_roc(matched, unmatched) -> RocCurve:
    """Operating points at every distinct observed distance plus sentinels."""
    m = np.sort(_clean("matched", matched))
    u = np.sort(_clean("unmatched", unmatched))
    thresholds = np.concatenate(
        ([-np.inf], np.unique(np.concatenate((m, u))), [np.inf]))
    tpr = np.searchsorted(m, thresholds, side="left") / m.size
    fpr = np.searchsorted(u, thresholds, side="left") / u.size
    return RocCurve([RocPoint(float(t), float(f), float(r))
                     for t, f, r in zip(thresholds, fpr, tpr)])


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the exact ROC, over FPR in [0, 1]."""
    return float(np.trapezoid(curve.tprs, curve.fprs))


def tpr_at_fpr(matched, unmatched,
               target_fpr: float) -> tuple[float, float, float]:
    """(threshold, achieved FPR, TPR) at the largest threshold whose FPR
    does not exceed the target.

    The threshold is calibrated on the unmatched distances alone (sorted
    once), mirroring the protocol of setting an access-control operating
    point from a large impostor set and then testing the genuine pairs.
    """
    if not 0.0 <= target_fpr < 1.0:
        raise MetricError(f"target FPR must be in [0, 1), got {target_fpr}")
    m = np.sort(_clean("matched", matched))
    u = np.sort(_clean("unmatched", unmatched))
    allowed = int(np.floor(target_fpr * u.size))
    threshold = float(u[allowed])
    achieved = float(np.searchsorted(u, threshold, side="left") / u.size)
    tpr = float(np.searchsorted(m, threshold, side="left") / m.size)
    return threshold, achieved, tpr


def best_accuracy(matched, unmatched) -> tuple[float, float]:
    """Exhaustive threshold sweep maximizing (TP + TN) / (P + N).

    Candidates are all distinct observed distances plus sentinels; ties
    break toward the smaller threshold.
    """
    m = np.sort(_clean("matched", matched))
    u = np.sort(_clean("unmatched", unmatched))
    candidates = np.concatenate(
        ([-np.inf], np.unique(np.concatenate((m, u))), [np.inf]))
    tp = np.searchsorted(m, candidates, side="left")
    tn = u.size - np.searchsorted(u, candidates, side="left")
    accuracy = (tp + tn) / (m.size + u.size)
    best = int(np.argmax(accuracy))  # first max -> smallest threshold
    return float(candidates[best]), float(accuracy[best])


def evaluate_distances(matched, unmatched,
                       fpr_targets=(0.1, 0.01, 0.001)) -> VerificationReport:
    """Bundle every metric for one matched/unmatched distance split."""
    m = _clean("matched", matched)
    u = _clean("unmatched", unmatched)
    curve = compute_roc(m, u)
    threshold, acc = best_accuracy(m, u)
    rows = []
    for target in fpr_targets:
        thr, achieved, tpr = tpr_at_fpr(m, u, target)
        rows.append((float(target), thr, achieved, tpr))
    return VerificationReport(
        accuracy=acc, accuracy_threshold=threshold, auc=auc(curve),
        tpr_points=rows, n_matched=int(m.size), n_unmatched=int(u.size),
        curve=curve)
