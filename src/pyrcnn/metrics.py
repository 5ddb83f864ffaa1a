"""Verification metrics over matched/unmatched distance sets.

The decision rule everywhere is "same person iff distance < threshold".
All metrics use exact counting over observed distances (no interpolation):
the ROC enumerates every distinct distance plus -inf/+inf sentinels, AUC is
the trapezoidal area under that exact curve, and the operating-point picker
chooses the largest threshold whose false-positive rate stays at or below
the target — a conservative choice, the achieved FPR never exceeds the
target.  The best accuracy and the operating points come only in
`evaluate_distances`'s report.

A `RocCurve` is three arrays (thresholds, FPRs, TPRs); its `points` list
of `RocPoint`s is built only when asked for.  `evaluate_distances` sorts
each side once and reads the curve, the best accuracy and every operating
point off the same sorted arrays and threshold counts, so a million
unmatched distances cost a few sorts and searchsorted passes.  A side
that is already a sorted 1-d float64 array is used in place, not copied,
so a caller that sorts its own arrays in place (as `pyrcnn eval` does)
holds each distance once.  The thresholds are the distinct values of each
sorted side, merged by one stable sort of the two runs, not a sort of
their concatenation.
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


@dataclass(eq=False)
class RocCurve:
    """Operating points as arrays: point k is (thresholds[k], fprs[k],
    tprs[k])."""

    thresholds: np.ndarray
    fprs: np.ndarray
    tprs: np.ndarray

    @property
    def points(self) -> list[RocPoint]:
        return [RocPoint(t, f, r) for t, f, r in zip(
            self.thresholds.tolist(), self.fprs.tolist(),
            self.tprs.tolist())]

    def __eq__(self, other):
        if not isinstance(other, RocCurve):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in (
            (self.thresholds, other.thresholds), (self.fprs, other.fprs),
            (self.tprs, other.tprs)))


@dataclass
class VerificationReport:
    accuracy: float
    accuracy_threshold: float
    auc: float
    tpr_points: list[tuple[float, float, float, float]]  # target, thr, fpr, tpr
    n_matched: int
    n_unmatched: int
    curve: RocCurve


def _sorted(name: str, values) -> np.ndarray:
    """`values` as a sorted float array: `values` itself when it is one
    already, else a sorted copy.  Empty or non-finite is an error."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise MetricError(f"{name} distances must be nonempty")
    if not np.isfinite(arr).all():
        raise MetricError(f"{name} distances must be finite, got "
                          f"{float(arr[~np.isfinite(arr)][0])!r}")
    if (arr[1:] >= arr[:-1]).all():
        return arr
    return np.sort(arr)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The first value of each run of equal values of sorted `a`."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _counts(m: np.ndarray, u: np.ndarray):
    """Every distinct distance of sorted `m` and `u` plus sentinels, and
    how many matched and unmatched distances lie below each."""
    thresholds = np.concatenate(
        ([-np.inf], _distinct(m), _distinct(u), [np.inf]))
    thresholds[1:-1].sort(kind="stable")  # two sorted runs: one merge
    thresholds = _distinct(thresholds)
    return (thresholds, np.searchsorted(m, thresholds, side="left"),
            np.searchsorted(u, thresholds, side="left"))


def _operating_point(m: np.ndarray, u: np.ndarray,
                     target_fpr: float) -> tuple[float, float, float]:
    """(threshold, achieved FPR, TPR), the threshold set from the
    unmatched (impostor) distances alone, as an access-control point is."""
    if not 0.0 <= target_fpr < 1.0:
        raise MetricError(f"target FPR must be in [0, 1), got {target_fpr}")
    allowed = int(np.floor(target_fpr * u.size))
    threshold = float(u[allowed])
    achieved = float(np.searchsorted(u, threshold, side="left") / u.size)
    tpr = float(np.searchsorted(m, threshold, side="left") / m.size)
    return threshold, achieved, tpr


def _best(thresholds: np.ndarray, below_m: np.ndarray, below_u: np.ndarray,
          n_m: int, n_u: int) -> tuple[float, float]:
    # accuracy (below_m + n_u - below_u) / (n_m + n_u) is largest where
    # below_m - below_u is; the first max is the smallest threshold
    best = int(np.argmax(below_m - below_u))
    correct = int(below_m[best]) + n_u - int(below_u[best])
    return float(thresholds[best]), correct / (n_m + n_u)


def compute_roc(matched, unmatched) -> RocCurve:
    """Operating points at every distinct observed distance plus sentinels."""
    m, u = _sorted("matched", matched), _sorted("unmatched", unmatched)
    thresholds, below_m, below_u = _counts(m, u)
    return RocCurve(thresholds, below_u / u.size, below_m / m.size)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the exact ROC, over FPR in [0, 1]."""
    return float(np.trapezoid(curve.tprs, curve.fprs))


def evaluate_distances(matched, unmatched,
                       fpr_targets=(0.1, 0.01, 0.001)) -> VerificationReport:
    """Bundle every metric for one matched/unmatched distance split, each
    side sorted once."""
    m, u = _sorted("matched", matched), _sorted("unmatched", unmatched)
    thresholds, below_m, below_u = _counts(m, u)
    threshold, acc = _best(thresholds, below_m, below_u, m.size, u.size)
    curve = RocCurve(thresholds, below_u / u.size, below_m / m.size)
    del below_m, below_u  # the curve holds them as rates
    rows = [(float(target), *_operating_point(m, u, target))
            for target in fpr_targets]
    return VerificationReport(
        accuracy=acc, accuracy_threshold=threshold, auc=auc(curve),
        tpr_points=rows, n_matched=int(m.size), n_unmatched=int(u.size),
        curve=curve)
