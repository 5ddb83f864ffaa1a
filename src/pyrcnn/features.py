"""Representation extraction and the feature/report file formats.

Extraction takes the top level's network 0 output on the grid training
reads: `pyramid._level_grids` cuts each image's center crop
(`data.center_window` at `PyramidSpec.raw_data_edge`) and filters and
down-samples a batch of crops through the frozen stages below the top, and
`pyramid._embed`, validation's forward-only walk, runs the level's networks
on the whole batch of small grids.  `PyramidSpec.level_batch` is the batch
whose grids and network maps each fit one slab, in whole slabs of the
frozen stages; `extract_representations` draws that many images at a time
from any iterable, so a generator that loads them is read one batch at a
time.

Feature files are CSV rows ``image_path,dim,v1,...,vdim`` with full-precision
repr() floats so a rerun is byte-identical.  Report files hold metric
name/value rows followed by a ``roc_points`` section of threshold,fpr,tpr
triples.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import DataError, LabeledImage, csv_rows
from .metrics import VerificationReport
from .pyramid import PyramidError, PyramidModel, _embed, _level_grids


@dataclass
class FeatureVector:
    values: np.ndarray
    image_id: str
    scheme: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.values).all():
            raise DataError(f"non-finite feature values for {self.image_id}")


def _level_outputs(model: PyramidModel, images: Sequence[LabeledImage],
                   networks: int | None = None) -> np.ndarray:
    """The outputs of the top level's first `networks` networks (all of
    them by default) for a batch of images.

    Row i joins, in network order, the `_embed` outputs of the top level's
    networks, each at its own training offset, on images[i]'s grid from
    `_level_grids`, the grid training reads; each row is bit-equal to the
    assembled deep network run on the matching sub-crop of that image
    alone.
    """
    spec = model.spec
    top = spec.levels - 1
    if model.frozen_prefix() < top:
        raise PyramidError(
            f"cannot extract level {top}: {model.levels_trained} levels "
            f"trained, so the stages below it are not all frozen")
    grids = _level_grids(model, images, top)
    return np.concatenate([
        _embed(net, offset, grids) for net, offset in zip(
            model.level_networks[top][:networks], spec.patch_offsets)],
        axis=1)


def extract_representations(model: PyramidModel,
                            images: Iterable[LabeledImage]
                            ) -> list[FeatureVector]:
    """Top-level network 0 output on each image's training crop (see
    `_level_outputs`), in the order `images` gives them.  `images` may be
    any iterable; `PyramidSpec.level_batch(top)` of them are drawn and
    embedded at a time, so a whole gallery never forms one top-level grid
    and a generator is never read more than one batch ahead."""
    step = model.spec.level_batch(model.spec.levels - 1)
    images = iter(images)
    features = []
    while batch := list(itertools.islice(images, step)):
        rows = _level_outputs(model, batch, networks=1)
        features.extend(FeatureVector(row, image.source or str(image.identity),
                                      "single-top")
                        for image, row in zip(batch, rows))
    return features


# ---------------------------------------------------------------------------
# file formats


def write_features(path, features: Sequence[FeatureVector]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_path", "dim"])
        for fv in features:
            writer.writerow([fv.image_id, fv.values.size]
                            + [repr(float(v)) for v in fv.values])


def read_features(path) -> dict[str, np.ndarray]:
    """image_path -> feature vector; each path once, each dim >= 1.  Line
    1 must be the ``image_path,dim`` header `write_features` writes."""
    out: dict[str, np.ndarray] = {}
    for lineno, row in csv_rows(path):
        if lineno == 1 and row != ["image_path", "dim"]:
            raise DataError(f"{path}:1: header must be 'image_path,dim'")
        if lineno == 1 or not row:
            continue
        if len(row) < 2:
            raise DataError(f"{path}:{lineno}: need image_path,dim,...")
        try:
            dim = int(row[1])
        except ValueError:
            raise DataError(f"{path}:{lineno}: dim {row[1]!r} is not an "
                            f"integer") from None
        if dim < 1:
            raise DataError(f"{path}:{lineno}: dim {dim} is below 1")
        if row[0] in out:
            raise DataError(f"{path}:{lineno}: image_path {row[0]!r} "
                            f"repeats an earlier row")
        try:
            values = [float(v) for v in row[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: non-numeric value "
                            f"({exc})") from None
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise DataError(f"{path}:{lineno}: non-finite value "
                            f"{bad[0]!r}")
        if len(values) != dim:
            raise DataError(
                f"{path}:{lineno}: declared dim {dim} but row has "
                f"{len(values)} values"
            )
        out[row[0]] = np.array(values)
    if not out:
        raise DataError(f"{path}: no feature rows")
    return out


# ROC rows formatted and written per block: bounds the report's text in
# memory at any curve length
_REPORT_ROWS = 1 << 11


def _run_reprs(values: np.ndarray) -> list[str]:
    """repr() of each value, computed once per run of equal neighbours.
    Runs are of equal bits, so -0.0 and NaN keep their own text.  The FPR
    and TPR columns are monotone, and most TPRs repeat the one before."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    texts = np.array([repr(v) for v in values[starts].tolist()], dtype=object)
    return np.repeat(texts, np.diff(starts, append=values.size)).tolist()


def write_report(path, report: VerificationReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["best_accuracy", repr(report.accuracy)])
        writer.writerow(["best_threshold", repr(report.accuracy_threshold)])
        writer.writerow(["auc", repr(report.auc)])
        writer.writerow(["n_matched", report.n_matched])
        writer.writerow(["n_unmatched", report.n_unmatched])
        for target, thr, achieved, tpr in report.tpr_points:
            tag = f"{target:g}"
            writer.writerow([f"tpr@fpr={tag}", repr(tpr)])
            writer.writerow([f"threshold@fpr={tag}", repr(thr)])
            writer.writerow([f"achieved_fpr@fpr={tag}", repr(achieved)])
        writer.writerow(["roc_points"])
        writer.writerow(["threshold", "fpr", "tpr"])
        # the rows csv.writer would write (a float's repr needs no
        # quoting), `_REPORT_ROWS` at a time
        curve = report.curve
        for i in range(0, len(curve.thresholds), _REPORT_ROWS):
            rows = slice(i, i + _REPORT_ROWS)
            fh.write("".join(
                f"{t!r},{f},{r}\r\n" for t, f, r in zip(
                    curve.thresholds[rows].tolist(),
                    _run_reprs(curve.fprs[rows]),
                    _run_reprs(curve.tprs[rows]))))

