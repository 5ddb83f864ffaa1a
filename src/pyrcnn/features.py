"""Representation extraction and the feature/report file formats.

"single-top", the only extraction scheme, takes the top level's network 0
output on the crop that training cuts (`data.center_window` at
`PyramidSpec.raw_data_edge`).  As in training, the frozen stages below the
level filter and down-sample a batch of crops (`pyramid.preprocess_dataset`,
a slab of a few raw crops at a time), and the level's networks then run
once, forward-only, on the whole batch of small grids.
`PyramidSpec.level_batch` is the batch whose grids and network maps each fit
one slab, in whole slabs of the frozen stages; `extract_representations`
draws that many images at a time from any iterable, so a generator that
loads them is read one batch at a time.

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

from .data import DataError, LabeledImage, center_window, csv_rows
from .layers import ShapeError, _forward
from .metrics import VerificationReport
# by name, so perfbench's `pyramid.preprocess` span, which wraps the module
# attribute, counts only training's calls
from .pyramid import PyramidModel, preprocess_dataset


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
                   normalize: bool, networks: int | None = None) -> np.ndarray:
    """The outputs of the top level's first `networks` networks (all of
    them by default) for a batch of images.

    Row i joins, in network order, the outputs for images[i]'s crop
    `data.center_window(image, spec.raw_data_edge())`, the crop
    `greedy_train` cuts.  As in training, the frozen stages below the top
    filter and down-sample the crops (views of the images' stored samples)
    through `preprocess_dataset`, a slab of crops at a time.  The top
    level's networks then run once on the whole batch of grids, each on
    the forward-only kernel at its own training offset, so each row is
    bit-equal to the assembled deep network run on the matching sub-crop
    of that image alone.
    """
    spec = model.spec
    top = spec.levels - 1
    stages = model.stages[:top]
    if not all(stage.frozen for stage in stages):
        raise ShapeError(
            f"cannot extract level {top}: lower stages not frozen"
        )
    raw_edge = spec.raw_data_edge()
    x = preprocess_dataset([center_window(image, raw_edge)
                            for image in images],
                           *stages, maxval=[image.maxval for image in images])
    outputs = []
    edge = spec.base_input
    for k, net in enumerate(model.level_networks[top][:networks]):
        ox, oy = spec.patch_offsets[k]
        vec = _forward(net, x[:, oy:oy + edge, ox:ox + edge, :])
        if normalize:
            norm = np.sqrt(np.sum(vec * vec, axis=1, keepdims=True))
            vec = np.divide(vec, norm, out=vec, where=norm > 0.0)
        outputs.append(vec)
    return np.concatenate(outputs, axis=1)


def extract_representations(model: PyramidModel,
                            images: Iterable[LabeledImage],
                            scheme: str = "single-top",
                            normalize: bool = False) -> list[FeatureVector]:
    """Top-level network 0 output on each image's training crop (see
    `_level_outputs`), in the order `images` gives them.  `images` may be
    any iterable; `PyramidSpec.level_batch(top)` of them are drawn and
    embedded at a time, so a whole gallery never forms one top-level grid
    and a generator is never read more than one batch ahead."""
    if scheme != "single-top":
        raise DataError(f"unknown extraction scheme {scheme!r}")
    step = model.spec.level_batch(model.spec.levels - 1)
    images = iter(images)
    features = []
    while batch := list(itertools.islice(images, step)):
        rows = _level_outputs(model, batch, normalize, networks=1)
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

