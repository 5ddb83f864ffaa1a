"""Representation extraction and the feature/report file formats.

"single-top", the only extraction scheme, takes the top level's network 0
output on the center crop that training uses (`data.center_crop`).  As in
training, the frozen stages below the level filter and down-sample a batch
of patches (`pyramid.preprocess_dataset`, a slab of a few raw patches at a
time), and the level's networks then run once, forward-only, on the whole
batch of small grids.  `PyramidSpec.level_batch` is the batch whose grids
and network maps each fit one slab; `extract` embeds that many images at
a time.  `concat_landmark_features`, a library function no config
selects, takes one pyramid per landmark, a patch around each landmark at
every level's input edge, and joins all outputs (landmark-major, then
level, then network) into one vector.

Feature files are CSV rows ``image_path,dim,v1,...,vdim`` with full-precision
repr() floats so a rerun is byte-identical.  Report files hold metric
name/value rows followed by a ``roc_points`` section of threshold,fpr,tpr
triples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import (DataError, LabeledImage, center_origin, crop_window,
                   csv_rows)
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
                   level: int, origins: Sequence[tuple[int, int]],
                   normalize: bool, networks: int | None = None) -> np.ndarray:
    """The outputs of one level's first `networks` networks (all of them
    by default) for a batch of images.

    Row i joins, in network order, the outputs for the edge
    `spec.patch_edge(level)` patch of images[i] at origins[i].  As in
    training, the frozen stages below the level filter and down-sample the
    patches (views of the images' stored samples) through
    `preprocess_dataset`, a slab of patches at a time.  The level's
    networks then run once on the whole batch of grids, each on the
    forward-only kernel at its own training offset, so each row is
    bit-equal to the assembled deep network run on the matching sub-crop
    of that image alone.
    """
    spec = model.spec
    stages = model.stages[:level]
    if not all(stage.frozen for stage in stages):
        raise ShapeError(
            f"cannot extract level {level}: lower stages not frozen"
        )
    raw_edge = spec.patch_edge(level)
    x = preprocess_dataset([crop_window(image, origin, raw_edge)
                            for image, origin in zip(images, origins)],
                           *stages, maxval=[image.maxval for image in images])
    outputs = []
    edge = spec.base_input
    for k, net in enumerate(model.level_networks[level][:networks]):
        ox, oy = spec.patch_offsets[k]
        vec = _forward(net, x[:, oy:oy + edge, ox:ox + edge, :])
        if normalize:
            norm = np.sqrt(np.sum(vec * vec, axis=1, keepdims=True))
            vec = np.divide(vec, norm, out=vec, where=norm > 0.0)
        outputs.append(vec)
    return np.concatenate(outputs, axis=1)


def extract_representations(model: PyramidModel,
                            images: Sequence[LabeledImage],
                            scheme: str = "single-top",
                            normalize: bool = False) -> list[FeatureVector]:
    """Top-level network 0 output on each image's center crop, the crop
    `data.center_crop` takes at the top level's raw edge; all images in
    one batch."""
    if scheme != "single-top":
        raise DataError(f"unknown extraction scheme {scheme!r}")
    if not images:
        return []
    top = model.spec.levels - 1
    edge = model.spec.patch_edge(top)
    origins = [center_origin(image, edge) for image in images]
    rows = _level_outputs(model, images, top, origins, normalize, networks=1)
    return [FeatureVector(row, image.source or str(image.identity),
                          "single-top") for image, row in zip(images, rows)]


def concat_landmark_features(models: Sequence[PyramidModel],
                             image: LabeledImage,
                             normalize: bool = False) -> FeatureVector:
    """One pyramid per landmark; all levels' and networks' outputs joined.

    Block order: landmark-major, levels ascending inside a landmark,
    network index inside a level; total dimension is the sum over
    pyramids of levels * networks_per_level * output_dim.  Each level's
    patch is centred on the landmark (rounded to the nearest pixel).
    """
    if image.landmarks is None or len(image.landmarks) < len(models):
        have = 0 if image.landmarks is None else len(image.landmarks)
        raise DataError(
            f"image supplies {have} landmarks but {len(models)} pyramids "
            f"were given"
        )
    parts: list[np.ndarray] = []
    for i, model in enumerate(models):
        lx, ly = image.landmarks[i]
        for level in range(model.spec.levels):
            half = model.spec.patch_edge(level) // 2
            origin = (int(round(lx)) - half, int(round(ly)) - half)
            try:
                parts.append(_level_outputs(model, [image], level, [origin],
                                            normalize)[0])
            except (DataError, ShapeError) as exc:
                raise DataError(f"landmark {i} at ({lx}, {ly}): {exc}") \
                    from exc
    return FeatureVector(np.concatenate(parts),
                         image.source or str(image.identity), "landmark")


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
    """image_path -> feature vector; each path once, each dim >= 1."""
    out: dict[str, np.ndarray] = {}
    for lineno, row in csv_rows(path):
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

