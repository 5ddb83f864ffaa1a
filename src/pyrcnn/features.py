"""Representation extraction and the feature/report file formats.

The default "single-top" scheme takes the top level's network 0 output on a
center crop; the landmark scheme builds one pyramid per landmark, crops a
patch around each landmark at every level's input edge, and concatenates
all levels' and networks' outputs (landmark-major, then level ascending,
then network index) into one long vector.

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

from .data import DataError, LabeledImage, crop_patch
from .layers import ShapeError, layer_forward, network_forward
from .metrics import VerificationReport
from .pyramid import PyramidModel
from .tensor import Tensor


@dataclass
class FeatureVector:
    values: np.ndarray
    image_id: str
    scheme: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if not np.isfinite(self.values).all():
            raise DataError(f"non-finite feature values for {self.image_id}")


def _level_outputs(model: PyramidModel, image: LabeledImage, level: int,
                   center: tuple[float, float],
                   normalize: bool) -> list[np.ndarray]:
    """Every network's output at one level, fed from a patch around `center`.

    The patch is cropped at the level's raw input edge (enlarged when the
    spec trains networks at nonzero offsets), pushed through the frozen
    stages below the level, and handed to each of the level's networks at
    its own training offset — numerically identical to the assembled deep
    network on the matching sub-crop.
    """
    spec = model.spec
    grid_edge = spec.base_input + spec.max_offset()
    raw_edge = spec.inverse_edge(grid_edge, level)
    cx, cy = center
    origin = (int(round(cx)) - raw_edge // 2, int(round(cy)) - raw_edge // 2)
    x: Tensor = crop_patch(image, origin, raw_edge)
    for stage in model.stages[:level]:
        if not stage.frozen:
            raise ShapeError(
                f"cannot extract level {level}: lower stages not frozen"
            )
        x = layer_forward(x, stage.conv, stage.pool)
    outputs = []
    for k, net in enumerate(model.level_networks[level]):
        ox, oy = spec.patch_offsets[k]
        patch = Tensor.from_array(
            x.array[oy:oy + spec.base_input, ox:ox + spec.base_input, :])
        vec = network_forward(net, patch).array
        if normalize:
            norm = float(np.sqrt(np.sum(vec * vec)))
            if norm > 0.0:
                vec = vec / norm
        outputs.append(vec)
    return outputs


def extract_representation(model: PyramidModel, image: LabeledImage,
                           scheme: str = "single-top",
                           normalize: bool = False) -> FeatureVector:
    """Top-level network 0 output on the image's center patch."""
    if scheme != "single-top":
        raise DataError(f"unknown extraction scheme {scheme!r}")
    h, w = image.pixels.shape[0], image.pixels.shape[1]
    top = model.spec.levels - 1
    vec = _level_outputs(model, image, top, ((w - 1) / 2.0, (h - 1) / 2.0),
                         normalize)[0]
    return FeatureVector(vec, image.source or str(image.identity),
                         "single-top")


def concat_landmark_features(models: Sequence[PyramidModel],
                             image: LabeledImage,
                             normalize: bool = False) -> FeatureVector:
    """One pyramid per landmark; all levels' and networks' outputs joined.

    Block order: landmark-major, levels ascending inside a landmark,
    network index inside a level; total dimension is the sum over
    pyramids of levels * networks_per_level * output_dim.
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
            try:
                parts.extend(_level_outputs(model, image, level, (lx, ly),
                                            normalize))
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
    """image_path -> feature vector, validating the declared dimension."""
    out: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        for lineno, row in enumerate(rows, start=1):
            if lineno == 1 or not row:
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{lineno}: need image_path,dim,...")
            try:
                dim = int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: dim {row[1]!r} is not an "
                                f"integer") from None
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
        for point in report.curve.points:
            writer.writerow([repr(point.threshold), repr(point.fpr),
                             repr(point.tpr)])
