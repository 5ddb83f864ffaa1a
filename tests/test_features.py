"""Feature extraction (the top level's network 0 on the grid training
reads) and the feature/report CSV formats."""

import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pyrcnn import (DataError, FeatureVector, LabeledImage, PyramidError,
                    PyramidSpec, Tensor, TensorError, assemble_network,
                    build_pyramid, center_crop, evaluate_distances,
                    extract_representations, features, layers,
                    network_forward, pyramid, read_features, write_features,
                    write_report)
from pyrcnn.data import float_pixels
from pyrcnn.features import _level_outputs
from pyrcnn.layers import _forward, _stage_forward


def image_of(samples, source=None):
    """The image of an h x w array of 8-bit samples (maxval 255)."""
    return LabeledImage(pixels=np.asarray(samples, np.uint8)[:, :, None],
                        identity=0, source=source)


def random_image(rng, edge):
    return image_of(rng.integers(0, 256, (edge, edge)))


def extract_one(model, image):
    """The feature vector of one image: a batch of one."""
    (fv,) = extract_representations(model, [image])
    return fv


def frozen_pyramid(levels, seed):
    """Random-init model with every level below the top counted trained,
    so every stage below the top is frozen.

    Extraction only needs the lower levels counted trained; the weights
    themselves can be anything.
    """
    model = build_pyramid(PyramidSpec(levels=levels), seed)
    model.levels_trained = levels - 1
    return model


# ---------------------------------------------------------------------------
# FeatureVector


def test_feature_vector_flattens():
    fv = FeatureVector(np.array([[1.0, 2.0], [3.0, 4.0]]), "img", "single-top")
    assert fv.values.shape == (4,)
    assert fv.values.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_feature_vector_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        FeatureVector(np.array([1.0, np.nan]), "bad", "single-top")
    with pytest.raises(DataError, match="non-finite"):
        FeatureVector(np.array([np.inf, 0.0]), "bad", "single-top")


# ---------------------------------------------------------------------------
# extraction


def test_extract_length_matches_output_dim():
    rng = np.random.default_rng(10)
    fv = extract_one(frozen_pyramid(1, 0), random_image(rng, 16))
    assert fv.values.shape == (8,)
    assert fv.scheme == "single-top"

    wide = build_pyramid(PyramidSpec(levels=1, output_dim=13), 0)
    fv13 = extract_one(wide, random_image(rng, 16))
    assert fv13.values.shape == (13,)


def test_extract_identical_images_identical_vectors():
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, (36, 36))
    model = frozen_pyramid(2, 1)
    a = extract_one(model, image_of(arr))
    b = extract_one(model, image_of(arr.copy()))
    assert np.array_equal(a.values, b.values)


def test_extract_matches_assembled_network():
    """Stage-by-stage extraction == one forward through the assembled net."""
    rng = np.random.default_rng(12)
    model = frozen_pyramid(2, 2)
    image = random_image(rng, 36)  # exactly the level-1 raw input edge
    assembled = assemble_network(model, 1, 0)
    pixels = Tensor.from_array(float_pixels(image.raster, image.maxval))
    expected = network_forward(assembled, pixels).array
    fv = extract_one(model, image)
    assert_allclose(fv.values, expected, rtol=0.0, atol=1e-12)


def test_extract_center_crop_on_larger_image():
    # 40x40 image, raw edge 36: the crop is data.center_crop's, whose
    # origin is (40 - 36) // 2 = 2 on both axes.
    rng = np.random.default_rng(13)
    model = frozen_pyramid(2, 3)
    image = random_image(rng, 40)
    patch = Tensor.from_array(
        float_pixels(image.raster[2:38, 2:38], image.maxval))
    expected = network_forward(assemble_network(model, 1, 0), patch).array
    fv = extract_one(model, image)
    assert_allclose(fv.values, expected, rtol=0.0, atol=1e-12)


def test_extract_crops_where_training_crops():
    """38x38 image, raw edge 36: extraction takes center_crop's origin
    (38 - 36) // 2 = 1, the crop greedy_train trains on, bit for bit.  (A
    crop centred on round((38 - 1) / 2) = 18 would start at 0.)"""
    rng = np.random.default_rng(18)
    model = frozen_pyramid(2, 8)
    image = random_image(rng, 38)
    expected = network_forward(assemble_network(model, 1, 0),
                               center_crop(image, 36)).array
    fv = extract_one(model, image)
    assert fv.values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lazy", [False, True])
def test_extract_batch_rows_equal_single_image_calls(lazy):
    """A batch's rows are the bits of one-image calls, whether the images
    come as a list or are drawn from a generator."""
    rng = np.random.default_rng(19)
    model = frozen_pyramid(2, 9)
    images = [random_image(rng, edge) for edge in (36, 38, 40, 41, 36)]
    batch = extract_representations(
        model, (image for image in images) if lazy else images)
    assert len(batch) == len(images)
    for image, fv in zip(images, batch):
        alone = extract_one(model, image)
        assert fv.values.tobytes() == alone.values.tobytes()
    assert extract_representations(model, []) == []


def stacked_route(model, images):
    """The top level's outputs the direct way, the reference for
    `_level_outputs`: the center crops stacked into one float batch, each
    frozen stage run on the whole batch, then every network on its offset
    window."""
    spec = model.spec
    top = spec.levels - 1
    edge, e = spec.patch_edge(top), spec.base_input

    def centre(raster):  # the edge-`edge` square, origin rounded down
        y, x = (raster.shape[0] - edge) // 2, (raster.shape[1] - edge) // 2
        return raster[y:y + edge, x:x + edge]

    x = float_pixels(np.stack([centre(image.raster) for image in images]),
                     [image.maxval for image in images])
    for stage in model.stages[:top]:
        x = _stage_forward(x, stage)
    return np.concatenate([
        _forward(net, x[:, oy:oy + e, ox:ox + e, :])
        for net, (ox, oy) in zip(model.level_networks[top],
                                 spec.patch_offsets)], axis=1)


@pytest.mark.parametrize("top", [0, 1])
def test_level_outputs_of_offset_networks_equal_the_stacked_route(top):
    """A 1-level and a 2-level model with 4 networks at offsets up to 6:
    all the top level's rows, for a batch and for each image alone, are
    the bits of the stacked route."""
    spec = PyramidSpec(levels=top + 1,
                       patch_offsets=((0, 0), (0, 6), (6, 0), (6, 6)))
    model = build_pyramid(spec, 26)
    model.levels_trained = top
    rng = np.random.default_rng(27)
    # 8-bit samples of two maxvals, of several sizes
    images = [random_image(rng, 48), random_image(rng, 53)] + [
        LabeledImage(rng.integers(0, m + 1, (e, e, 1), dtype=np.uint8), 0,
                     maxval=m) for e, m in ((48, 255), (50, 200), (60, 255))]
    want = stacked_route(model, images)
    got = _level_outputs(model, images)
    assert got.shape == (5, 4 * spec.output_dim)
    assert got.tobytes() == want.tobytes()
    for i, image in enumerate(images):
        alone = _level_outputs(model, [image])
        assert alone.tobytes() == want[i:i + 1].tobytes()


def test_extract_walks_a_gallery_in_level_batches(monkeypatch):
    """`extract_representations` hands `_level_outputs` at most
    `level_batch(top)` images a call, and each row is the bits of a
    one-image call: a 2-level model under a slab that takes 3 level-1
    grids."""
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 3 * 16 * 16 * 8)
    model = frozen_pyramid(2, 28)
    step = model.spec.level_batch(1)
    assert step == 3
    rng = np.random.default_rng(29)
    images = [random_image(rng, edge) for edge in (36, 40, 37) * 3]
    calls = []
    level_outputs = features._level_outputs
    monkeypatch.setattr(features, "_level_outputs",
                        lambda m, batch, *a, **k: calls.append(len(batch))
                        or level_outputs(m, batch, *a, **k))
    rows = extract_representations(model, images)
    assert calls == [3, 3, 3]
    alone = [extract_one(model, image) for image in images]
    assert [fv.values.tobytes() for fv in rows] == \
        [fv.values.tobytes() for fv in alone]


def test_level_batch_is_whole_frozen_stage_slabs(monkeypatch):
    """At the default spec the frozen stages take 3 crops of 76 px per
    slab, so a top-level batch is 63 crops, not 64, and 130 images take
    44 slabs, not 45: no batch but the last ends in a short slab."""
    model = frozen_pyramid(3, 30)
    assert model.spec.level_batch(2) == 63
    rng = np.random.default_rng(31)
    images = [LabeledImage(rng.integers(0, 256, (76, 76, 1), dtype=np.uint8),
                           0, maxval=255) for _ in range(130)]
    slabs = []
    stage_forward = pyramid._stage_forward
    monkeypatch.setattr(pyramid, "_stage_forward",
                        lambda x, stage: slabs.append(len(x))
                        or stage_forward(x, stage))
    assert len(extract_representations(model, images)) == 130
    # stages 0 and 1 each see every slab
    assert slabs == [n for n in [3] * 42 + [3, 1] for _ in range(2)]


def test_extract_image_too_small():
    """The error training gives for the same image, naming no origin."""
    model = frozen_pyramid(2, 5)  # needs a 36-pixel patch
    img = random_image(np.random.default_rng(15), 20)
    with pytest.raises(TensorError) as err:
        extract_one(model, img)
    assert str(err.value) == "image 20x20 smaller than required crop edge 36"


def test_extract_requires_frozen_lower_stages():
    """A training-state error that names the levels trained."""
    model = build_pyramid(PyramidSpec(levels=2), 6)  # nothing frozen
    img = random_image(np.random.default_rng(16), 36)
    with pytest.raises(PyramidError) as err:
        extract_one(model, img)
    assert str(err.value) == ("cannot extract level 1: 0 levels trained, so "
                              "the stages below it are not all frozen")



# ---------------------------------------------------------------------------
# feature files


def test_feature_file_round_trip(tmp_path):
    values = [np.array([1.0 / 3.0, -0.0, 1e-300]),
              np.array([700.1, 2.0 ** -52, -1.5])]
    features = [FeatureVector(values[0], "a/b.pgm", "single-top"),
                FeatureVector(values[1], "c.pgm", "single-top")]
    path = tmp_path / "features.csv"
    write_features(path, features)
    back = read_features(path)
    assert set(back) == {"a/b.pgm", "c.pgm"}
    assert np.array_equal(back["a/b.pgm"], values[0])  # repr() is lossless
    assert np.array_equal(back["c.pgm"], values[1])


def test_feature_file_rerun_is_byte_identical(tmp_path):
    fv = FeatureVector(np.array([0.1, 0.2, 0.3]), "x.pgm", "single-top")
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    write_features(first, [fv])
    write_features(second, [fv])
    assert first.read_bytes() == second.read_bytes()


def test_read_features_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("image_path,dim\nx.pgm,3,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="declared dim 3 but row has 2"):
        read_features(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_features_rejects_non_finite_value(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"image_path,dim\nx.pgm,2,1.0,2.0\ny.pgm,2,{cell},2.0\n",
                    encoding="utf-8")
    with pytest.raises(DataError,
                       match=f"bad.csv:3: non-finite value {float(cell)!r}"):
        read_features(path)


@pytest.mark.parametrize("rows, problem", [
    ("x.pgm,0\ny.pgm,0\n", "bad.csv:2: dim 0 is below 1"),
    ("x.pgm,1,1.0\ny.pgm,1,2.0\nx.pgm,1,3.0\n",
     "bad.csv:4: image_path 'x.pgm' repeats an earlier row"),
])
def test_read_features_rejects_empty_rows_and_repeated_paths(tmp_path, rows,
                                                             problem):
    path = tmp_path / "bad.csv"
    path.write_text("image_path,dim\n" + rows, encoding="utf-8")
    with pytest.raises(DataError, match=problem):
        read_features(path)


@pytest.mark.parametrize("header", ["", "path,dim\n", "image_path,dim,v1\n"])
def test_read_features_refuses_a_file_without_its_header(tmp_path, header):
    """Line 1 is the header, never a vector: a headerless file would
    otherwise lose its first row without a word."""
    path = tmp_path / "f.csv"
    path.write_text(header + "a.pgm,2,0.5,1.0\nb.pgm,2,0.25,0.75\n",
                    encoding="utf-8")
    with pytest.raises(DataError) as err:
        read_features(path)
    assert str(err.value) == f"{path}:1: header must be 'image_path,dim'"


def test_read_features_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("image_path,dim\n", encoding="utf-8")
    with pytest.raises(DataError, match="no feature rows"):
        read_features(path)


# ---------------------------------------------------------------------------
# report files


def test_write_report_layout(tmp_path):
    report = evaluate_distances([0.5, 1.0, 1.5], [2.0, 2.5, 3.0],
                                fpr_targets=(0.1, 0.5))
    path = tmp_path / "report.csv"
    write_report(path, report)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))

    assert rows[0] == ["metric", "value"]
    named = {row[0]: row[1] for row in rows[1:] if len(row) == 2
             and row[0] != "threshold"}
    assert named["best_accuracy"] == repr(report.accuracy)
    assert named["best_threshold"] == repr(report.accuracy_threshold)
    assert named["auc"] == repr(report.auc)
    assert named["n_matched"] == "3"
    assert named["n_unmatched"] == "3"
    for target, thr, achieved, tpr in report.tpr_points:
        tag = f"{target:g}"
        assert named[f"tpr@fpr={tag}"] == repr(tpr)
        assert named[f"threshold@fpr={tag}"] == repr(thr)
        assert named[f"achieved_fpr@fpr={tag}"] == repr(achieved)

    marker = rows.index(["roc_points"])
    assert rows[marker + 1] == ["threshold", "fpr", "tpr"]
    points = rows[marker + 2:]
    assert len(points) == len(report.curve.points)
    for row, point in zip(points, report.curve.points):
        assert [float(c) for c in row] == [point.threshold, point.fpr,
                                           point.tpr]


def test_write_report_roc_rows_are_the_csv_writer_rows(tmp_path):
    """The ROC section is byte for byte what csv.writer writes for each
    point's repr() cells, sentinels and exponent forms included."""
    rng = np.random.default_rng(3)
    matched = np.concatenate([rng.uniform(0.0, 2.0, 40), [0.0, 1e-20, 1.0]])
    unmatched = np.concatenate([rng.uniform(1.0, 3.0, 60), [1.0, 3e22]])
    report = evaluate_distances(matched, unmatched)
    path = tmp_path / "report.csv"
    write_report(path, report)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["roc_points"])
    writer.writerow(["threshold", "fpr", "tpr"])
    for point in report.curve.points:
        writer.writerow([repr(point.threshold), repr(point.fpr),
                         repr(point.tpr)])
    text = path.read_bytes().decode("utf-8")
    assert text.endswith(want.getvalue())
    assert text.count("roc_points") == 1


def test_write_report_roc_blocks_match_a_per_cell_formatter(tmp_path,
                                                           monkeypatch):
    """ROC rows written in blocks, with one repr per run of equal FPR or
    TPR values, are the bytes of formatting every cell on its own: across
    block edges, and for runs of -0.0 next to 0.0 and of NaN."""
    import dataclasses

    import pyrcnn.features as features
    from pyrcnn.metrics import RocCurve

    rng = np.random.default_rng(5)
    # few distinct matched distances: long runs of equal TPRs
    matched = rng.choice([0.5, 1.0, 1.5, 2.0], 200)
    unmatched = rng.uniform(0.0, 3.0, 60)
    report = evaluate_distances(matched, unmatched)
    assert len(np.unique(report.curve.tprs)) < len(report.curve.tprs) // 4
    signed = dataclasses.replace(report, curve=RocCurve(
        np.arange(6.0), np.array([-0.0, -0.0, 0.0, 0.0, np.nan, np.nan]),
        np.array([0.0, -0.0, -0.0, np.nan, np.nan, 1.0])))
    monkeypatch.setattr(features, "_REPORT_ROWS", 7)
    for rep in (report, signed):
        path = tmp_path / "report.csv"
        write_report(path, rep)
        curve = rep.curve
        want = "".join(f"{t!r},{f!r},{r!r}\r\n" for t, f, r in zip(
            curve.thresholds.tolist(), curve.fprs.tolist(),
            curve.tprs.tolist()))
        text = path.read_bytes().decode("utf-8")
        assert text.endswith("threshold,fpr,tpr\r\n" + want)
