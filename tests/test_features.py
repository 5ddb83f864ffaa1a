"""Feature extraction schemes and the feature/report CSV formats."""

import csv
import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pyrcnn import (DataError, FeatureVector, LabeledImage, PyramidSpec,
                    Tensor, assemble_network, build_pyramid, center_crop,
                    concat_landmark_features, evaluate_distances,
                    extract_representations, network_forward,
                    read_features, write_features, write_report)
from pyrcnn.data import center_origin, crop_window, float_pixels
from pyrcnn.features import _level_outputs
from pyrcnn.layers import ShapeError, _forward, _stage_forward


def image_of(arr, landmarks=None, source=None):
    return LabeledImage(pixels=Tensor.from_array(arr[:, :, None]),
                        identity=0, landmarks=landmarks, source=source)


def random_image(rng, edge, landmarks=None):
    return image_of(rng.uniform(0.0, 1.0, (edge, edge)), landmarks)


def extract_one(model, image, **options):
    """The feature vector of one image: a batch of one."""
    (fv,) = extract_representations(model, [image], **options)
    return fv


def frozen_pyramid(levels, seed):
    """Random-init model with every stage below the top marked frozen.

    Extraction only needs the frozen *flags* on the lower stages; the
    weights themselves can be anything.
    """
    model = build_pyramid(PyramidSpec(levels=levels), seed)
    for stage in model.stages[:-1]:
        stage.conv.frozen = True
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
# single-top extraction


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
    arr = rng.uniform(0.0, 1.0, (36, 36))
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
        float_pixels(crop_window(image, (2, 2), 36), image.maxval))
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


@pytest.mark.parametrize("normalize", [False, True])
def test_extract_batch_rows_equal_single_image_calls(normalize):
    rng = np.random.default_rng(19)
    model = frozen_pyramid(2, 9)
    images = [random_image(rng, edge) for edge in (36, 38, 40, 41, 36)]
    batch = extract_representations(model, images, normalize=normalize)
    assert len(batch) == len(images)
    for image, fv in zip(images, batch):
        alone = extract_one(model, image, normalize=normalize)
        assert fv.values.tobytes() == alone.values.tobytes()
    assert extract_representations(model, []) == []


def stacked_route(model, images, level, origins):
    """A level's outputs the direct way, the reference for `_level_outputs`:
    the patches stacked into one float batch, each frozen stage run on the
    whole batch, then every network on its offset window."""
    spec = model.spec
    edge, e = spec.patch_edge(level), spec.base_input
    x = float_pixels(np.stack([crop_window(image, origin, edge)
                               for image, origin in zip(images, origins)]),
                     [image.maxval for image in images])
    for stage in model.stages[:level]:
        x = _stage_forward(x, stage)
    return np.concatenate([
        _forward(net, x[:, oy:oy + e, ox:ox + e, :])
        for net, (ox, oy) in zip(model.level_networks[level],
                                 spec.patch_offsets)], axis=1)


@pytest.mark.parametrize("level", [0, 1])
def test_level_outputs_of_offset_networks_equal_the_stacked_route(level):
    """A 2-level model with 4 networks at offsets up to 6: all networks'
    rows, for a batch and for each image alone, are the bits of the
    stacked route."""
    spec = PyramidSpec(levels=2, networks_per_level=4,
                       patch_offsets=((0, 0), (0, 6), (6, 0), (6, 6)))
    model = build_pyramid(spec, 26)
    model.stages[0].conv.frozen = True
    rng = np.random.default_rng(27)
    # float images and 8-bit samples of two maxvals, of several sizes
    images = [random_image(rng, 48), random_image(rng, 53)] + [
        LabeledImage(rng.integers(0, m + 1, (e, e, 1), dtype=np.uint8), 0,
                     maxval=m) for e, m in ((48, 255), (50, 200), (60, 255))]
    origins = [center_origin(image, spec.patch_edge(level))
               for image in images]
    want = stacked_route(model, images, level, origins)
    got = _level_outputs(model, images, level, origins, normalize=False)
    assert got.shape == (5, 4 * spec.output_dim)
    assert got.tobytes() == want.tobytes()
    for i, (image, origin) in enumerate(zip(images, origins)):
        alone = _level_outputs(model, [image], level, [origin],
                               normalize=False)
        assert alone.tobytes() == want[i:i + 1].tobytes()


def test_extract_unknown_scheme():
    model = frozen_pyramid(1, 4)
    img = random_image(np.random.default_rng(14), 16)
    with pytest.raises(DataError, match="scheme"):
        extract_one(model, img, scheme="landmark-grid")


def test_extract_image_too_small():
    model = frozen_pyramid(2, 5)  # needs a 36-pixel patch
    img = random_image(np.random.default_rng(15), 20)
    with pytest.raises(DataError, match="outside"):
        extract_one(model, img)


def test_extract_requires_frozen_lower_stages():
    model = build_pyramid(PyramidSpec(levels=2), 6)  # nothing frozen
    img = random_image(np.random.default_rng(16), 36)
    with pytest.raises(ShapeError, match="not frozen"):
        extract_one(model, img)


def test_extract_normalize_rescales_to_unit_norm():
    rng = np.random.default_rng(17)
    model = frozen_pyramid(1, 7)
    img = random_image(rng, 16)
    raw = extract_one(model, img).values
    unit = extract_one(model, img, normalize=True).values
    assert np.linalg.norm(raw) > 0.0
    assert_allclose(np.linalg.norm(unit), 1.0, rtol=0.0, atol=1e-12)
    assert_allclose(unit, raw / np.linalg.norm(raw), rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# landmark scheme


def test_concat_single_landmark_degenerates_to_single_top():
    """1 pyramid, 1 level, landmark at the image center == single-top."""
    rng = np.random.default_rng(20)
    model = frozen_pyramid(1, 8)
    arr = rng.uniform(0.0, 1.0, (16, 16))
    center = (16 - 1) / 2.0
    img = image_of(arr, landmarks=[(center, center)])
    single = extract_one(model, img)
    multi = concat_landmark_features([model], img)
    assert multi.scheme == "landmark"
    assert np.array_equal(multi.values, single.values)


def three_landmark_setup():
    rng = np.random.default_rng(21)
    models = [frozen_pyramid(3, seed) for seed in (31, 32, 33)]
    landmarks = [(50.0, 50.0), (80.0, 80.0), (100.0, 60.0)]
    arr = rng.uniform(0.0, 1.0, (160, 160))
    return models, arr, landmarks


def test_concat_dimension_and_block_layout():
    models, arr, landmarks = three_landmark_setup()
    img = image_of(arr, landmarks=landmarks)
    full = concat_landmark_features(models, img)
    assert full.values.shape == (3 * 3 * 1 * 8,)  # landmarks*levels*nets*dim

    # landmark-major: block i is what pyramid i alone yields at landmark i
    blocks = full.values.reshape(3, 24)
    for i in range(3):
        solo = concat_landmark_features(
            [models[i]], image_of(arr, landmarks=[landmarks[i]]))
        assert np.array_equal(blocks[i], solo.values)


def test_concat_permuting_landmarks_permutes_blocks():
    models, arr, landmarks = three_landmark_setup()
    full = concat_landmark_features(models, image_of(arr, landmarks=landmarks))
    perm = [2, 0, 1]
    permuted = concat_landmark_features(
        [models[i] for i in perm],
        image_of(arr, landmarks=[landmarks[i] for i in perm]))
    assert np.array_equal(permuted.values.reshape(3, 24),
                          full.values.reshape(3, 24)[perm])


def test_concat_normalize_normalizes_each_network_block():
    models, arr, landmarks = three_landmark_setup()
    img = image_of(arr, landmarks=landmarks)
    unit = concat_landmark_features(models, img, normalize=True)
    norms = np.linalg.norm(unit.values.reshape(9, 8), axis=1)
    assert_allclose(norms, np.ones(9), rtol=0.0, atol=1e-12)


def test_concat_missing_landmark():
    models = [frozen_pyramid(1, 9), frozen_pyramid(1, 10)]
    img = random_image(np.random.default_rng(22), 64,
                       landmarks=[(32.0, 32.0)])
    with pytest.raises(DataError, match="1 landmarks but 2 pyramids"):
        concat_landmark_features(models, img)
    bare = random_image(np.random.default_rng(23), 64)
    with pytest.raises(DataError, match="0 landmarks but 2 pyramids"):
        concat_landmark_features(models, bare)


def test_concat_out_of_bounds_patch_names_landmark():
    model = frozen_pyramid(1, 11)
    # landmark near the left edge: a 16-pixel patch around x=3 starts at -5
    img = random_image(np.random.default_rng(24), 32,
                       landmarks=[(3.0, 8.0)])
    with pytest.raises(DataError, match=r"landmark 0 at \(3\.0, 8\.0\)"):
        concat_landmark_features([model], img)


def test_concat_unfrozen_stage_names_landmark():
    model = build_pyramid(PyramidSpec(levels=2), 12)
    img = random_image(np.random.default_rng(25), 80,
                       landmarks=[(40.0, 40.0)])
    with pytest.raises(DataError, match="landmark 0 .* not frozen"):
        concat_landmark_features([model], img)


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
