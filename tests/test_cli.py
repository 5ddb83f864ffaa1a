"""End-to-end command-line pipeline: synth -> train -> extract -> eval."""

import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pyrcnn
from loss_reference import distance
from pyrcnn import (NuisanceConfig, PyramidSpec, StageSpec, TrainConfig,
                    build_pyramid, cli, features, layers, pyramid,
                    read_features, save_model)
from pyrcnn.cli import load_config, main


def write_config(dirpath, **overrides):
    cfg = {
        "seed": 7,
        "output_dir": "out",
        "data": {"dir": "gallery", "n_identities": 6,
                 "images_per_identity": 3, "edge": 36,
                 "holdout_fraction": 1 / 3},
        "pyramid": {"levels": 2},
        "train": {"iterations_per_level": 4, "batch_size": 4,
                  "validation_fraction": 0.25},
        "evaluation": {"n_pairs": 40, "fpr_targets": [0.1]},
    }
    cfg.update(overrides)
    path = Path(dirpath) / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run_pipeline(dirpath, **overrides):
    """synth + train + extract + eval in one directory; returns key paths."""
    Path(dirpath).mkdir(parents=True, exist_ok=True)
    cfg = write_config(dirpath, **overrides)
    assert main(["synth", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    out = Path(dirpath) / "out"
    model = out / "model.bin"
    eval_index = out / "eval_index.csv"
    assert main(["extract", "--config", str(cfg), str(model),
                 str(eval_index)]) == 0
    features = out / "features.csv"
    assert main(["eval", "--config", str(cfg), str(features),
                 str(eval_index)]) == 0
    return {"config": cfg, "gallery": Path(dirpath) / "gallery", "out": out,
            "model": model, "features": features,
            "report": out / "report.csv"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("cli"))


# ---------------------------------------------------------------------------
# happy path


def test_synth_writes_gallery_and_index(pipeline):
    gallery = pipeline["gallery"]
    assert (gallery / "index.csv").is_file()
    assert len(list(gallery.glob("*.pgm"))) == 6 * 3


def test_train_writes_model_splits_and_traces(pipeline):
    out = pipeline["out"]
    assert pipeline["model"].read_bytes()[:8] == b"PYRCNN02"
    for name in ("train_index.csv", "eval_index.csv"):
        assert (out / name).is_file()
    # identity-disjoint split over the 6 synthetic identities
    def labels(name):
        with open(out / name, newline="", encoding="utf-8") as fh:
            return {row[1] for row in list(csv.reader(fh))[1:] if row}
    train_labels, eval_labels = labels("train_index.csv"), \
        labels("eval_index.csv")
    assert len(train_labels) == 4 and len(eval_labels) == 2
    assert not train_labels & eval_labels

    for level in (0, 1):
        with open(out / f"trace_level{level}.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_loss", "val_auc"]
        assert len(rows) == 1 + 4  # header + one row per iteration
        losses = [float(r[1]) for r in rows[1:]]
        assert all(np.isfinite(losses))
        # 4 steps: only the last is validated (NaN here: the one validation
        # identity gives matched pairs only)
        assert [r[2] for r in rows[1:]] == ["", "", "", "nan"]


def test_train_trace_fills_val_auc_on_validated_iterations_only(tmp_path):
    """Validation runs after every 10th step and after the last, and the
    other rows of a trace leave val_auc empty."""
    run = write_config(tmp_path, train={
        "iterations_per_level": 12, "batch_size": 4,
        "validation_fraction": 0.25})
    assert main(["synth", "--config", str(run)]) == 0
    assert main(["train", "--config", str(run)]) == 0
    for level in (0, 1):
        with open(tmp_path / "out" / f"trace_level{level}.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iteration"] for r in rows] == [str(i) for i in range(12)]
        assert [int(r["iteration"]) for r in rows if r["val_auc"]] == [9, 11]


def test_extract_writes_one_row_per_eval_image(pipeline):
    feats = read_features(pipeline["features"])
    assert len(feats) == 6  # 2 held-out identities x 3 images
    assert all(vec.shape == (8,) for vec in feats.values())


def test_extract_streams_chunks_bit_equal_to_assembled_network(
        tmp_path, monkeypatch):
    """`extract` embeds the index a top-level batch of images at a time
    (`extract_representations` hands `_level_outputs` one batch a call),
    and the frozen stage below walks each batch in slabs of its own; every
    row is the bits of the assembled top network on the image's
    center_crop, the crop training uses (a 38-pixel gallery, where rounding
    the image centre would shift it by a pixel)."""
    paths = run_pipeline(tmp_path, data={
        "dir": "gallery", "n_identities": 6, "images_per_identity": 3,
        "edge": 38, "holdout_fraction": 1 / 3})
    model = pyrcnn.load_model(paths["model"])
    net = pyrcnn.assemble_network(model, 1, 0)
    # a level-1 patch's 16-edge grid holds 16*16*8 values, more than its
    # networks' 12*12*8 maps; stage 0's 32*32*8 map of one 36-edge crop
    # fills the whole slab, so the frozen stage takes one crop at a time
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 4 * 16 * 16 * 8)
    chunks, slabs, batches = [], [], []
    level_outputs = features._level_outputs
    monkeypatch.setattr(features, "_level_outputs",
                        lambda m, images, *a, **k: chunks.append(len(images))
                        or level_outputs(m, images, *a, **k))
    stage_forward, forward = pyramid._stage_forward, pyramid._forward
    monkeypatch.setattr(pyramid, "_stage_forward",
                        lambda x, stage: slabs.append(len(x))
                        or stage_forward(x, stage))
    monkeypatch.setattr(pyramid, "_forward",
                        lambda n, x, *seen: batches.append(len(x))
                        or forward(n, x, *seen))
    index = paths["gallery"] / "index.csv"
    assert main(["extract", "--config", str(paths["config"]),
                 str(paths["model"]), str(index)]) == 0
    assert chunks == batches == [4, 4, 4, 4, 2]
    assert slabs == [1] * 18
    rows = read_features(paths["features"])
    records = pyrcnn.load_index(index).records
    assert len(rows) == len(records) == 18
    for rec in records:
        crop = pyrcnn.center_crop(pyrcnn.load_image(rec), 36)
        want = pyrcnn.network_forward(net, crop).array
        assert np.array_equal(rows[str(rec.path)], want)


def saved_model(tmp_path, spec, seed=5):
    """A model of `spec` with every level marked trained, so every lower
    stage frozen, saved as `tmp_path`/model.bin."""
    model = build_pyramid(spec, seed=seed)
    model.levels_trained = spec.levels
    path = tmp_path / "model.bin"
    save_model(model, path)
    return path


def test_extract_loads_at_most_one_batch_ahead(tmp_path, monkeypatch):
    """`extract` loads its images lazily: when an embedding call reads a
    batch, no more than `level_batch(top)` images have been loaded that
    it has not read, so the gallery is never held in memory at once."""
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    model = saved_model(tmp_path, PyramidSpec(levels=2))
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 4 * 16 * 16 * 8)
    assert PyramidSpec(levels=2).level_batch(1) == 4
    loaded, loaded_at_call, batches = [], [], []
    load_image, level_outputs = cli.load_image, features._level_outputs
    monkeypatch.setattr(cli, "load_image",
                        lambda rec: loaded.append(rec) or load_image(rec))

    def embed(m, images, *args, **kwargs):
        loaded_at_call.append(len(loaded))
        batches.append(len(images))
        assert [im.source for im in images] == \
            [str(rec.path) for rec in loaded[-len(images):]]
        return level_outputs(m, images, *args, **kwargs)

    monkeypatch.setattr(features, "_level_outputs", embed)
    assert main(["extract", "--config", str(cfg), str(model),
                 str(tmp_path / "gallery" / "index.csv")]) == 0
    assert batches == [4, 4, 4, 4, 2]
    assert loaded_at_call == [4, 8, 12, 16, 18]


def test_eval_writes_report(pipeline):
    with open(pipeline["report"], newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    named = {row[0]: row[1] for row in rows if len(row) == 2}
    assert 0.0 <= float(named["auc"]) <= 1.0
    assert 0.5 <= float(named["best_accuracy"]) <= 1.0
    assert named["n_matched"] == "20" and named["n_unmatched"] == "20"
    assert "tpr@fpr=0.1" in named
    assert ["roc_points"] in rows


def test_eval_report_matches_per_pair_distances(pipeline, tmp_path):
    """`eval` computes every pair distance in one expression; its report is
    byte-identical to one built from per-pair distances."""
    cfg = cli.load_config(pipeline["config"])
    feats = read_features(pipeline["features"])
    index = pyrcnn.load_index(pipeline["out"] / "eval_index.csv")
    pairs = pyrcnn.sample_pairs(index, cfg.evaluation["n_pairs"],
                                pyrcnn.derive_seed(cfg.seed, "eval-pairs"))
    vectors = [feats[str(rec.path)] for rec in index.records]
    matched, unmatched = [], []
    for pair in pairs:
        d = distance(vectors[pair.first], vectors[pair.second])
        (matched if int(pair.label) == 1 else unmatched).append(d)
    want = tmp_path / "report.csv"
    pyrcnn.write_report(want, pyrcnn.evaluate_distances(
        matched, unmatched, cfg.evaluation["fpr_targets"]))
    assert pipeline["report"].read_bytes() == want.read_bytes()


EVAL_BYTES_PER_PAIR = 64


def test_eval_peak_memory_per_pair(tmp_path, monkeypatch):
    """`eval` of 100,000 pairs (sampling, distances, `evaluate_distances`)
    peaks under `EVAL_BYTES_PER_PAIR` bytes a pair of traced memory.

    The budget is the arrays alive at the peak, with every distance
    distinct (the most thresholds), when the curve's rates are made or its
    area is taken: the pairs (int32 positions, int8 labels) 9 B, the two
    sorted distance sides 8 B, the thresholds 8 B, the int64 counts below
    each threshold 16 B, the FPRs and TPRs 16 B (or, for the area, two
    threshold-sized temporaries in place of the counts): 57 B a pair.  The
    other 7 B, 700 kB, hold the 2,000 feature vectors, the sampler's
    per-image arrays and the small temporaries.  The files are replaced by
    in-memory stand-ins, so the report writer's block of rows is not in
    the peak."""
    n_images, n_pairs = 2000, 100_000
    rng = np.random.default_rng(17)
    index = pyrcnn.DatasetIndex(
        [pyrcnn.IndexRecord(tmp_path / f"{i}.pgm", i // 20)
         for i in range(n_images)], [f"p{k}" for k in range(n_images // 20)])
    feats = {str(rec.path): v for rec, v in
             zip(index.records, rng.standard_normal((n_images, 8)))}
    reports = []
    monkeypatch.setattr(cli, "read_features", lambda path: feats)
    monkeypatch.setattr(cli, "load_index", lambda path: index)
    monkeypatch.setattr(cli, "write_report",
                        lambda path, report: reports.append(report))
    cfg = load_config(write_config(tmp_path, evaluation={"n_pairs": n_pairs}))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        assert cli.cmd_eval(cfg, "features.csv", "index.csv") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports[0].n_matched == reports[0].n_unmatched == n_pairs // 2
    assert (peak - start) / n_pairs < EVAL_BYTES_PER_PAIR


def test_rerun_reproduces_artifacts(tmp_path):
    """The same config in two directories yields identical artifacts."""
    a = run_pipeline(tmp_path / "a")
    b = run_pipeline(tmp_path / "b")
    assert (a["gallery"] / "index.csv").read_bytes() == \
        (b["gallery"] / "index.csv").read_bytes()
    first_pgm = sorted(p.name for p in a["gallery"].glob("*.pgm"))[0]
    assert (a["gallery"] / first_pgm).read_bytes() == \
        (b["gallery"] / first_pgm).read_bytes()
    assert a["model"].read_bytes() == b["model"].read_bytes()
    # feature rows are keyed by absolute path; compare by file name
    fa = {Path(k).name: v for k, v in read_features(a["features"]).items()}
    fb = {Path(k).name: v for k, v in read_features(b["features"]).items()}
    assert set(fa) == set(fb)
    assert all(np.array_equal(fa[k], fb[k]) for k in fa)
    assert a["report"].read_bytes() == b["report"].read_bytes()


def test_seed_override_matches_config_seed(tmp_path):
    over = tmp_path / "override"
    over.mkdir()
    cfg_over = write_config(over)
    assert main(["synth", "--config", str(cfg_over), "--seed", "99"]) == 0

    baked = tmp_path / "baked"
    baked.mkdir()
    cfg_baked = write_config(baked, seed=99)
    assert main(["synth", "--config", str(cfg_baked)]) == 0

    names = sorted(p.name for p in (over / "gallery").glob("*.pgm"))
    for name in names[:3]:
        assert (over / "gallery" / name).read_bytes() == \
            (baked / "gallery" / name).read_bytes()

    # and the override really changed something vs. the baked-in seed 7
    plain = tmp_path / "plain"
    plain.mkdir()
    assert main(["synth", "--config", str(write_config(plain))]) == 0
    assert (over / "gallery" / names[0]).read_bytes() != \
        (plain / "gallery" / names[0]).read_bytes()


# ---------------------------------------------------------------------------
# config validation and error reporting


def env_with_package():
    """The environment with this package's source directory on PYTHONPATH,
    so a child process imports the code under test, installed or not."""
    src_dir = str(Path(pyrcnn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def error_of(capsys, argv):
    code = main(argv)
    assert code == 1
    return capsys.readouterr().err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(tmp_path, extras={})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "unknown key(s) in config: extras" in err
    # extraction has one route, so no block to configure it
    cfg = write_config(tmp_path, extraction={"scheme": "single-top"})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "unknown key(s) in config: extraction" in err


def test_unknown_nested_key(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"dir": "g", "rotation": 5})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "unknown key(s) in data: rotation" in err
    cfg = write_config(tmp_path, pyramid={"levels": 2,
                                          "shared": {"stride": 2}})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "unknown key(s) in pyramid.shared: stride" in err
    # the network count is the number of patch offsets, not a key
    cfg = write_config(tmp_path, pyramid={"levels": 2,
                                          "networks_per_level": 1})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "unknown key(s) in pyramid: networks_per_level" in err


def test_config_without_patch_offsets_is_an_error(tmp_path, capsys):
    cfg = write_config(tmp_path, pyramid={"patch_offsets": []})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err == "error: need at least one patch offset\n"


def test_config_file_missing(tmp_path, capsys):
    err = error_of(capsys, ["synth", "--config", str(tmp_path / "no.json")])
    assert "config file not found" in err


def test_config_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    err = error_of(capsys, ["synth", "--config", str(path)])
    assert "invalid JSON" in err


def test_spec_that_does_not_close_names_base_input_and_stage(tmp_path,
                                                            capsys):
    cfg = write_config(tmp_path, pyramid={"base_input": 15})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith("error: base_input 15 ")
    assert "stage 0 pool window 2 does not divide its 11x11 feature map" \
        in err


def test_config_requires_seed_and_output_dir(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    err = error_of(capsys, ["synth", "--config", str(path)])
    assert "requires 'seed' and 'output_dir'" in err


def test_train_refuses_to_write_its_run_record_over_the_config(tmp_path,
                                                               capsys):
    """``train`` writes ``run.json`` into output_dir; where that is the
    config itself, it stops before training and the config is kept."""
    cfg = write_config(tmp_path, output_dir=".")
    assert main(["synth", "--config", str(cfg)]) == 0
    text = cfg.read_text(encoding="utf-8")
    err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err.startswith(f"error: {cfg.resolve()}: train writes run.json "
                          f"into output_dir, over this config")
    assert cfg.read_text(encoding="utf-8") == text
    assert not (tmp_path / "model.bin").exists()


@pytest.mark.parametrize("output_dir", [5, ["out"], None])
def test_output_dir_must_be_a_string(tmp_path, capsys, output_dir):
    cfg = write_config(tmp_path, output_dir=output_dir)
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith(f"error: {cfg}: bad config value (output_dir must "
                          f"be a string, got {output_dir!r})")


@pytest.mark.parametrize("n_pairs", [-5, 0, 1])
def test_eval_pair_count_must_be_positive(pipeline, tmp_path, capsys, n_pairs):
    cfg = write_config(tmp_path, evaluation={"n_pairs": n_pairs})
    err = error_of(capsys, ["eval", "--config", str(cfg),
                            str(pipeline["features"]),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith(f"error: evaluation.n_pairs must be >= 2 (one "
                          f"matched and one unmatched pair), got {n_pairs}")


def test_fpr_target_out_of_range(tmp_path, capsys):
    cfg = write_config(tmp_path, evaluation={"fpr_targets": [1.5]})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "outside [0, 1)" in err


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"dir": "g", "n_identities": "many"})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith("error: ")
    assert str(cfg) in err and "'many'" in err


@pytest.mark.parametrize("block, key, value, kind", [
    ("data", "max_translation", 2.5, "an integer"),
    ("train", "momentum", True, "a number"),
    ("data", "n_identities", 4.9, "an integer"),
    ("data", "n_identities", True, "an integer"),
    ("pyramid", "levels", 2.5, "an integer"),
    ("train", "batch_size", "4", "an integer"),
    ("train", "learning_rate", "0.05", "a number"),
    ("data", "dir", 5, "a string"),
    ("data", "dir", ["g"], "a string"),
    ("data", "dir", True, "a string"),
    ("pyramid", "patch_offsets", [[1]], "a list of [x, y] pairs"),
    ("pyramid", "patch_offsets", [[1, 2, 3]], "a list of [x, y] pairs"),
    ("pyramid", "patch_offsets", [1, 2], "a list of [x, y] pairs"),
])
def test_config_value_is_checked_not_coerced(tmp_path, capsys, block, key,
                                             value, kind):
    base = {"data": {"dir": "g"}, "pyramid": {}, "train": {}}[block]
    cfg = write_config(tmp_path, **{block: {**base, key: value}})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith(f"error: {cfg}: bad config value ({block}.{key} "
                          f"must be {kind}, got {value!r})")


@pytest.mark.parametrize("pyramid, where, value", [
    ({"shared": {"kernel": "5"}}, "pyramid.shared.kernel", "'5'"),
    ({"template": [{"channels": 4.0}]}, "pyramid.template.channels", "4.0"),
])
def test_stage_value_is_checked_under_its_nested_key(tmp_path, capsys,
                                                     pyramid, where, value):
    cfg = write_config(tmp_path, pyramid=pyramid)
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith(f"error: {cfg}: bad config value ({where} must be "
                          f"an integer, got {value})")


def test_partial_stage_block_keeps_that_stages_defaults(tmp_path):
    """A stage block sets only the fields it names: a partial `shared`
    keeps the shared stage's 8 channels, not the template stage's 16."""
    cfg = write_config(tmp_path, pyramid={"shared": {"kernel": 5},
                                          "template": [{"channels": 4}]})
    spec = load_config(cfg).pyramid
    assert spec.shared == StageSpec(kernel=5, channels=8, pool=2)
    assert spec.template == (StageSpec(kernel=3, channels=4, pool=2),)


def test_config_without_blocks_loads_the_dataclass_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 3, "output_dir": "out"}),
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.pyramid == PyramidSpec(levels=3)
    assert cfg.train == TrainConfig(seed=3)
    assert cfg.data["nuisance"] == NuisanceConfig()
    assert load_config(path, seed_override=9).train == TrainConfig(seed=9)


def test_config_block_that_is_not_an_object(tmp_path, capsys):
    cfg = write_config(tmp_path, train=[4])
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert err.startswith("error: train must be a JSON object")


def test_synth_requires_data_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, data={"n_identities": 4})
    err = error_of(capsys, ["synth", "--config", str(cfg)])
    assert "needs a 'dir' entry" in err


def test_train_on_images_smaller_than_the_raw_edge(tmp_path, capsys):
    """A 3-level pyramid whose networks sit at offsets up to 6 needs 100-px
    crops; a 90-px gallery ends the run with an error, not a traceback or
    a model."""
    cfg = write_config(
        tmp_path, data={"dir": "gallery", "n_identities": 4,
                        "images_per_identity": 3, "edge": 90},
        pyramid={"levels": 3,
                 "patch_offsets": [[0, 0], [0, 6], [6, 0], [6, 6]]})
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err == "error: image 90x90 smaller than required crop edge 100\n"
    assert not (tmp_path / "out" / "model.bin").exists()


def test_extract_on_images_smaller_than_the_raw_edge(tmp_path, capsys):
    """A 2-level model reads 36-px crops; a 30-px gallery ends `extract`
    with the error `train` gives for it, naming no crop origin, and no
    features are written."""
    cfg = write_config(tmp_path, data={
        "dir": "gallery", "n_identities": 4, "images_per_identity": 3,
        "edge": 30})
    assert main(["synth", "--config", str(cfg)]) == 0
    model = saved_model(tmp_path, PyramidSpec(levels=2))
    capsys.readouterr()
    err = error_of(capsys, ["extract", "--config", str(cfg), str(model),
                            str(tmp_path / "gallery" / "index.csv")])
    assert err == "error: image 30x30 smaller than required crop edge 36\n"
    assert not (tmp_path / "out" / "features.csv").exists()
    assert error_of(capsys, ["train", "--config", str(cfg)]) == err


def test_train_on_a_holdout_that_keeps_no_identity(tmp_path, capsys):
    """A holdout fraction of 0.8 over 4 identities holds out all 4: `train`
    fails before it writes anything, not after writing the split."""
    cfg = write_config(tmp_path, data={
        "dir": "gallery", "n_identities": 4, "images_per_identity": 3,
        "edge": 36, "holdout_fraction": 0.8})
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err == ("error: holdout fraction 0.8 holds out all 4 identities, "
                   "leaving none to train on\n")
    assert not (tmp_path / "out").exists()


def test_train_on_an_index_with_a_blank_first_line(tmp_path, capsys):
    """A gallery index whose header sits below a blank first line ends
    `train` in the header error, exit 1, with nothing written."""
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    index = tmp_path / "gallery" / "index.csv"
    index.write_text("\n" + index.read_text(encoding="utf-8"),
                     encoding="utf-8")
    capsys.readouterr()
    err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err == f"error: {index}:1: header must start with " \
        f"'path,identity'\n"
    assert not (tmp_path / "out").exists()


def test_train_failure_writes_no_split_files(tmp_path, capsys):
    """3 identities x 3 images keep one identity to fit on, so a 1-level,
    16-px `train` cannot sample pairs: it exits 1 with the error and
    leaves neither split file, nor a model."""
    cfg = write_config(tmp_path, data={
        "dir": "gallery", "n_identities": 3, "images_per_identity": 3,
        "edge": 16}, pyramid={"levels": 1})
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err.startswith("error: cannot sample training pairs: ")
    out = tmp_path / "out"
    for name in ("train_index.csv", "eval_index.csv", "model.bin"):
        assert not (out / name).exists()


@pytest.mark.parametrize("command", ["train", "extract"])
def test_pgm_sample_above_maxval_is_an_error_naming_the_file(
        tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    if command == "extract":
        assert main(["train", "--config", str(cfg)]) == 0
    gallery = tmp_path / "gallery"
    bad = sorted(gallery.glob("*.pgm"))[0].resolve()
    raster = bytearray(36 * 36)
    raster[5] = 200
    bad.write_bytes(b"P5\n36 36\n100\n" + raster)
    capsys.readouterr()
    argv = {"train": ["train", "--config", str(cfg)],
            "extract": ["extract", "--config", str(cfg),
                        str(tmp_path / "out" / "model.bin"),
                        str(gallery / "index.csv")]}[command]
    err = error_of(capsys, argv)
    assert err == f"error: {bad}: PGM sample 200 exceeds maxval 100\n"
    if command == "train":
        assert not (tmp_path / "out" / "model.bin").exists()


@pytest.mark.parametrize("command", ["train", "extract"])
def test_index_row_of_more_than_two_fields_is_an_error(
        pipeline, tmp_path, capsys, command):
    """A gallery index row with a third field ends `train` and `extract`
    in one error line naming the file and the line, with exit 1 and
    nothing written."""
    cfg = write_config(tmp_path)
    assert main(["synth", "--config", str(cfg)]) == 0
    index = tmp_path / "gallery" / "index.csv"
    lines = index.read_text(encoding="utf-8").splitlines()
    lines[2] += ",1.5,2.0"
    index.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    argv = {"train": ["train", "--config", str(cfg)],
            "extract": ["extract", "--config", str(cfg),
                        str(pipeline["model"]), str(index)]}[command]
    err = error_of(capsys, argv)
    assert err == f"error: {index}:3: expected 2 fields (path, identity), " \
        f"got 4\n"
    assert not (tmp_path / "out").exists()


def test_train_divergence_is_an_error(tmp_path, capsys):
    """A learning rate that drives the parameters to inf/NaN ends the run
    with an error, not a traceback or a model."""
    cfg = write_config(tmp_path, train={
        "iterations_per_level": 4, "batch_size": 4,
        "validation_fraction": 0.25, "learning_rate": 1e6})
    assert main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        err = error_of(capsys, ["train", "--config", str(cfg)])
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "model.bin").exists()


def test_train_divergence_stderr_is_only_the_error(tmp_path):
    """Run as a process, a diverging train prints the error line and no
    numpy warning before it (pytest would capture those in-process)."""
    cfg = write_config(tmp_path, train={
        "iterations_per_level": 4, "batch_size": 4,
        "validation_fraction": 0.25, "learning_rate": 1e6})
    assert main(["synth", "--config", str(cfg)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "pyrcnn.cli", "train", "--config", str(cfg)],
        capture_output=True, text=True, timeout=120, env=env_with_package())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: training diverged"), proc.stderr
    assert proc.stderr.count("\n") == 1


# A child process's address-space cap: room for the interpreter, numpy and
# OpenBLAS, far below any of the sizes below
CHILD_ADDRESS_SPACE = 1 << 30


@pytest.mark.parametrize("command, block, key, value", [
    ("eval", "evaluation", "n_pairs", 10**30),
    ("eval", "evaluation", "n_pairs", 10**12),
    ("train", "train", "batch_size", 10**30),
    ("train", "train", "iterations_per_level", 10**30),
    ("synth", "data", "edge", 10**9),
    ("train", "pyramid", "output_dim", 10**12),
    ("train", "pyramid", "shared", {"channels": 10**9}),
], ids=["n_pairs-1e30", "n_pairs-1e12", "batch_size-1e30",
        "iterations_per_level-1e30", "edge-1e9", "output_dim-1e12",
        "shared.channels-1e9"])
def test_oversized_config_value_is_an_error_not_a_traceback(
        pipeline, tmp_path, command, block, key, value):
    """A config size past what numpy can index or the process can hold
    ends in one `error:` line naming the command, with exit code 1.  Each
    case runs in a process under an address-space cap and a timeout, so a
    size that is drawn, not refused, fails the test instead of filling
    the machine."""
    raw = json.loads(write_config(tmp_path).read_text(encoding="utf-8"))
    raw[block][key] = value
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    argv = {"synth": [], "train": [],
            "eval": [pipeline["features"],
                     pipeline["out"] / "eval_index.csv"]}[command]
    if command == "train":
        assert main(["synth", "--config", str(cfg)]) == 0
    capped = ("import resource, sys; "
              f"resource.setrlimit(resource.RLIMIT_AS, "
              f"({CHILD_ADDRESS_SPACE}, {CHILD_ADDRESS_SPACE})); "
              "from pyrcnn.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", capped, command, "--config", str(cfg),
         *map(str, argv)],
        capture_output=True, text=True, timeout=60,
        env={**env_with_package(), "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"error: {command}: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_extract_missing_model_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    err = error_of(capsys, ["extract", "--config", str(cfg),
                            str(tmp_path / "model.bin"),
                            str(tmp_path / "index.csv")])
    assert "file not found" in err


def test_extract_malformed_model_file(pipeline, tmp_path, capsys):
    # the comparator tensor closes the file; give it 3 values instead of 2
    data = pipeline["model"].read_bytes()[:-32]
    bad = tmp_path / "model.bin"
    bad.write_bytes(data + np.asarray([1, 3], "<i8").tobytes()
                    + np.zeros(3, "<f8").tobytes())
    cfg = write_config(tmp_path)
    err = error_of(capsys, ["extract", "--config", str(cfg), str(bad),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith("error: ")
    assert "comparator tensor has 3 values" in err


def test_extract_model_file_save_would_not_write(pipeline, tmp_path, capsys):
    """The comparator tensor that closes the file stored as shape (1, 2):
    it reads as its two values, but the model saves it as shape (2,), and
    load accepts only the bytes save writes."""
    data = pipeline["model"].read_bytes()
    assert data[-32:-16] == np.asarray([1, 2], "<i8").tobytes()
    bad = tmp_path / "model.bin"
    bad.write_bytes(data[:-32] + np.asarray([2, 1, 2], "<i8").tobytes()
                    + data[-16:])
    cfg = write_config(tmp_path)
    err = error_of(capsys, ["extract", "--config", str(cfg), str(bad),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith("error: ")
    assert "not the bytes save_model writes" in err


def test_extract_model_whose_layers_disagree_with_its_spec(pipeline,
                                                         tmp_path, capsys):
    """A 1x1 shared kernel stored under a header that says 5x5: both
    chains close, so only comparing them rejects the file."""
    bad = tmp_path / "model.bin"
    save_model(build_pyramid(PyramidSpec(levels=1, shared=StageSpec(1, 8, 2)),
                             seed=3), bad)
    data = bad.read_bytes()
    bad.write_bytes(data[:40] + np.asarray([5], "<i8").tobytes() + data[48:])
    cfg = write_config(tmp_path)
    err = error_of(capsys, ["extract", "--config", str(cfg), str(bad),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith("error: ")
    assert "level 0 network 0 has stages [(1, 1, 1, 8, 2)," in err


@pytest.mark.parametrize("trained, version, problem", [
    (2, 2, "{path}: 2 of 3 levels trained; extract needs every level"),
    (3, 1, "{path}: a PYRCNN01 model file, but this version reads PYRCNN02 "
           "only; train again to write one"),
])
def test_extract_refuses_a_model_not_fully_trained(pipeline, tmp_path,
                                                   capsys, trained, version,
                                                   problem):
    """A model file with an untrained level, or a fully trained one under
    the magic of format version 1, PYRCNN01, is an error that names the
    problem, and no features.csv is written."""
    model = build_pyramid(PyramidSpec(levels=3), seed=3)
    model.levels_trained = trained
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(f"PYRCNN0{version}".encode() + path.read_bytes()[8:])
    cfg = write_config(tmp_path)
    err = error_of(capsys, ["extract", "--config", str(cfg), str(path),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err == f"error: {problem.format(path=path)}\n"
    assert not (tmp_path / "out" / "features.csv").exists()


@pytest.mark.parametrize("slab", [layers._SLAB_ELEMENTS, 5 * 22 * 22 * 8])
def test_extract_hands_no_stage_or_network_more_than_one_slab(
        tmp_path, monkeypatch, slab):
    """Through `extract`, every batch a frozen stage or a top-level network
    reads, and every top-level grid the networks' windows are cut from,
    holds at most one slab: a 3-level model whose offsets widen the top
    grid to 22 px, on a 100-px gallery."""
    cfg = write_config(tmp_path, data={
        "dir": "gallery", "n_identities": 4, "images_per_identity": 3,
        "edge": 100, "holdout_fraction": 1 / 3})
    assert main(["synth", "--config", str(cfg)]) == 0
    model = saved_model(tmp_path, PyramidSpec(
        levels=3, patch_offsets=((0, 0), (6, 6))))
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    seen = []
    stage_forward, forward = pyramid._stage_forward, pyramid._forward
    preprocess = pyramid.preprocess_dataset
    monkeypatch.setattr(pyramid, "_stage_forward",
                        lambda x, stage: seen.append(x.size)
                        or stage_forward(x, stage))
    monkeypatch.setattr(pyramid, "_forward",
                        lambda n, x, *lit: seen.append(x.size)
                        or forward(n, x, *lit))

    def grids(*args, **kwargs):
        out = preprocess(*args, **kwargs)
        seen.append(out.size)
        return out

    monkeypatch.setattr(pyramid, "preprocess_dataset", grids)
    assert main(["extract", "--config", str(cfg), str(model),
                 str(tmp_path / "gallery" / "index.csv")]) == 0
    assert len(read_features(tmp_path / "out" / "features.csv")) == 12
    assert 0 < max(seen) <= slab


@pytest.mark.parametrize("row, problem", [
    ("a.pgm,single-top,0.1", "dim 'single-top' is not an integer"),
    ("a.pgm,2,0.1,abc", "non-numeric value"),
    ("a.pgm,2,0.1,nan", "non-finite value nan"),
    ("a.pgm,0", "dim 0 is below 1"),
    ("a.pgm,-1,0.1", "dim -1 is below 1"),
    ("b.pgm,1,0.7", "image_path 'b.pgm' repeats an earlier row"),
])
def test_eval_malformed_features_csv(pipeline, tmp_path, capsys, row,
                                     problem):
    features = tmp_path / "features.csv"
    features.write_text(f"image_path,dim\nb.pgm,1,0.5\n{row}\n",
                        encoding="utf-8")
    err = error_of(capsys, ["eval", "--config", str(pipeline["config"]),
                            str(features),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith(f"error: {features}:3: {problem}")


def test_eval_features_csv_without_its_header(pipeline, tmp_path, capsys):
    """A file of vector rows only is refused at line 1, not read without
    its first vector."""
    rows = pipeline["features"].read_text(encoding="utf-8").splitlines()
    features = tmp_path / "features.csv"
    features.write_text("\n".join(rows[1:]) + "\n", encoding="utf-8")
    err = error_of(capsys, ["eval", "--config", str(pipeline["config"]),
                            str(features),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err == f"error: {features}:1: header must be 'image_path,dim'\n"


def test_eval_features_of_mixed_dimensions(pipeline, tmp_path, capsys):
    """Rows of different lengths cannot be compared: an error, not a
    broadcasting traceback."""
    rows = pipeline["features"].read_text(encoding="utf-8").splitlines()
    path, _, *values = rows[1].split(",")
    rows[1] = ",".join([path, str(len(values) - 1), *values[:-1]])
    features = tmp_path / "features.csv"
    features.write_text("\n".join(rows) + "\n", encoding="utf-8")
    err = error_of(capsys, ["eval", "--config", str(pipeline["config"]),
                            str(features),
                            str(pipeline["out"] / "eval_index.csv")])
    assert err.startswith(f"error: {features}: feature rows of different "
                          f"dimensions")


def eval_error(capsys, pipeline, features, index):
    return error_of(capsys, ["eval", "--config", str(pipeline["config"]),
                             str(features), str(index)])


def test_eval_features_csv_that_is_not_utf8(pipeline, tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_bytes(b"image_path,dim\nb.pgm,1,0.5\nc\xff.pgm,1,0.5\n")
    err = eval_error(capsys, pipeline, features,
                     pipeline["out"] / "eval_index.csv")
    assert err.startswith(f"error: {features}:3: not UTF-8 text")


def test_eval_index_csv_that_is_not_utf8(pipeline, tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_bytes(b"path,identity\na.pgm,p0\nb.pgm,p\xe91\n")
    err = eval_error(capsys, pipeline, pipeline["features"], index)
    assert err.startswith(f"error: {index}:3: not UTF-8 text")


def test_index_path_with_a_nul_byte(pipeline, tmp_path, capsys):
    index = tmp_path / "index.csv"
    index.write_bytes(b"path,identity\nb.pgm,p0\na\x00.pgm,p0\n")
    err = eval_error(capsys, pipeline, pipeline["features"], index)
    # Python 3.10's csv module refuses the NUL itself, later ones pass the
    # path on; either way the error names the file and line
    assert err.startswith(f"error: {index}:3: ")
    assert err.count("\n") == 1


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def assert_help_lists_subcommands(argv, env=None):
    proc = subprocess.run([*argv, "--help"], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    for command in ("synth", "train", "extract", "eval"):
        assert command in proc.stdout


def test_console_script_is_installed():
    """The declared `pyrcnn` entry point runs as a process and lists the
    four subcommands, whether or not the package is installed."""
    try:
        import tomllib
    except ImportError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, function = scripts["pyrcnn"].split(":")
    # what the wrapper that an install generates for the entry point runs
    launcher = (f"import sys; from {module} import {function}; "
                f"sys.exit({function}())")
    assert_help_lists_subcommands([sys.executable, "-c", launcher],
                                  env=env_with_package())
    exe = shutil.which("pyrcnn")
    if exe is not None:
        assert_help_lists_subcommands([exe])
