"""Run telemetry: the ``run.json`` that ``train`` writes, its collapse
flag and the level health it records."""

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from pyrcnn import (LevelTrace, NuisanceConfig, PyramidSpec, TrainConfig,
                    build_pyramid, greedy_train, load_image, synth_generate,
                    telemetry)
from pyrcnn.cli import main
from pyrcnn.pyramid import LevelHealth

LEVEL_KEYS = {"level", "wall_s", "last_loss_mean", "last_val_auc",
              "embedding_spread", "dead_channels", "dead_units", "collapse"}


def trace_rows(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_train_writes_a_run_record_of_every_level(tmp_path):
    """``run.json`` holds the numeric environment and, per level, what its
    trace says (the last-50 loss mean, the last validation AUC) and the
    health of its network 0, whose flag follows the collapse rule."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "output_dir": "out",
        "data": {"dir": "gallery", "n_identities": 8,
                 "images_per_identity": 3, "edge": 36},
        "pyramid": {"levels": 2},
        "train": {"iterations_per_level": 60, "batch_size": 4,
                  "validation_fraction": 0.5}}), encoding="utf-8")
    for command in ("synth", "train"):
        assert main([command, "--config", str(config)]) == 0
    out = tmp_path / "out"
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record.keys() == {"numpy", "blas_runtime", "levels"}
    assert record["numpy"] == np.__version__
    assert record["blas_runtime"] == telemetry.blas_runtime()
    spec = PyramidSpec(levels=2)
    assert [level["level"] for level in record["levels"]] == [0, 1]
    for level in record["levels"]:
        assert level.keys() == LEVEL_KEYS
        rows = trace_rows(out / f"trace_level{level['level']}.csv")
        losses = [float(row["mean_loss"]) for row in rows]
        aucs = [float(row["val_auc"]) for row in rows if row["val_auc"]]
        assert level["last_loss_mean"] == statistics.fmean(losses[-50:])
        assert level["last_val_auc"] == aucs[-1]
        assert level["wall_s"] > 0.0
        assert level["embedding_spread"] >= 0.0
        assert len(level["dead_channels"]) == \
            len(spec.stage_geometry(level["level"]))
        for share in (*level["dead_channels"], level["dead_units"]):
            assert 0.0 <= share <= 1.0
        assert level["collapse"] is (level["dead_units"] == 1.0
                                     or level["last_val_auc"] < 0.6)


def test_run_record_leaves_the_traces_and_model_alone(tmp_path):
    """A second training run writes the same model and traces, whatever
    its run record's wall times read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 4, "output_dir": "out",
        "data": {"dir": "gallery", "n_identities": 6,
                 "images_per_identity": 3, "edge": 36},
        "pyramid": {"levels": 2},
        "train": {"iterations_per_level": 4, "batch_size": 4}}),
        encoding="utf-8")
    assert main(["synth", "--config", str(config)]) == 0
    names = ("model.bin", "trace_level0.csv", "trace_level1.csv")
    runs = []
    for _ in range(2):
        assert main(["train", "--config", str(config)]) == 0
        runs.append([(tmp_path / "out" / name).read_bytes()
                     for name in names])
        assert (tmp_path / "out" / "run.json").is_file()
    assert runs[0] == runs[1]


def gallery(tmp_path, seed):
    spec = PyramidSpec(levels=1)
    index = synth_generate(8, 4, spec.raw_data_edge(), NuisanceConfig(),
                           seed=seed, out_dir=tmp_path / "g")
    return spec, [load_image(r) for r in index.records]


@pytest.mark.parametrize("dead", [3, 8])
def test_forced_dead_entry_channels_are_recorded(tmp_path, dead):
    """Entry channels held below zero by a large negative bias (and the
    rest held alive by a positive one) are the entry stage's recorded dead
    share; with all of them dead, every validation image gets one
    embedding and the level is flagged, as seed 195's level 1 is."""
    spec, images = gallery(tmp_path, 41)
    model = build_pyramid(spec, seed=41)
    bias = model.stages[0].conv.bias
    bias[:dead], bias[dead:] = -1e6, 10.0
    cfg = TrainConfig(learning_rate=0.0, batch_size=4,
                      iterations_per_level=2, seed=41,
                      validation_fraction=0.5)
    (trace,) = greedy_train(model, images, cfg)
    assert trace.health.dead_channels[0] == dead / bias.size
    telemetry.write_run(tmp_path / "run.json", [trace])
    (level,) = json.loads((tmp_path / "run.json").read_text())["levels"]
    assert level["dead_channels"][0] == dead / bias.size
    if dead == bias.size:
        assert level["dead_units"] == 1.0
        assert level["embedding_spread"] < 1e-12
        assert level["collapse"] is True
    else:
        assert level["dead_units"] == 0.0


def health(dead_units):
    return LevelHealth(spread=1.0, dead_channels=(0.0,),
                       dead_units=dead_units)


@pytest.mark.parametrize("aucs, state, flag", [
    ([0.9], None, None),               # no validation set
    ([0.9, math.nan], health(0.0), None),
    ([0.9, 0.59], health(0.0), True),  # below two standard errors
    ([0.5, 0.6], health(0.0), False),
    ([0.95], health(1.0), True),       # one embedding for every image
    ([math.nan], health(1.0), True),
])
def test_collapse_rule(aucs, state, flag):
    trace = LevelTrace(0, losses=[0.5], val_aucs=aucs, health=state)
    assert telemetry.collapsed(trace) is flag


def test_a_level_without_validation_records_nulls(tmp_path):
    """NaN AUCs and a missing health are null; the file stays strict
    JSON."""
    trace = LevelTrace(2, losses=[0.7] * 60 + [0.5] * 50,
                       val_aucs=[math.nan], val_iterations=[109], wall_s=1.5)
    telemetry.write_run(tmp_path / "run.json", [trace])
    text = (tmp_path / "run.json").read_text(encoding="utf-8")
    assert "NaN" not in text
    (level,) = json.loads(text)["levels"]
    assert level == {"level": 2, "wall_s": 1.5, "last_loss_mean": 0.5,
                     "last_val_auc": None, "embedding_spread": None,
                     "dead_channels": None, "dead_units": None,
                     "collapse": None}

