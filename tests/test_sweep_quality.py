"""tools/sweep_quality.py: one pipeline per seed, and the schema of the
record it writes."""

import importlib.util
import json
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "sweep_quality", _ROOT / "tools" / "sweep_quality.py")
sweep_quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_quality)

TINY = {
    "seed": 0,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 16, "images_per_identity": 3,
             "edge": 36, "holdout_fraction": 0.5},
    "pyramid": {"levels": 2},
    "train": {"iterations_per_level": 12, "batch_size": 4},
    "evaluation": {"n_pairs": 60},
}


def test_the_seed_set_is_fixed():
    assert sweep_quality.SEEDS[:10] == (61, 195, 7, 101, 173, 175, 180, 202,
                                        303, 808)
    assert len(set(sweep_quality.SEEDS)) == len(sweep_quality.SEEDS) >= 20
    assert sweep_quality.CONFIG["data"] == {
        "dir": "gallery", "n_identities": 48, "images_per_identity": 12,
        "edge": 76, "holdout_fraction": 1 / 3}
    assert sweep_quality.CONFIG["train"] == {"iterations_per_level": 200,
                                             "batch_size": 32}
    assert sweep_quality.CONFIG["evaluation"]["n_pairs"] == 2000


def test_a_two_seed_sweep_records_every_field(tmp_path):
    result = sweep_quality.sweep(_ROOT, TINY, (5, 6), tmp_path)
    result = json.loads(json.dumps(result))  # what the file holds
    assert result["seeds"] == [5, 6]
    assert [run["seed"] for run in result["runs"]] == [5, 6]
    for run in result["runs"]:
        assert "error" not in run, run.get("error")
        assert run["config"] == {**TINY, "seed": run["seed"]}
        assert [level["level"] for level in run["levels"]] == [0, 1]
        for level in run["levels"]:
            assert np.isfinite(level["last_loss_mean"])
            # validated after every tenth step and after the last
            assert [i for i, _ in level["val_curve"]] == [9, 11]
            assert all(0.0 <= auc <= 1.0 for _, auc in level["val_curve"])
            # the flag and the wall seconds of the run record ``train``
            # wrote
            assert isinstance(level["collapse"], bool)
            assert level["wall_s"] > 0.0
        record = json.loads((tmp_path / f"seed{run['seed']}" / "out" /
                             "run.json").read_text(encoding="utf-8"))
        for name in ("collapse", "wall_s"):
            assert [level[name] for level in run["levels"]] == \
                [level[name] for level in record["levels"]]
        for name in ("heldout_auc", "best_accuracy", "raw_pixel_auc"):
            assert 0.0 <= run[name] <= 1.0
        assert run["numpy"] == np.__version__
        assert isinstance(run["blas_runtime"], str) and run["blas_runtime"]
    # the two seeds make two galleries
    assert result["runs"][0]["raw_pixel_auc"] != \
        result["runs"][1]["raw_pixel_auc"]
    for name, stats in result["summary"].items():
        values = [run[name] for run in result["runs"]]
        assert stats == {"min": min(values),
                         "median": (values[0] + values[1]) / 2}


def test_a_level_record_reads_its_trace(tmp_path):
    """The last-50 loss mean, and a NaN validation AUC (no validation
    set) as null."""
    trace = tmp_path / "trace_level2.csv"
    trace.write_text("iteration,mean_loss,val_auc\n" + "".join(
        f"{i},{0.5 if i < 10 else 0.25},{'nan' if i == 9 else ''}\n"
        for i in range(60)) + "60,0.25,0.75\n", encoding="utf-8")
    assert sweep_quality.level_record(trace) == {
        "level": 2, "last_loss_mean": 0.25,
        "val_curve": [[9, None], [60, 0.75]]}


def test_a_failed_run_is_recorded_and_left_out_of_the_summary(tmp_path):
    broken = {**TINY, "pyramid": {"levels": 3}}  # 36-px images, 76-px crops
    result = sweep_quality.sweep(_ROOT, broken, (5,), tmp_path)
    (run,) = result["runs"]
    assert run["error"].startswith("train: error: ")
    assert result["summary"] == {name: None
                                 for name in sweep_quality.SUMMARY}


def test_collapse_flags_read_the_run_record(tmp_path):
    """Each level's flag and wall seconds from ``run.json``, None for a
    field a level's record lacks; nothing from an engine that writes no
    run record."""
    path = tmp_path / "run.json"
    assert sweep_quality.run_record_levels(path) == {}
    path.write_text(json.dumps({"levels": [
        {"level": 0, "collapse": True, "wall_s": 0.25},
        {"level": 1, "collapse": None, "wall_s": 0.5},
        {"level": 2, "collapse": False}]}), encoding="utf-8")
    assert sweep_quality.run_record_levels(path) == {
        0: {"collapse": True, "wall_s": 0.25},
        1: {"collapse": None, "wall_s": 0.5},
        2: {"collapse": False, "wall_s": None}}
