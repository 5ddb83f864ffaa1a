"""Held-out quality of the default pipeline over a fixed set of seeds.

    python3 tools/sweep_quality.py --checkout . --out QUALITY_<n>.json

For each seed of `SEEDS`, runs ``pyrcnn synth``, ``train``, ``extract``
and ``eval`` of `CONFIG` (the greedy_default config: a 48 x 12 gallery of
76-px images, a third of the identities held out, 3 levels x 200
iterations of 32 pairs, 2,000 eval pairs) with ``--seed s`` on every
command, so the seed picks the gallery, the model and the training.  Each
run has a run directory of its own under a temporary directory, removed
afterwards, and each command is a process of its own with the engine in
the checkout's ``src/`` and one BLAS thread, as ``tools/same_bytes.py``
runs its sides.  One more process per run (`raw_pixels`) scores the same
eval pairs on raw pixels, criterion 3's baseline, and reads the numeric
environment.

The output file holds, per run: the seed and the config; each level's
mean loss over its last `LAST_LOSSES` iterations and its validation
curve, read from ``trace_level*.csv``, and its ``collapse`` flag and
wall seconds ``wall_s``, read from the ``run.json`` that ``train`` writes
(null where the engine writes none); the held-out AUC and best accuracy
from ``report.csv``; the raw-pixel AUC of the same pairs; and
``blas_runtime`` (``pyrcnn.telemetry.blas_runtime`` of the tool's own
checkout) and numpy's version.  Under ``summary`` it holds the minimum
and the median over the runs of the held-out AUC, the best accuracy and
the raw-pixel AUC.  A run whose command fails is recorded with its error
and left out of the summary.

`SEEDS` is fixed: the ten seeds of ROADMAP item 2's table, then ten that
no change has been tuned against.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import same_bytes  # noqa: E402

CONFIG = same_bytes.README_CONFIG
ITEM_2_SEEDS = (61, 195, 7, 101, 173, 175, 180, 202, 303, 808)
UNTUNED_SEEDS = tuple(range(4401, 4411))
SEEDS = ITEM_2_SEEDS + UNTUNED_SEEDS
LAST_LOSSES = 50
SUMMARY = ("heldout_auc", "best_accuracy", "raw_pixel_auc")
# what a level's record takes from the ``run.json`` that ``train`` writes
RUN_RECORD_FIELDS = ("collapse", "wall_s")


def raw_pixels(seed: int) -> None:
    """In a run directory after ``eval``: score the eval pairs that
    ``eval`` drew for `seed` on each held-out image's raw float pixels,
    and write that AUC, numpy's version and `blas_runtime` to
    out/raw_pixels.json.  It imports the engine of the process's own
    path."""
    import numpy as np
    from pyrcnn import (derive_seed, evaluate_distances, load_image,
                        load_index, sample_pairs)
    from pyrcnn.cli import load_config
    from pyrcnn.data import float_pixels
    from pyrcnn.metrics import pair_distances
    cfg = load_config("run.json", seed)
    out = cfg.output_dir
    index = load_index(out / "eval_index.csv")
    pairs = sample_pairs(index, cfg.evaluation["n_pairs"],
                         derive_seed(cfg.seed, "eval-pairs"))
    raw = np.stack([float_pixels(image.raster, image.maxval).reshape(-1)
                    for image in map(load_image, index.records)])
    auc = evaluate_distances(*pair_distances(raw, pairs), ()).auc
    (out / "raw_pixels.json").write_text(json.dumps(
        {"raw_pixel_auc": auc, "numpy": np.__version__,
         "blas_runtime": same_bytes.blas_runtime()}) + "\n",
        encoding="utf-8")


def level_record(path: Path) -> dict:
    """A ``trace_level<l>.csv``'s level, its mean loss over the last
    `LAST_LOSSES` iterations and its [iteration, val_auc] curve (val_auc
    null where the trace reads NaN: no validation set)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    losses = [float(row["mean_loss"]) for row in rows]
    aucs = [(int(row["iteration"]), float(row["val_auc"]))
            for row in rows if row["val_auc"]]
    return {"level": int(path.stem.removeprefix("trace_level")),
            "last_loss_mean": statistics.fmean(losses[-LAST_LOSSES:]),
            "val_curve": [[i, None if math.isnan(auc) else auc]
                          for i, auc in aucs]}


def run_record_levels(path: Path) -> dict:
    """level -> that level's `RUN_RECORD_FIELDS` (its ``collapse`` flag
    and its ``wall_s``) in the ``run.json`` that ``train`` wrote at
    `path`, None for a field the record lacks; empty when there is no such
    file (an engine that writes none)."""
    if not path.is_file():
        return {}
    record = json.loads(path.read_text(encoding="utf-8"))
    return {level["level"]: {name: level.get(name)
                             for name in RUN_RECORD_FIELDS}
            for level in record["levels"]}


def run_seed(checkout: Path, run_dir: Path, config: dict, seed: int) -> dict:
    """One seed's pipeline of `config` in `run_dir` with the engine in
    `checkout`/src, then `raw_pixels`; its record."""
    config = {**config, "seed": seed}
    out = run_dir / config["output_dir"]
    flag = ["--seed", seed]
    error = same_bytes._cli_runs(checkout, run_dir, config, (
        ["synth", *flag], ["train", *flag],
        ["extract", *flag, out / "model.bin", out / "eval_index.csv"],
        ["eval", *flag, out / "features.csv", out / "eval_index.csv"]))
    code = (f"import runpy; runpy.run_path("
            f"{str(Path(__file__).resolve())!r})['raw_pixels']({seed})")
    error = error or same_bytes._run(
        "raw_pixels", [sys.executable, "-c", code], run_dir,
        same_bytes.side_env(checkout))
    record = {"seed": seed, "config": config}
    if error:
        return {**record, "error": error}
    report = same_bytes.report_metrics(out / "report.csv")
    fields = run_record_levels(out / "run.json")
    unknown = dict.fromkeys(RUN_RECORD_FIELDS)
    return {**record,
            "levels": [{**level, **fields.get(level["level"], unknown)}
                       for level in map(level_record,
                                        sorted(out.glob("trace_level*.csv")))],
            "heldout_auc": report["auc"],
            "best_accuracy": report["best_accuracy"],
            **json.loads((out / "raw_pixels.json").read_text(
                encoding="utf-8"))}


def summary(runs: list[dict]) -> dict:
    """Per `SUMMARY` metric, the minimum and median over the runs that
    succeeded (None without one)."""
    done = [run for run in runs if "error" not in run]
    return {name: {"min": min(values), "median": statistics.median(values)}
            if (values := [run[name] for run in done]) else None
            for name in SUMMARY}


def sweep(checkout: Path, config: dict, seeds, work: Path) -> dict:
    """`run_seed` of `config` for each of `seeds`, in run directories under
    `work`, and their `summary`."""
    runs = []
    for seed in seeds:
        runs.append(run_seed(checkout, work / f"seed{seed}", config, seed))
        shown = runs[-1].get("heldout_auc", runs[-1].get("error"))
        print(f"seed {seed}: {shown}", flush=True)
    return {"seeds": list(seeds), "runs": runs, "summary": summary(runs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, required=True,
                    help="tree whose src/ runs the pipeline")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        result = sweep(args.checkout.resolve(), CONFIG, SEEDS,
                       Path(tmp).resolve())
    args.out.write_text(json.dumps(result, indent=1) + "\n",
                        encoding="utf-8")
    return 1 if any("error" in run for run in result["runs"]) else 0


if __name__ == "__main__":
    sys.exit(main())
