"""Byte-for-byte comparison of every run artefact between two checkouts.

    python3 tools/same_bytes.py --parent ../base --change .

Runs ``pyrcnn synth``, ``train``, ``extract`` and ``eval`` with each
checkout's ``src/`` for three configs, each in its own run directory
under a temporary directory, removed afterwards:

- ``readme``: the README config, seed 7;
- ``offsets``: a 2-level pyramid of 4 networks per level at patch offsets
  (0, 0), (0, 6), (6, 0), (6, 6), seed 11;
- ``crop``: the default 3-level pyramid on a 79-px gallery, seed 13, so
  the 76-px center crop starts at (79 - 76) // 2 = 1 and a change in how
  its origin rounds changes the bytes (the other two crop at 0 and 14).

It then compares, per config, ``model.bin``, every ``trace_level*.csv``,
``train_index.csv``, ``eval_index.csv``, ``features.csv`` and
``report.csv``.  The CLI never trains the end-to-end network, whose 36-px
stage is the one conv the backward splits into row bands, so a fourth
run, ``monolith``, synthesizes a small gallery (seed 17) and, in a process
of its own, trains ``build_monolithic``'s network with ``train_network``
on the gallery's 76-px center crops for a few steps (`train_monolith`);
its ``monolith.bin``, the trained parameters' bytes, is compared too.
The index files and ``features.csv`` name each image by
its path inside the run directory, so their first column is compared with
the run directory's own prefix mapped to ``<run>``; every other byte must
be the same.  It prints one verdict per file and exits 1 on the first
difference (or when a side's command fails), else 0.  Both sides run with
one BLAS thread.  First it prints each side's runtime BLAS
configuration, read in a process with that side's environment
(``blas_runtime``, from ``pyrcnn.telemetry`` of the tool's own checkout):
the bytes compared are those of that kernel, and ``OPENBLAS_CORETYPE`` in
the tool's environment picks another.

A change that renames or drops a config key cannot run the parent's
config, nor the parent the change's.  ``--parent-config NAME=FILE`` runs
the parent side of config NAME from the JSON config in FILE instead, say
the config with the old key, while the change runs the tool's own:

    python3 tools/same_bytes.py --parent ../base --change . \\
        --parent-config offsets=old_offsets.json
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

# `blas_runtime` from this tool's own checkout, loaded by path, so that a
# side whose engine lacks it still runs and no process imports two engines
_TELEMETRY = importlib.util.spec_from_file_location(
    "_own_telemetry",
    Path(__file__).resolve().parents[1] / "src" / "pyrcnn" / "telemetry.py")
_telemetry = importlib.util.module_from_spec(_TELEMETRY)
_TELEMETRY.loader.exec_module(_telemetry)
blas_runtime = _telemetry.blas_runtime

README_CONFIG = {
    "seed": 7,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 48, "images_per_identity": 12,
             "edge": 76, "holdout_fraction": 1 / 3},
    "pyramid": {"levels": 3},
    "train": {"iterations_per_level": 200, "batch_size": 32},
    "evaluation": {"n_pairs": 2000, "fpr_targets": [0.1, 0.01, 0.001]},
}
OFFSETS_CONFIG = {
    "seed": 11,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 24, "images_per_identity": 8,
             "edge": 76},
    "pyramid": {"levels": 2,
                "patch_offsets": [[0, 0], [0, 6], [6, 0], [6, 6]]},
    "train": {"iterations_per_level": 60, "batch_size": 16},
    "evaluation": {"n_pairs": 2000},
}
CROP_CONFIG = {
    "seed": 13,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 16, "images_per_identity": 6,
             "edge": 79},
    "pyramid": {"levels": 3},
    "train": {"iterations_per_level": 40, "batch_size": 16},
    "evaluation": {"n_pairs": 500},
}
CONFIGS = {"readme": README_CONFIG, "offsets": OFFSETS_CONFIG,
           "crop": CROP_CONFIG}
MONOLITH_CONFIG = {
    "seed": 17,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 8, "images_per_identity": 4,
             "edge": 80},
}
MONOLITH_STEPS, MONOLITH_BATCH = 4, 8
SIDES = ("parent", "change")
# files whose first column is an image path inside the run directory
PATH_COLUMN = ("train_index.csv", "eval_index.csv", "features.csv")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def artefacts(out_a: Path, out_b: Path) -> list[str]:
    """The names to compare in two output directories: the fixed files and
    every trace either side wrote."""
    traces = {p.name for out in (out_a, out_b)
              for p in out.glob("trace_level*.csv")}
    return ["model.bin", *sorted(traces), "train_index.csv", "eval_index.csv",
            "features.csv", "report.csv"]


def _mapped_lines(path: Path, run_dir: Path) -> list[bytes]:
    """The lines of a path-column file with the run directory's prefix of
    each line's first field replaced by ``<run>``."""
    prefix = str(run_dir).encode() + os.sep.encode()
    lines = path.read_bytes().splitlines(keepends=True)
    return [b"<run>" + line[len(prefix):] if line.startswith(prefix)
            else line for line in lines]


def compare_file(name: str, a: Path, b: Path, run_a: Path,
                 run_b: Path) -> str | None:
    """None when file `name` of output directories `a` and `b` holds the
    same bytes (the path column mapped between run directories `run_a` and
    `run_b`), else what differs."""
    pa, pb = a / name, b / name
    missing = [side for side, p in zip(SIDES, (pa, pb)) if not p.is_file()]
    if missing:
        return f"missing on {' and '.join(missing)}"
    if name in PATH_COLUMN:
        la, lb = _mapped_lines(pa, run_a), _mapped_lines(pb, run_b)
        for k, (x, y) in enumerate(zip(la, lb), start=1):
            if x != y:
                return f"line {k} differs"
        if len(la) != len(lb):
            return f"{len(la)} lines against {len(lb)}"
        return None
    da, db = pa.read_bytes(), pb.read_bytes()
    if da == db:
        return None
    at = next((k for k, (x, y) in enumerate(zip(da, db)) if x != y),
              min(len(da), len(db)))
    return f"byte {at} differs ({len(da)} against {len(db)} bytes)"


def compare_runs(run_a: Path, run_b: Path, label: str = "",
                 names: list[str] | None = None) -> bool:
    """Print one verdict per artefact of run directories `run_a` and
    `run_b` (outputs under ``out/``; `names`, or every one `artefacts`
    lists) and stop at the first difference; True when every file is the
    same."""
    out_a, out_b = run_a / "out", run_b / "out"
    for name in names or artefacts(out_a, out_b):
        problem = compare_file(name, out_a, out_b, run_a, run_b)
        print(f"{label}{name}: {problem or 'same'}", flush=True)
        if problem:
            return False
    return True


def report_metrics(path: Path) -> dict:
    """The named metric rows of a ``report.csv`` (``auc``,
    ``best_accuracy``, ...) as floats, before its ROC rows."""
    metrics = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row == ["roc_points"]:
                break
            if row != ["metric", "value"]:
                metrics[row[0]] = float(row[1])
    return metrics


def side_env(checkout: Path) -> dict:
    """The environment a side's commands run in: the engine in
    `checkout`/src and one BLAS thread."""
    return {**os.environ, "PYTHONPATH": str(checkout / "src"),
            **{name: "1" for name in BLAS_ENV}}


def blas_runtime_in(env: dict) -> str:
    """`blas_runtime` as a process with environment `env` reads it (a
    fresh process: the core is chosen when the library loads)."""
    code = (f"import runpy; print(runpy.run_path("
            f"{str(Path(__file__).resolve())!r})['blas_runtime']())")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _run(name: str, cmd: list, run_dir: Path, env: dict) -> str | None:
    """None when `cmd` succeeds in `run_dir`, else `name` and its error."""
    proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                          text=True)
    return f"{name}: {proc.stderr.strip()[-2000:]}" if proc.returncode \
        else None


def _cli_runs(checkout: Path, run_dir: Path, config: dict, commands):
    """Write `config` to `run_dir`/run.json, then run each of the CLI
    `commands` (argument lists) on it with the engine in `checkout`/src;
    None, or the first failing command's error."""
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.json"
    cfg.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    for args in commands:
        error = _run(args[0], [sys.executable, "-m", "pyrcnn.cli", args[0],
                               "--config", str(cfg), *map(str, args[1:])],
                     run_dir, side_env(checkout))
        if error:
            return error
    return None


def run_pipeline(checkout: Path, run_dir: Path, config: dict) -> str | None:
    """synth, train, extract and eval of `config` in `run_dir` with the
    engine in `checkout`/src; None, or the failing command's error."""
    out = run_dir / "out"
    return _cli_runs(checkout, run_dir, config, (
        ["synth"], ["train"],
        ["extract", out / "model.bin", out / "eval_index.csv"],
        ["eval", out / "features.csv", out / "eval_index.csv"]))


def train_monolith() -> None:
    """In a run directory holding `MONOLITH_CONFIG`'s run.json and
    gallery: train ``build_monolithic``'s network of the default 3-level
    spec, seeded by the config, with ``train_network`` for
    `MONOLITH_STEPS` steps of `MONOLITH_BATCH` pairs on every image's
    76-px center crop, and write each layer's parameter arrays (`params`:
    a conv's weights and bias, the head's weights), then the comparator's
    (log_alpha, beta), as float64 bytes to out/monolith.bin.
    It imports the engine of the process's own path."""
    import numpy as np
    from pyrcnn import (PairSampler, PyramidSpec, TrainConfig,
                        build_monolithic, center_crop, load_image, load_index,
                        make_rng, train_network)
    config = json.loads(Path("run.json").read_text(encoding="utf-8"))
    seed = config["seed"]
    index = load_index(Path(config["data"]["dir"]) / "index.csv")
    net, comp = build_monolithic(PyramidSpec(levels=3), seed)
    crops = [center_crop(load_image(r), net.input_size)
             for r in index.records]
    sampler = PairSampler([r.identity for r in index.records],
                          make_rng(seed, "pairs"))
    train_network(net, comp, crops, sampler,
                  TrainConfig(seed=seed, batch_size=MONOLITH_BATCH),
                  iterations=MONOLITH_STEPS)
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    arrays = [a for layer in net.layers for a in layer.params]
    (out / "monolith.bin").write_bytes(b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in arrays + [np.array([comp.log_alpha, comp.beta])]))


def run_monolith(checkout: Path, run_dir: Path) -> str | None:
    """synth of `MONOLITH_CONFIG` in `run_dir`, then `train_monolith` in a
    process with the engine in `checkout`/src; None, or the failing
    step's error."""
    code = (f"import runpy; runpy.run_path("
            f"{str(Path(__file__).resolve())!r})['train_monolith']()")
    return (_cli_runs(checkout, run_dir, MONOLITH_CONFIG, (["synth"],))
            or _run("train_monolith", [sys.executable, "-c", code], run_dir,
                    side_env(checkout)))


def parent_config(text: str) -> tuple[str, dict]:
    """``NAME=FILE`` -> (NAME, the JSON config in FILE): the config the
    parent side runs in place of `CONFIGS`[NAME]."""
    name, sep, path = text.partition("=")
    if not sep or name not in CONFIGS:
        raise argparse.ArgumentTypeError(
            f"expected NAME=FILE with NAME one of {', '.join(CONFIGS)}, "
            f"got {text!r}")
    try:
        return name, json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--parent-config", type=parent_config, action="append",
                    default=[], metavar="NAME=FILE",
                    help="run the parent side of config NAME from the JSON "
                         "config in FILE (a change that renames or drops a "
                         "config key); repeat for several")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    parent_configs = dict(args.parent_config)
    for side in SIDES:
        print(f"{side} BLAS: {blas_runtime_in(side_env(checkouts[side]))}",
              flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        runners = [(name, {
            "parent": partial(run_pipeline,
                              config=parent_configs.get(name, config)),
            "change": partial(run_pipeline, config=config)}, None)
            for name, config in CONFIGS.items()]
        runners.append(("monolith", dict.fromkeys(SIDES, run_monolith),
                        ["monolith.bin"]))
        for name, run, names in runners:
            runs = {side: work / name / side for side in SIDES}
            for side in SIDES:
                error = run[side](checkouts[side], runs[side])
                if error:
                    print(f"{name}: {side} failed: {error}", flush=True)
                    return 1
            if not compare_runs(runs["parent"], runs["change"], f"{name} ",
                                names):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
