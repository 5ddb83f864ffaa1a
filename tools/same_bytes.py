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
``report.csv``.  The index files and ``features.csv`` name each image by
its path inside the run directory, so their first column is compared with
the run directory's own prefix mapped to ``<run>``; every other byte must
be the same.  It prints one verdict per file and exits 1 on the first
difference (or when a side's command fails), else 0.  Both sides run with
one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

README_CONFIG = {
    "seed": 7,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 48, "images_per_identity": 12,
             "edge": 76, "holdout_fraction": 1 / 3},
    "pyramid": {"levels": 3},
    "train": {"iterations_per_level": 200, "batch_size": 32},
    "extraction": {"scheme": "single-top", "normalize": False},
    "evaluation": {"n_pairs": 2000, "fpr_targets": [0.1, 0.01, 0.001]},
}
OFFSETS_CONFIG = {
    "seed": 11,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 24, "images_per_identity": 8,
             "edge": 76},
    "pyramid": {"levels": 2, "networks_per_level": 4,
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


def compare_runs(run_a: Path, run_b: Path, label: str = "") -> bool:
    """Print one verdict per artefact of run directories `run_a` and
    `run_b` (outputs under ``out/``) and stop at the first difference;
    True when every file is the same."""
    out_a, out_b = run_a / "out", run_b / "out"
    for name in artefacts(out_a, out_b):
        problem = compare_file(name, out_a, out_b, run_a, run_b)
        print(f"{label}{name}: {problem or 'same'}", flush=True)
        if problem:
            return False
    return True


def run_pipeline(checkout: Path, run_dir: Path, config: dict) -> str | None:
    """synth, train, extract and eval of `config` in `run_dir` with the
    engine in `checkout`/src; None, or the failing command's error."""
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.json"
    cfg.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           **{name: "1" for name in BLAS_ENV}}
    out = run_dir / "out"
    for args in (["synth"], ["train"],
                 ["extract", out / "model.bin", out / "eval_index.csv"],
                 ["eval", out / "features.csv", out / "eval_index.csv"]):
        cmd = [sys.executable, "-m", "pyrcnn.cli", args[0], "--config",
               str(cfg), *map(str, args[1:])]
        proc = subprocess.run(cmd, cwd=run_dir, env=env, capture_output=True,
                              text=True)
        if proc.returncode:
            return f"{args[0]}: {proc.stderr.strip()[-2000:]}"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        for name, config in CONFIGS.items():
            runs = {side: work / name / side for side in SIDES}
            for side in SIDES:
                error = run_pipeline(checkouts[side], runs[side], config)
                if error:
                    print(f"{name}: {side} failed: {error}", flush=True)
                    return 1
            if not compare_runs(runs["parent"], runs["change"], f"{name} "):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
