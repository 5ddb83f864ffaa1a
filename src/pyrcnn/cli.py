"""Command-line pipeline: synth -> train -> extract -> eval.

One JSON config drives everything; unknown keys anywhere in it are errors.
Relative paths in the config resolve against the config file's directory,
every artifact a command produces lands under ``output_dir``, and all
randomness fans out from the single config seed (``--seed`` overrides it),
so rerunning a command with the same inputs reproduces its outputs byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .data import (DataError, NuisanceConfig, load_image, load_index,
                   sample_pairs, split_by_identity, synth_generate,
                   write_index)
from .features import (extract_representations, read_features,
                       write_features, write_report)
from .metrics import MetricError, evaluate_distances, pair_distances
from .pyramid import (PyramidError, PyramidSpec, StageSpec, TrainConfig,
                      build_pyramid, greedy_train, load_model, save_model)
from .seeding import derive_seed
from .telemetry import write_run
from .tensor import TensorError


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    path: Path  # the config file, resolved; relative paths start at its dir
    data: dict
    pyramid: PyramidSpec
    train: TrainConfig
    evaluation: dict


def _check_keys(block: dict, allowed: Iterable[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = block.keys() - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}"
        )


def _int(value, name: str) -> int:
    """`value` itself when it is a JSON integer; a bool or a float is refused,
    never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    number = float(value)  # OverflowError beyond the float range
    if not np.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _nullable(kind):
    """`kind`, with JSON null let through as None."""
    return lambda value, name: None if value is None else kind(value, name)


def _offsets(value, name: str) -> tuple[tuple[int, int], ...]:
    """(x, y) pairs from a list of two-integer lists; any other length is
    refused, never padded or cut."""
    if not isinstance(value, list) or any(
            not isinstance(o, list) or len(o) != 2 for o in value):
        raise TypeError(f"{name} must be a list of [x, y] pairs, got "
                        f"{value!r}")
    return tuple((_int(x, name), _int(y, name)) for x, y in value)


def _block(block: dict, table: dict, where: str) -> dict:
    """The keys `block` sets, each checked by its `table` entry as
    `where.key`; a key `table` lacks is an error."""
    _check_keys(block, table, where)
    return {key: table[key](value, f"{where}.{key}")
            for key, value in block.items()}


_STAGE = {"kernel": _int, "channels": _int, "pool": _int}


def _shared(value, name: str) -> StageSpec:
    """The default shared stage with the fields `value` sets."""
    return replace(PyramidSpec.shared, **_block(value, _STAGE, name))


def _template(value, name: str) -> tuple[StageSpec, ...]:
    """One stage per object, each the default template stage with the
    fields its object sets."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of stage objects, got "
                        f"{value!r}")
    return tuple(replace(PyramidSpec.template[0], **_block(v, _STAGE, name))
                 for v in value)


def _fpr_targets(value, name: str) -> list[float]:
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list of numbers, got {value!r}")
    targets = [_number(t, name) for t in value]
    for t in targets:
        if not 0.0 <= t < 1.0:
            raise ConfigError(f"FPR target {t} outside [0, 1)")
    return targets


def _pair_count(value, name: str) -> int:
    if _int(value, name) < 2:
        raise ConfigError(f"{name} must be >= 2 (one matched and one "
                          f"unmatched pair), got {value}")
    return value


_NUISANCE = {"brightness_delta": _number, "max_translation": _nullable(_int),
             "noise_sigma": _number}

# Each block's allowed keys with their JSON checks.  Only the keys a block
# sets are passed on, so every other field keeps its default: the dataclass's
# own, or for settings only the CLI has, the literal in `_run_config`.
_BLOCKS = {
    "data": {"dir": _nullable(_str), "n_identities": _int,
             "images_per_identity": _int, "edge": _int,
             "holdout_fraction": _number, **_NUISANCE},
    "pyramid": {"levels": _int, "base_input": _int, "shared": _shared,
                "template": _template, "patch_offsets": _offsets,
                "output_dim": _int},
    "train": {"learning_rate": _number, "momentum": _number,
              "batch_size": _int, "iterations_per_level": _int,
              "validation_fraction": _number},
    "evaluation": {"fpr_targets": _fpr_targets, "n_pairs": _pair_count},
}


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw: Any = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _check_keys(raw, {"seed", "output_dir", *_BLOCKS}, "config")
    if "seed" not in raw or "output_dir" not in raw:
        raise ConfigError(f"{path}: config requires 'seed' and 'output_dir'")
    seed = raw["seed"] if seed_override is None else seed_override
    try:
        return _run_config(raw, path.resolve(), seed)
    except ConfigError:
        raise
    except (DataError, PyramidError) as exc:
        # a well-typed value out of range, e.g. "levels": 0
        raise ConfigError(str(exc)) from None
    except (ValueError, TypeError, OverflowError) as exc:
        # a value of the wrong type, e.g. "n_identities": "many" or 4.9
        raise ConfigError(f"{path}: bad config value ({exc})") from None


def _run_config(raw: dict, path: Path, seed) -> RunConfig:
    seed = _int(seed, "seed")
    given = {name: _block(raw.get(name, {}), table, name)
             for name, table in _BLOCKS.items()}
    nuisance = {key: given["data"].pop(key)
                for key in _NUISANCE if key in given["data"]}
    return RunConfig(
        seed=seed,
        output_dir=path.parent / _str(raw["output_dir"], "output_dir"),
        path=path,
        data={"dir": None, "n_identities": 48, "images_per_identity": 12,
              "edge": 76, "holdout_fraction": 1 / 3, **given["data"],
              "nuisance": NuisanceConfig(**nuisance)},
        pyramid=PyramidSpec(**{"levels": 3, **given["pyramid"]}),
        train=TrainConfig(**given["train"], seed=seed),
        evaluation={"fpr_targets": [0.1, 0.01, 0.001], "n_pairs": 2000,
                    **given["evaluation"]},
    )


def _data_dir(cfg: RunConfig) -> Path:
    if not cfg.data["dir"]:
        raise ConfigError("config data block needs a 'dir' entry")
    return cfg.path.parent / cfg.data["dir"]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(cfg: RunConfig) -> int:
    out = _data_dir(cfg)
    index = synth_generate(cfg.data["n_identities"],
                           cfg.data["images_per_identity"],
                           cfg.data["edge"], cfg.data["nuisance"],
                           derive_seed(cfg.seed, "synth"), out)
    print(f"synth: {len(index.records)} images, {index.n_identities} "
          f"identities -> {out}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    """Train and write the model, the split indexes, one trace per level
    and the run record, ``run.json`` (`telemetry.write_run`), into
    ``output_dir``."""
    run_path = cfg.output_dir / "run.json"
    if run_path.resolve() == cfg.path:
        raise ConfigError(f"{cfg.path}: train writes run.json into "
                          f"output_dir, over this config; rename the config "
                          f"or choose another output_dir")
    index_path = _data_dir(cfg) / "index.csv"
    index = load_index(index_path)
    train_index, eval_index = split_by_identity(
        index, cfg.data["holdout_fraction"], derive_seed(cfg.seed,
                                                         "holdout-split"))
    print(f"train: {len(train_index.records)} images / "
          f"{train_index.n_identities} identities for training, "
          f"{len(eval_index.records)} images / {eval_index.n_identities} "
          f"identities held out")

    images = [load_image(rec) for rec in train_index.records]
    model = build_pyramid(cfg.pyramid, cfg.seed)
    traces = greedy_train(model, images, cfg.train)
    # the split files go only next to a trained model
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train_index.csv", train_index),
                       ("eval_index.csv", eval_index)):
        rows = [(str(rec.path), part.identity_names[rec.identity])
                for rec in part.records]
        write_index(cfg.output_dir / name, rows)
    model_path = cfg.output_dir / "model.bin"
    save_model(model, model_path)
    for trace in traces:
        trace_path = cfg.output_dir / f"trace_level{trace.level}.csv"
        # val_auc is left empty on the iterations that were not validated
        val_cells = {i: repr(float(v))
                     for i, v in zip(trace.val_iterations, trace.val_aucs)}
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            fh.write("iteration,mean_loss,val_auc\n")
            for i, loss in enumerate(trace.losses):
                fh.write(f"{i},{float(loss)!r},{val_cells.get(i, '')}\n")
        print(f"train: level {trace.level} loss {trace.losses[0]:.4f} -> "
              f"{trace.losses[-1]:.4f} ({trace_path.name})")
    write_run(run_path, traces)
    print(f"train: model -> {model_path}")
    print(f"train: run record -> {run_path}")
    return 0


def cmd_extract(cfg: RunConfig, model_path, index_path) -> int:
    """Write ``features.csv``: every index image embedded, each loaded only
    when `extract_representations` draws its batch."""
    model = load_model(model_path)
    spec = model.spec
    if model.levels_trained < spec.levels:
        raise PyramidError(f"{model_path}: {model.levels_trained} of "
                           f"{spec.levels} levels trained; extract needs "
                           f"every level")
    index = load_index(index_path)
    features = extract_representations(
        model, (load_image(rec) for rec in index.records))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "features.csv"
    write_features(out, features)
    print(f"extract: {len(features)} vectors of dim "
          f"{model.spec.output_dim} -> {out}")
    return 0


def cmd_eval(cfg: RunConfig, features_path, index_path) -> int:
    feats = read_features(features_path)
    index = load_index(index_path)
    pairs = sample_pairs(index, cfg.evaluation["n_pairs"],
                         derive_seed(cfg.seed, "eval-pairs"))
    rows = []
    for rec in index.records:
        key = str(rec.path)
        if key not in feats:
            raise DataError(f"no feature row for image {key}")
        rows.append(feats[key])
    if len({row.size for row in rows}) > 1:
        raise DataError(f"{features_path}: feature rows of different "
                        f"dimensions cannot be compared")
    vectors = np.stack(rows)  # row i: index record i
    report = evaluate_distances(*pair_distances(vectors, pairs),
                                cfg.evaluation["fpr_targets"])
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "report.csv"
    write_report(out, report)
    print(f"eval: accuracy {report.accuracy:.4f}  auc {report.auc:.4f}  "
          f"({report.n_matched} matched / {report.n_unmatched} unmatched)")
    for target, _, achieved, tpr in report.tpr_points:
        print(f"eval: tpr@fpr={target:g} -> {tpr:.4f} "
              f"(achieved fpr {achieved:.4g})")
    print(f"eval: report -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrcnn",
        description="Greedy layer-shared Siamese CNN training and "
                    "verification evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, extras in (("synth", []), ("train", []),
                         ("extract", ["model", "index"]),
                         ("eval", ["features", "index"])):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        for extra in extras:
            p.add_argument(extra)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        extract = args.command == "extract"
        files = (args.model if extract else args.features, args.index)
        for p in files:
            if not Path(p).is_file():
                raise ConfigError(f"file not found: {p}")
        return (cmd_extract if extract else cmd_eval)(cfg, *files)
    except (ConfigError, DataError, PyramidError, MetricError, TensorError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as exc:
        # numpy refusing an array size it cannot hold or index, as a config
        # size of 10**30 asks for; any other ValueError is a defect
        if not isinstance(exc, MemoryError) and not str(exc).startswith(
                ("Maximum allowed dimension exceeded", "array is too big")):
            raise
        print(f"error: {args.command}: array too large ({exc})",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
