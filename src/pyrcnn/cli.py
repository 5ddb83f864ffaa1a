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
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .data import (DataError, NuisanceConfig, load_image, load_index,
                   sample_pairs, split_by_identity, synth_generate,
                   write_index)
from .features import (extract_representations, read_features,
                       write_features, write_report)
from .layers import _images_per_slab, _slab
from .loss import PairLabel
from .metrics import MetricError, evaluate_distances
from .pyramid import (PyramidError, PyramidSpec, StageSpec, TrainConfig,
                      assemble_network, build_pyramid, greedy_train,
                      load_model, save_model)
from .seeding import derive_seed
from .tensor import TensorError


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    seed: int
    output_dir: Path
    base_dir: Path
    data: dict
    pyramid: PyramidSpec
    train: TrainConfig
    extraction: dict
    evaluation: dict


def _check_keys(block: dict, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
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


def _bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value


def _str(value, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _offsets(value, name: str) -> tuple[tuple[int, int], ...]:
    """(x, y) pairs from a list of two-integer lists; any other length is
    refused, never padded or cut."""
    if not isinstance(value, list) or any(
            not isinstance(o, list) or len(o) != 2 for o in value):
        raise TypeError(f"{name} must be a list of [x, y] pairs, got "
                        f"{value!r}")
    return tuple((_int(x, name), _int(y, name)) for x, y in value)


def _field(block: dict, where: str, key: str, default, kind=_int):
    """`block[key]` (or `default`), checked by `kind` as `where.key`."""
    return kind(block.get(key, default), f"{where}.{key}")


def _data_block(block: dict) -> dict:
    _check_keys(block, {"dir", "n_identities", "images_per_identity", "edge",
                        "holdout_fraction", "brightness_delta",
                        "max_translation", "noise_sigma"}, "data")
    return {
        "dir": (None if block.get("dir") is None
                else _field(block, "data", "dir", None, _str)),
        "n_identities": _field(block, "data", "n_identities", 48),
        "images_per_identity": _field(block, "data", "images_per_identity",
                                      12),
        "edge": _field(block, "data", "edge", 76),
        "holdout_fraction": _field(block, "data", "holdout_fraction", 1 / 3,
                                   _number),
        "nuisance": NuisanceConfig(
            brightness_delta=_field(block, "data", "brightness_delta", 0.3,
                                    _number),
            max_translation=(None if block.get("max_translation") is None
                             else _field(block, "data", "max_translation",
                                         None)),
            noise_sigma=_field(block, "data", "noise_sigma", 0.05, _number),
        ),
    }


def _pyramid_block(block: dict) -> PyramidSpec:
    _check_keys(block, {"levels", "base_input", "shared", "template",
                        "networks_per_level", "patch_offsets", "output_dim"},
                "pyramid")

    def stage(d: dict, where: str) -> StageSpec:
        _check_keys(d, {"kernel", "channels", "pool"}, where)
        return StageSpec(_field(d, where, "kernel", 3),
                         _field(d, where, "channels", 16),
                         _field(d, where, "pool", 2))

    shared = block.get("shared", {"kernel": 5, "channels": 8, "pool": 2})
    template = block.get("template", [{"kernel": 3, "channels": 16, "pool": 2}])
    return PyramidSpec(
        levels=_field(block, "pyramid", "levels", 3),
        base_input=_field(block, "pyramid", "base_input", 16),
        shared=stage(shared, "pyramid.shared"),
        template=tuple(stage(t, "pyramid.template") for t in template),
        networks_per_level=_field(block, "pyramid", "networks_per_level", 1),
        patch_offsets=_field(block, "pyramid", "patch_offsets", [[0, 0]],
                             _offsets),
        output_dim=_field(block, "pyramid", "output_dim", 8),
    )


def _train_block(block: dict, seed: int) -> TrainConfig:
    _check_keys(block, {"learning_rate", "momentum", "batch_size",
                        "iterations_per_level", "validation_fraction"},
                "train")
    return TrainConfig(
        learning_rate=_field(block, "train", "learning_rate", 0.05, _number),
        momentum=_field(block, "train", "momentum", 0.9, _number),
        batch_size=_field(block, "train", "batch_size", 32),
        iterations_per_level=_field(block, "train", "iterations_per_level",
                                    200),
        seed=seed,
        validation_fraction=_field(block, "train", "validation_fraction", 0.2,
                                   _number),
    )


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
    _check_keys(raw, {"seed", "output_dir", "data", "pyramid", "train",
                      "extraction", "evaluation"}, "config")
    if "seed" not in raw or "output_dir" not in raw:
        raise ConfigError(f"{path}: config requires 'seed' and 'output_dir'")
    seed = raw["seed"] if seed_override is None else seed_override
    try:
        return _run_config(raw, path.parent.resolve(), seed)
    except ConfigError:
        raise
    except (DataError, PyramidError) as exc:
        # a well-typed value out of range, e.g. "levels": 0
        raise ConfigError(str(exc)) from None
    except (ValueError, TypeError, OverflowError) as exc:
        # a value of the wrong type, e.g. "n_identities": "many" or 4.9
        raise ConfigError(f"{path}: bad config value ({exc})") from None


def _run_config(raw: dict, base: Path, seed) -> RunConfig:
    seed = _int(seed, "seed")
    extraction = raw.get("extraction", {})
    _check_keys(extraction, {"scheme", "normalize"}, "extraction")
    extraction = {"scheme": extraction.get("scheme", "single-top"),
                  "normalize": _field(extraction, "extraction", "normalize",
                                      False, _bool)}

    evaluation = raw.get("evaluation", {})
    _check_keys(evaluation, {"fpr_targets", "n_pairs"}, "evaluation")
    targets = [_number(t, "evaluation.fpr_targets")
               for t in evaluation.get("fpr_targets", [0.1, 0.01, 0.001])]
    for t in targets:
        if not 0.0 <= t < 1.0:
            raise ConfigError(f"FPR target {t} outside [0, 1)")
    n_pairs = _field(evaluation, "evaluation", "n_pairs", 2000)
    if n_pairs < 1:
        raise ConfigError(f"evaluation.n_pairs must be >= 1, got {n_pairs}")
    evaluation = {"fpr_targets": targets, "n_pairs": n_pairs}

    return RunConfig(
        seed=seed,
        output_dir=(base / raw["output_dir"]),
        base_dir=base,
        data=_data_block(raw.get("data", {})),
        pyramid=_pyramid_block(raw.get("pyramid", {})),
        train=_train_block(raw.get("train", {}), seed),
        extraction=extraction,
        evaluation=evaluation,
    )


def _data_dir(cfg: RunConfig) -> Path:
    if not cfg.data["dir"]:
        raise ConfigError("config data block needs a 'dir' entry")
    return cfg.base_dir / cfg.data["dir"]


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


def _float_cell(v: float) -> str:
    return "nan" if np.isnan(v) else repr(float(v))


def cmd_train(cfg: RunConfig) -> int:
    index_path = _data_dir(cfg) / "index.csv"
    index = load_index(index_path)
    train_index, eval_index = split_by_identity(
        index, cfg.data["holdout_fraction"], derive_seed(cfg.seed,
                                                         "holdout-split"))
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train_index.csv", train_index),
                       ("eval_index.csv", eval_index)):
        rows = [(str(rec.path), part.identity_names[rec.identity],
                 rec.landmarks) for rec in part.records]
        write_index(cfg.output_dir / name, rows)
    print(f"train: {len(train_index.records)} images / "
          f"{train_index.n_identities} identities for training, "
          f"{len(eval_index.records)} images / {eval_index.n_identities} "
          f"identities held out")

    images = [load_image(rec) for rec in train_index.records]
    model = build_pyramid(cfg.pyramid, cfg.seed)
    traces = greedy_train(model, images, cfg.train)
    model_path = cfg.output_dir / "model.bin"
    save_model(model, model_path)
    for trace in traces:
        trace_path = cfg.output_dir / f"trace_level{trace.level}.csv"
        # val_auc is left empty on the iterations that were not validated
        val_cells = {i: _float_cell(v)
                     for i, v in zip(trace.val_iterations, trace.val_aucs)}
        with open(trace_path, "w", newline="", encoding="utf-8") as fh:
            fh.write("iteration,mean_loss,val_auc\n")
            for i, loss in enumerate(trace.losses):
                fh.write(f"{i},{_float_cell(loss)},{val_cells.get(i, '')}\n")
        print(f"train: level {trace.level} loss {trace.losses[0]:.4f} -> "
              f"{trace.losses[-1]:.4f} ({trace_path.name})")
    print(f"train: model -> {model_path}")
    return 0


def cmd_extract(cfg: RunConfig, model_path, index_path) -> int:
    model = load_model(model_path)
    index = load_index(index_path)
    scheme = cfg.extraction["scheme"]
    if scheme != "single-top":
        raise ConfigError(f"unsupported extraction scheme {scheme!r}")
    # one slab of images loaded and embedded at a time
    step = _images_per_slab(assemble_network(model, model.spec.levels - 1, 0))
    features = []
    for start in range(0, len(index.records), step):
        images = [load_image(rec) for rec in index.records[start:start + step]]
        features.extend(extract_representations(
            model, images, scheme, cfg.extraction["normalize"]))
    dims = {fv.values.size for fv in features}
    if dims != {model.spec.output_dim}:
        raise ConfigError(
            f"scheme {scheme!r} should emit dimension "
            f"{model.spec.output_dim}, got {sorted(dims)}"
        )
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
    first, second = pairs.first, pairs.second
    dist = np.empty(len(pairs))
    step = _slab(vectors.shape[1])  # pairs per chunk: bounded temporaries
    for i in range(0, len(pairs), step):
        a, b = vectors[first[i:i + step]], vectors[second[i:i + step]]
        dist[i:i + step] = np.sqrt(np.sum((a - b) ** 2, axis=1))
    matched = pairs.label == int(PairLabel.MATCHED)
    report = evaluate_distances(dist[matched], dist[~matched],
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
        if args.command == "extract":
            for p in (args.model, args.index):
                if not Path(p).is_file():
                    raise ConfigError(f"file not found: {p}")
            return cmd_extract(cfg, args.model, args.index)
        for p in (args.features, args.index):
            if not Path(p).is_file():
                raise ConfigError(f"file not found: {p}")
        return cmd_eval(cfg, args.features, args.index)
    except (ConfigError, DataError, PyramidError, MetricError, TensorError,
            FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
