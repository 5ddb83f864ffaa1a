"""Output checks.  Every check counts as one attempted operation; a check
that does not hold counts as one failure.  The checks recompute results by
a route independent of the code path that produced them."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def read_feature_rows(path) -> dict[str, np.ndarray]:
    """features.csv parsed without pyrcnn: image path -> vector."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row:
                rows[row[0]] = np.array([float(v) for v in row[2:]])
    return rows


def report_value(path, metric: str) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if len(row) == 2 and row[0] == metric:
                return float(row[1])
    raise KeyError(f"{path}: no {metric!r} row")


def rank_auc(matched: np.ndarray, unmatched: np.ndarray) -> float:
    """P(matched distance < unmatched distance), ties counting half."""
    su = np.sort(unmatched)
    lo = np.searchsorted(su, matched, side="left")
    hi = np.searchsorted(su, matched, side="right")
    wins = (su.size - hi) + 0.5 * (hi - lo)
    return float(wins.sum() / (matched.size * su.size))


def losses_finite(checks: Checks, losses, what: str) -> None:
    checks.record(len(losses) > 0 and all(math.isfinite(v) for v in losses),
                  f"{what}: non-finite or missing loss")


def trace_losses(trace_csv) -> list[float]:
    with open(trace_csv, newline="", encoding="utf-8") as fh:
        return [float(r["mean_loss"]) for r in csv.DictReader(fh)]


def model_round_trip(checks: Checks, model_path: Path, scratch: Path) -> None:
    from pyrcnn import load_model, save_model
    copy = scratch / "model_resaved.bin"
    save_model(load_model(model_path), copy)
    checks.record(copy.read_bytes() == model_path.read_bytes(),
                  "model.bin load -> save is not byte-identical")


def feature_rows_match(checks: Checks, features_csv: Path, model_path: Path,
                       index_path: Path, n_rows: int, seed: int) -> None:
    """Sampled features.csv rows are bit-equal to the assembled deep network
    (frozen stages + top subnet) run on the same center crop."""
    from pyrcnn import (assemble_network, center_crop, load_image,
                        load_index, load_model, network_forward)
    model = load_model(model_path)
    top = model.spec.levels - 1
    net = assemble_network(model, top, 0)
    edge = model.spec.assembled_input_edge(top)
    rows = read_feature_rows(features_csv)
    records = load_index(index_path).records
    picks = np.random.default_rng(seed).choice(
        len(records), size=min(n_rows, len(records)), replace=False)
    for p in sorted(picks):
        rec = records[p]
        want = network_forward(net, center_crop(load_image(rec), edge)).array
        got = rows.get(str(rec.path))
        checks.record(got is not None and np.array_equal(got, want),
                      f"features.csv row for {rec.path.name} differs from "
                      f"the assembled network")


def index_vectors(features_csv: Path, index_path: Path):
    """(vectors of the indexed images that features.csv has, number of
    indexed images it lacks)."""
    from pyrcnn import load_index
    rows = read_feature_rows(features_csv)
    found = [rows.get(str(r.path)) for r in load_index(index_path).records]
    present = [v for v in found if v is not None]
    vecs = np.stack(present) if present else np.zeros((0, 0))
    return vecs, len(found) - len(present)


def report_auc_matches(checks: Checks, report_csv: Path, features_csv: Path,
                       index_path: Path, pairs) -> None:
    """The report's AUC equals a rank AUC over distances recomputed from
    features.csv and the pairs the eval drew."""
    if pairs is None:
        checks.record(False, "the eval's pairs were not captured "
                             "(pyrcnn.cli no longer binds sample_pairs)")
        return
    vecs, missing = index_vectors(features_csv, index_path)
    if not checks.record(missing == 0, f"features.csv lacks {missing} "
                                       f"indexed images"):
        return
    first = np.fromiter((p.first for p in pairs), np.int64, len(pairs))
    second = np.fromiter((p.second for p in pairs), np.int64, len(pairs))
    label = np.fromiter((int(p.label) for p in pairs), np.int64, len(pairs))
    d = np.sqrt(np.sum((vecs[first] - vecs[second]) ** 2, axis=1))
    want = rank_auc(d[label == 1], d[label == -1])
    got = report_value(report_csv, "auc")
    checks.record(abs(got - want) <= 1e-9,
                  f"report auc {got!r} != recomputed {want!r}")


def dead_unit_frac(features_csv: Path, index_path: Path) -> float:
    """Share of embedding units that are zero on every indexed image
    features.csv has (report_auc_matches counts the ones it lacks)."""
    vecs, _ = index_vectors(features_csv, index_path)
    return float(np.mean(np.all(vecs == 0.0, axis=0))) if vecs.size else 0.0
