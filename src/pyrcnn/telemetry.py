"""Run telemetry: what a training run records about itself.

``pyrcnn train`` writes ``run.json`` next to ``model.bin`` (`write_run`).
It holds the numeric environment that picks the trained bits, numpy's
version and `blas_runtime` (the OpenBLAS build and the core it runs), and
one record per trained level (`level_record`): the level's wall seconds,
the mean loss of its last `LAST_LOSSES` steps, its last validation AUC,
network 0's health on the validation images (`pyramid.LevelHealth`: the
spread of their embeddings and the dead share of each conv stage's
channels and of the embedding units) and a `collapse` flag
(`collapsed`).  A value that is not known (no validation set, a NaN AUC)
is null, as is one that is not finite.  Unlike ``model.bin`` and the traces, the file is not the same
bytes on a rerun: it holds wall times.

The module imports nothing of the package, so a tool can load it by path
from its own checkout (``blas_runtime``) while it runs another checkout's
engine.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

LAST_LOSSES = 50
# A level whose last validation AUC is below this has not learned: 128
# validation pairs, half matched, put the standard error of the AUC of a
# chance verifier at 0.051 (Hanley & McNeil, Radiology 143, 1982), so
# 0.6 is about two standard errors above chance.
CHANCE_AUC = 0.6


def blas_runtime(libs: Path | None = None) -> str:
    """The runtime configuration of numpy's bundled OpenBLAS in this
    process, its build options then the core it runs (for example
    ``OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX
    MAX_THREADS=64``), read by ctypes from the library in `libs` (numpy's
    ``numpy.libs`` by default); ``unknown`` for any other BLAS."""
    if libs is None:
        numpy = Path(importlib.util.find_spec("numpy").origin)
        libs = numpy.parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            get_config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        get_config.restype = ctypes.c_char_p
        return get_config().decode()
    return "unknown"


def _known(value: float | None) -> float | None:
    """`value`, or None when it is None or not finite (JSON has no NaN)."""
    return value if value is not None and math.isfinite(value) else None


def collapsed(trace) -> bool | None:
    """The collapse flag of a trained level's `pyramid.LevelTrace`: True
    when network 0 gives every validation image one embedding (every
    embedding unit dead) or the level's last validation AUC is below
    `CHANCE_AUC`; None without a validation set or with a NaN AUC."""
    if trace.health is None:
        return None
    if trace.health.dead_units == 1.0:
        return True
    auc = trace.val_aucs[-1] if trace.val_aucs else math.nan
    return None if math.isnan(auc) else auc < CHANCE_AUC


def level_record(trace) -> dict:
    """The ``run.json`` record of one trained level's `pyramid.LevelTrace`
    (module docstring)."""
    health, last = trace.health, trace.losses[-LAST_LOSSES:]
    return {
        "level": trace.level,
        "wall_s": _known(trace.wall_s),
        "last_loss_mean": _known(math.fsum(last) / len(last) if last
                                 else None),
        "last_val_auc": _known(trace.val_aucs[-1] if trace.val_aucs
                               else None),
        "embedding_spread": _known(health and health.spread),
        "dead_channels": health and list(health.dead_channels),
        "dead_units": health and health.dead_units,
        "collapse": collapsed(trace),
    }


def run_record(traces) -> dict:
    """The ``run.json`` record of a training run's level traces."""
    return {"numpy": np.__version__, "blas_runtime": blas_runtime(),
            "levels": [level_record(trace) for trace in traces]}


def write_run(path, traces) -> None:
    """Write `run_record(traces)` to `path` as JSON (strict: no NaN)."""
    Path(path).write_text(json.dumps(run_record(traces), indent=1,
                                     allow_nan=False) + "\n",
                          encoding="utf-8")
