"""perfbench/selftest.py: the benchmark still runs against the engine, and
its traced run still finds the engine names it hooks.

The benchmark imports engine names (`Tensor`, `center_crop`,
`FeatureVector`, `network_forward`, `train_network`, ...); renaming one
fails here rather than at the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

_SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(_SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: passed" in done.stdout


# the bindings perfbench hooks that no longer exist in pyrcnn (ROADMAP
# item 6); any other missing binding silently zeroes a per-layer metric
STALE_HOOKS = {"pyrcnn.pyramid.sgd_step", "pyrcnn.pyramid.layer_forward",
               "pyrcnn.features.layer_forward",
               "pyrcnn.features.network_forward",
               "pyrcnn.cli.extract_representation"}


def test_benchmark_hooks_find_every_binding_but_the_known_stale_ones(
        monkeypatch):
    """`perfbench/instrument.py` wraps pyrcnn's names where their calling
    modules bind them (`pyramid._validation_auc`,
    `pyramid.preprocess_dataset`, ...); renaming one costs its span."""
    from pyrcnn import pyramid
    monkeypatch.syspath_prepend(str(_SELFTEST.parent))
    import instrument
    import spans
    validation_auc = pyramid._validation_auc
    tracer = spans.Tracer()
    instrument.instrument(tracer)
    try:
        assert pyramid._validation_auc is not validation_auc
    finally:
        tracer.unwrap_all()
    assert pyramid._validation_auc is validation_auc
    assert set(tracer.missing) <= STALE_HOOKS, tracer.missing
