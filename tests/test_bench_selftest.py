"""perfbench/selftest.py: the benchmark still runs against the engine.

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
