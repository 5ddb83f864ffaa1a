"""Pinned artefact digests: `tools/same_bytes.py`'s ``crop`` run (synth,
train, extract, eval) under two forced OpenBLAS cores must write the bytes
recorded in ``artefact_digests.json``.

Each run is a subprocess pipeline with one BLAS thread, one forced core
(``OPENBLAS_CORETYPE``) and numpy's AVX-512 loops turned off
(``NPY_DISABLE_CPU_FEATURES``), since both the BLAS kernel and numpy's SIMD
level pick the trained bits.  The table is keyed by numpy version, the
OpenBLAS runtime configuration (its core included) and numpy's enabled
SIMD targets; a host whose key the table lacks skips, naming the key.
``features.csv`` names each image by its path in the run directory, which
is mapped to ``<run>`` as `same_bytes.py` maps it.

The two cores' runs train different bits, but they must not learn
differently: their reports' ``auc`` and ``best_accuracy`` agree within
`REPORT_TOLERANCE`, fixed before the check first ran.  Each core's run is
made once a session and shared by both checks; where a core cannot be
forced, the agreement check skips and names why.

After a deliberate byte change, regenerate the table with the engine of
the tree that should define the bytes:

    python3 tests/test_artefact_digests.py --checkout .
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("artefact_digests.json")
_SPEC = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)

CORES = ("Sandybridge", "Haswell")
REPORT_TOLERANCE = 0.01
PINNED_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# numpy version, OpenBLAS runtime configuration and enabled SIMD targets of
# a process started with the run's environment
PROBE = f"""
import json, runpy, numpy
from numpy._core._multiarray_umath import (
    __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
blas = runpy.run_path({str(ROOT / "tools" / "same_bytes.py")!r})[
    "blas_runtime"]()
simd = [f for f in (*__cpu_baseline__, *__cpu_dispatch__)
        if __cpu_features__.get(f)]
print(json.dumps([numpy.__version__, " ".join(blas.split()),
                  " ".join(simd)]))
"""


def pin(setenv, core: str) -> None:
    """Force `core` and turn numpy's AVX-512 loops off through `setenv`
    (name, value), in the environment `same_bytes.side_env` passes on."""
    for name, value in {**PINNED_ENV, "OPENBLAS_CORETYPE": core}.items():
        setenv(name, value)


def host_key(env: dict) -> str:
    """The table key of a process with environment `env`, or a skip that
    says why it cannot be read."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        pytest.skip(f"cannot read numpy's SIMD level or the BLAS core: "
                    f"{proc.stderr.strip()[-300:]}")
    numpy, blas, simd = json.loads(proc.stdout)
    if blas == "unknown":
        pytest.skip("numpy does not run its bundled OpenBLAS")
    return f"numpy {numpy} | {blas} | {simd}"


def crop_digests(checkout: Path, run_dir: Path) -> dict:
    """SHA-256 of each pinned artefact of the ``crop`` run in `run_dir`,
    run with the engine in `checkout`/src."""
    error = same_bytes.run_pipeline(checkout, run_dir, same_bytes.CROP_CONFIG)
    if error:
        raise RuntimeError(error)
    out = run_dir / "out"
    names = [n for n in same_bytes.artefacts(out, out)
             if not n.endswith("_index.csv")]
    digests = {}
    for name in names:
        data = (b"".join(same_bytes._mapped_lines(out / name, run_dir))
                if name in same_bytes.PATH_COLUMN
                else (out / name).read_bytes())
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="session")
def crop_run(tmp_path_factory):
    """`run(core)`: the ``crop`` run of `core`, in the pinned environment
    its caller set, as the digests of its artefacts and its report
    metrics, made on the first call of the session."""
    runs = {}

    def run(core: str) -> dict:
        if core not in runs:
            run_dir = tmp_path_factory.mktemp(f"crop-{core}") / "crop"
            runs[core] = {"digests": crop_digests(ROOT, run_dir),
                          "report": same_bytes.report_metrics(
                              run_dir / "out" / "report.csv")}
        return runs[core]
    return run


@pytest.mark.parametrize("core", CORES)
def test_crop_run_writes_the_pinned_bytes(crop_run, monkeypatch, core):
    pin(monkeypatch.setenv, core)
    key = host_key(same_bytes.side_env(ROOT))
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if key not in table:
        pytest.skip(f"no pinned digests for {key!r}")
    assert crop_run(core)["digests"] == table[key]


def test_crop_reports_agree_across_cores(crop_run, monkeypatch):
    """The crop run under each forced core scores its held-out pairs alike:
    auc and best accuracy within `REPORT_TOLERANCE` of each other."""
    reports = {}
    for core in CORES:
        pin(monkeypatch.setenv, core)
        key = host_key(same_bytes.side_env(ROOT))
        if f" {core} " not in key:
            pytest.skip(f"cannot force the {core} core: the run reads "
                        f"{key!r}")
        reports[core] = crop_run(core)["report"]
    for metric in ("auc", "best_accuracy"):
        values = [reports[core][metric] for core in CORES]
        assert max(values) - min(values) <= REPORT_TOLERANCE, \
            (metric, reports)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate the pinned digests "
                                 "of this host from a checkout's engine.")
    ap.add_argument("--checkout", type=Path, required=True,
                    help="tree whose src/ defines the bytes")
    checkout = ap.parse_args(argv).checkout.resolve()
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for core in CORES:
            pin(os.environ.__setitem__, core)
            try:
                key = host_key(same_bytes.side_env(checkout))
            except pytest.skip.Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            table[key] = crop_digests(checkout, Path(tmp).resolve() / core)
            print(f"{key}: model.bin {table[key]['model.bin'][:8]}...")
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
