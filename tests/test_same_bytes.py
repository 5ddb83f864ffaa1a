"""tools/same_bytes.py: the per-file comparison of two run directories,
and the configs it runs."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from pyrcnn import PyramidSpec, build_monolithic, layers
from pyrcnn.cli import load_config

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
_SPEC = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_bytes)


def fake_run(run_dir: Path, model: bytes = b"PYRCNN01\x00\x01") -> Path:
    """A run directory whose ``out/`` holds every artefact the tool
    compares, with image paths inside the run directory."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    (out / "model.bin").write_bytes(model)
    for level in range(2):
        (out / f"trace_level{level}.csv").write_text(
            "iteration,mean_loss,val_auc\n0,0.69,0.5\n", encoding="utf-8")
    image = run_dir / "gallery" / "id000_00.pgm"
    for name in ("train_index.csv", "eval_index.csv"):
        (out / name).write_text(f"path,identity\n{image},id000\n",
                                encoding="utf-8")
    (out / "features.csv").write_text(
        f"image_path,dim\n{image},2,0.25,-1.5\n", encoding="utf-8")
    (out / "report.csv").write_text("metric,value\nauc,0.75\n",
                                    encoding="utf-8")
    return run_dir


def test_identical_runs_are_the_same(tmp_path, capsys):
    a = fake_run(tmp_path / "a")
    assert same_bytes.compare_runs(a, a)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name}: same" for name in (
        "model.bin", "trace_level0.csv", "trace_level1.csv",
        "train_index.csv", "eval_index.csv", "features.csv", "report.csv")]


def test_one_flipped_byte_is_named(tmp_path, capsys):
    a = fake_run(tmp_path / "a")
    b = fake_run(tmp_path / "b", model=b"PYRCNN01\x00\x03")
    assert not same_bytes.compare_runs(a, b)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["model.bin: byte 9 differs (10 against 10 bytes)"]
    assert same_bytes.compare_file("model.bin", a / "out", b / "out", a,
                                   b) == lines[0].split(": ", 1)[1]


def test_runs_that_differ_only_in_their_directory_are_the_same(tmp_path):
    a = fake_run(tmp_path / "parent" / "readme")
    b = fake_run(tmp_path / "change" / "other-name")
    assert (a / "out" / "features.csv").read_bytes() != \
        (b / "out" / "features.csv").read_bytes()
    assert same_bytes.compare_runs(a, b)
    # a path column that differs inside the run directory is a difference
    feats = b / "out" / "features.csv"
    feats.write_text(feats.read_text().replace("id000_00", "id000_01"))
    assert same_bytes.compare_file("features.csv", a / "out", b / "out", a,
                                   b) == "line 2 differs"


def test_crop_config_centres_its_crop_off_by_a_rounded_half_pixel():
    """The ``crop`` config's gallery is 3 px wider than the raw crop, so
    the center origin is 3 // 2 = 1: rounding 1.5 the other way moves it."""
    config = same_bytes.CONFIGS["crop"]
    spec = PyramidSpec(**config["pyramid"])
    assert config["data"]["edge"] - spec.raw_data_edge() == 3


@pytest.mark.parametrize("name", [*same_bytes.CONFIGS, "monolith"])
def test_every_config_loads_with_the_cli(tmp_path, name):
    """Each config the tool writes is one the CLI accepts: a key the CLI
    drops fails here, not first in a comparison of two checkouts."""
    config = same_bytes.CONFIGS.get(name, same_bytes.MONOLITH_CONFIG)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == config["seed"]
    offsets = config.get("pyramid", {}).get("patch_offsets", [[0, 0]])
    assert cfg.pyramid.networks_per_level == len(offsets)


def test_blas_runtime_names_numpys_openblas_or_says_unknown(tmp_path):
    """The configuration comes from numpy's bundled OpenBLAS (build
    options, then the core) when ``numpy.libs`` holds one; a directory
    without that library gives ``unknown``."""
    config = same_bytes.blas_runtime()
    spec = importlib.util.find_spec("numpy")
    libs = Path(spec.origin).parent.parent / "numpy.libs"
    if any(libs.glob("libscipy_openblas*")):
        assert config.startswith("OpenBLAS ")
        assert "MAX_THREADS=" in config
    else:
        assert config == "unknown"
    assert same_bytes.blas_runtime(tmp_path) == "unknown"


def test_blas_runtime_in_a_process_reads_its_environment():
    """A process with this environment reads this process's configuration;
    one with ``OPENBLAS_CORETYPE`` set reads the core it forces, where the
    library picks its core at run time."""
    here = same_bytes.blas_runtime()
    assert same_bytes.blas_runtime_in(dict(os.environ)) == here
    if "DYNAMIC_ARCH" in here.split():
        forced = same_bytes.blas_runtime_in(
            {**os.environ, "OPENBLAS_CORETYPE": "Sandybridge"})
        assert "Sandybridge" in forced.split()


def test_main_prints_each_sides_blas_first(tmp_path, capsys, monkeypatch):
    """Each side's configuration is read in that side's environment, and
    printed before any config runs."""
    def fake_blas(env):
        return (f"core of {Path(env['PYTHONPATH']).parent.name} at "
                f"{env['OPENBLAS_NUM_THREADS']} thread")

    monkeypatch.setattr(same_bytes, "blas_runtime_in", fake_blas)
    monkeypatch.setattr(same_bytes, "run_pipeline",
                        lambda checkout, run_dir, config: "boom")
    assert same_bytes.main(["--parent", str(tmp_path / "a"), "--change",
                            str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "parent BLAS: core of a at 1 thread",
        "change BLAS: core of b at 1 thread",
        "readme: parent failed: boom"]


def test_monolith_run_trains_the_network_whose_backward_has_row_bands(
        tmp_path):
    """`run_monolith` trains the end-to-end network, one of whose stages
    the backward splits into row bands, and writes every trained parameter
    and the comparator as float64 bytes: moved from the initialization,
    and the same bytes on a second run of the same checkout."""
    net, comp = build_monolithic(PyramidSpec(levels=3),
                                 same_bytes.MONOLITH_CONFIG["seed"])
    edge, banded = net.input_size, []
    for stage in net.stages:
        kh, kw, c_in, _, s = stage.geometry
        o = edge - kh + 1
        banded.append(o * o * kh * kw * c_in > layers._SLAB_ELEMENTS)
        edge = o // s
    assert any(banded[1:])  # a stage whose input gradient is taken
    init = b"".join(a.tobytes() for layer in net.layers
                    for a in layer.params) \
        + np.array([comp.log_alpha, comp.beta]).tobytes()
    repo = Path(__file__).resolve().parents[1]
    runs = [tmp_path / side for side in same_bytes.SIDES]
    for run in runs:
        assert same_bytes.run_monolith(repo, run) is None
    trained = (runs[0] / "out" / "monolith.bin").read_bytes()
    assert len(trained) == len(init) and trained != init
    assert same_bytes.compare_runs(*runs, names=["monolith.bin"])


def test_main_compares_the_monolith_after_the_cli_configs(tmp_path, capsys,
                                                          monkeypatch):
    """After the CLI configs, main compares the monolith run's one file."""
    def fake_pipeline(checkout, run_dir, config):
        fake_run(run_dir)

    def fake_monolith(checkout, run_dir):
        (run_dir / "out").mkdir(parents=True)
        (run_dir / "out" / "monolith.bin").write_bytes(
            b"\x00" * (8 if checkout.name == "a" else 16))

    monkeypatch.setattr(same_bytes, "blas_runtime_in", lambda env: "core")
    monkeypatch.setattr(same_bytes, "run_pipeline", fake_pipeline)
    monkeypatch.setattr(same_bytes, "run_monolith", fake_monolith)
    assert same_bytes.main(["--parent", str(tmp_path / "a"), "--change",
                            str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 3 * 7 + 1
    assert lines[-2] == "crop report.csv: same"
    assert lines[-1] == \
        "monolith monolith.bin: byte 8 differs (8 against 16 bytes)"


def test_report_metrics_reads_the_named_rows_before_the_roc(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text("metric,value\r\nbest_accuracy,0.75\r\nauc,0.5\r\n"
                      "roc_points\r\nthreshold,fpr,tpr\r\n0.25,0.0,0.5\r\n",
                      encoding="utf-8")
    assert same_bytes.report_metrics(report) == {"best_accuracy": 0.75,
                                                 "auc": 0.5}


def test_parent_config_runs_the_parent_side_of_one_config(tmp_path, capsys,
                                                          monkeypatch):
    """``--parent-config NAME=FILE`` gives the parent side of config NAME
    the config in FILE (one with a key the change dropped, say); the
    change side, and every other config, run the tool's own."""
    old = {**same_bytes.OFFSETS_CONFIG,
           "pyramid": {**same_bytes.OFFSETS_CONFIG["pyramid"],
                       "networks_per_level": 4}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old), encoding="utf-8")
    ran = []

    def fake_pipeline(checkout, run_dir, config):
        ran.append((run_dir.parent.name, checkout.name, config))
        fake_run(run_dir)

    def fake_monolith(checkout, run_dir):
        (run_dir / "out").mkdir(parents=True)
        (run_dir / "out" / "monolith.bin").write_bytes(b"\x00")

    monkeypatch.setattr(same_bytes, "blas_runtime_in", lambda env: "core")
    monkeypatch.setattr(same_bytes, "run_pipeline", fake_pipeline)
    monkeypatch.setattr(same_bytes, "run_monolith", fake_monolith)
    assert same_bytes.main(["--parent", str(tmp_path / "a"), "--change",
                            str(tmp_path / "b"), "--parent-config",
                            f"offsets={path}"]) == 0
    assert ran == [(name, side, old if (name, side) == ("offsets", "a")
                    else config)
                   for name, config in same_bytes.CONFIGS.items()
                   for side in ("a", "b")]
    assert capsys.readouterr().out.splitlines()[-1] == \
        "monolith monolith.bin: same"


@pytest.mark.parametrize("value", ["monolith=x.json", "offsets", "nope=x",
                                   "offsets=no/such/config.json"])
def test_parent_config_names_a_cli_config_and_a_json_file(tmp_path, value,
                                                           capsys):
    with pytest.raises(SystemExit):
        same_bytes.main(["--parent", str(tmp_path), "--change",
                         str(tmp_path), "--parent-config", value])
    assert "--parent-config" in capsys.readouterr().err
