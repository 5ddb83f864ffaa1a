"""tools/same_bytes.py: the per-file comparison of two run directories,
and the configs it runs."""

import importlib.util
from pathlib import Path

from pyrcnn import PyramidSpec

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
