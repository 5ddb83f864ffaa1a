"""Property tests: damaged input files end in the package's own errors."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrcnn import (DataError, PyramidError, PyramidSpec, StageSpec,
                    TensorError, build_pyramid, load_index, load_model,
                    read_features, read_pgm, save_model)
from pyrcnn.cli import ConfigError, RunConfig, load_config

# deterministic and without an example database, so a run writes no files
# and a failure replays on every machine
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                database=None)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A small model that still exercises every header field: two levels,
    two networks at distinct offsets, one frozen stage, a template stage.
    Returns (its bytes, a scratch path to write damaged copies to)."""
    spec = PyramidSpec(levels=2, base_input=10, shared=StageSpec(3, 2, 2),
                       template=(StageSpec(3, 2, 2),), networks_per_level=2,
                       patch_offsets=((0, 0), (1, 2)), output_dim=3)
    model = build_pyramid(spec, seed=60)
    model.stages[0].conv.frozen = True
    model.levels_trained = 1
    root = tmp_path_factory.mktemp("fuzz")
    save_model(model, root / "model.bin")
    data = (root / "model.bin").read_bytes()
    assert len(data) < 4096  # keeps the byte-level search dense
    return data, root / "damaged.bin"


@pytest.fixture(scope="module")
def pointwise_model_file(tmp_path_factory):
    """A one-level model whose shared stage has a 1x1 kernel: its header
    rewritten to a 5x5 or 9x9 kernel is another valid spec, while the
    stored layers still make a chain that closes."""
    model = build_pyramid(PyramidSpec(levels=1, shared=StageSpec(1, 8, 2)),
                          seed=61)
    path = tmp_path_factory.mktemp("pointwise") / "model.bin"
    save_model(model, path)
    return path.read_bytes(), path


def loads_or_fails_cleanly(path, data: bytes):
    """The model `data` holds, or None when loading it fails cleanly.  A
    model that loads saves back to `data` itself: load accepts only the
    bytes save writes."""
    path.write_bytes(data)
    try:
        model = load_model(path)
    except (PyramidError, TensorError):
        return None
    save_model(model, path)
    assert path.read_bytes() == data
    return model


def test_model_file_round_trips(model_file):
    data, path = model_file
    path.write_bytes(data)
    save_model(load_model(path), path)
    assert path.read_bytes() == data


def test_every_truncation_of_a_model_file_fails_cleanly(model_file):
    data, path = model_file
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises((PyramidError, TensorError)):
            load_model(path)


@FUZZ
@given(st.data())
def test_corrupted_model_file_loads_or_fails_cleanly(model_file, draw):
    data, path = model_file
    pos = draw.draw(st.integers(0, len(data) - 1), label="position")
    value = draw.draw(st.integers(0, 255).filter(lambda v: v != data[pos]),
                      label="byte")
    damaged = bytearray(data)
    damaged[pos] = value
    loads_or_fails_cleanly(path, bytes(damaged))


@FUZZ
@given(st.data())
def test_corrupted_header_integer_loads_or_fails_cleanly(model_file, draw):
    """Whole header and shape integers replaced by extreme values, which a
    single byte rarely reaches (negative, zero, huge)."""
    data, path = model_file
    slot = draw.draw(st.integers(1, len(data) // 8 - 1), label="slot")
    value = draw.draw(st.sampled_from([-(1 << 63), -(1 << 31), -1, 0, 1, 2,
                                       7, 1 << 31, (1 << 63) - 1]),
                      label="value")
    damaged = (data[:8 * slot] + np.asarray([value], "<i8").tobytes()
               + data[8 * slot + 8:])
    loads_or_fails_cleanly(path, damaged)


@pytest.mark.parametrize("which", ["model_file", "pointwise_model_file"])
@FUZZ
@given(st.data())
def test_rewritten_spec_header_loads_only_a_model_that_matches_it(
        request, which, draw):
    """Up to three of the 8 spec header integers (levels, base_input,
    networks_per_level, output_dim, the shared stage and the template
    length) rewritten: a model that loads has the layers its spec needs."""
    data, path = request.getfixturevalue(which)
    rewrites = draw.draw(st.dictionaries(st.integers(0, 7),
                                         st.integers(-1, 12), min_size=1,
                                         max_size=3), label="rewrites")
    header = np.frombuffer(data, "<i8", count=8, offset=8).copy()
    for slot, value in rewrites.items():
        header[slot] = value
    model = loads_or_fails_cleanly(path, data[:8] + header.tobytes()
                                   + data[72:])
    if model is None:
        return
    spec = model.spec
    for level, nets in enumerate(model.level_networks):
        for net in nets:
            assert [s.geometry for s in net.stages] \
                == spec.stage_geometry(level)
            assert (net.head.d_in, net.head.out_dim) \
                == (spec.fc_input_dim(), spec.output_dim)


# ---------------------------------------------------------------------------
# PGM, index and features files

# one valid file per parser, small enough that the byte-level search is
# dense, with each format's less common parts: a PGM header comment, an
# index's quoted path, features of two rows in exponent notation
TEXT_FILES = {
    "pgm": (read_pgm, b"P5\n# made by hand\n4 3\n255\n"
            + bytes(range(0, 240, 20))),
    "index": (load_index, b'path,identity\r\na.pgm,p0\r\n'
              b'"c, d.pgm",p1\r\nb.pgm,p0\r\n'),
    "features": (read_features, b"image_path,dim\r\na.pgm,2,0.5,-1.25\r\n"
                 b"b.pgm,2,1e-3,0.0\r\n"),
}


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


def damaged(draw, data: bytes) -> bytes:
    """`data` with up to three bytes replaced, then perhaps cut short."""
    out = bytearray(data)
    for _ in range(draw.draw(st.integers(0, 3), label="edits")):
        pos = draw.draw(st.integers(0, len(out) - 1), label="position")
        out[pos] = draw.draw(st.integers(0, 255), label="byte")
    cut = draw.draw(st.integers(0, len(out)), label="length")
    return bytes(out[:cut])


@pytest.mark.parametrize("kind", sorted(TEXT_FILES))
def test_valid_text_file_loads(text_dir, kind):
    parse, data = TEXT_FILES[kind]
    (text_dir / kind).write_bytes(data)
    parse(text_dir / kind)


@pytest.mark.parametrize("kind", sorted(TEXT_FILES))
def test_missing_text_file_is_not_found(text_dir, kind):
    with pytest.raises(FileNotFoundError):
        TEXT_FILES[kind][0](text_dir / "absent")


@pytest.mark.parametrize("kind", sorted(TEXT_FILES))
@FUZZ
@given(st.data())
def test_damaged_text_file_loads_or_fails_cleanly(text_dir, kind, draw):
    parse, data = TEXT_FILES[kind]
    path = text_dir / kind
    path.write_bytes(damaged(draw, data))
    try:
        parse(path)
    except DataError:
        pass


# ---------------------------------------------------------------------------
# config files

VALID_CONFIG = {
    "seed": 7,
    "output_dir": "out",
    "data": {"dir": "gallery", "n_identities": 48, "images_per_identity": 12,
             "edge": 76, "holdout_fraction": 1 / 3, "brightness_delta": 0.3,
             "max_translation": 4, "noise_sigma": 0.05},
    "pyramid": {"levels": 3, "base_input": 16,
                "shared": {"kernel": 5, "channels": 8, "pool": 2},
                "template": [{"kernel": 3, "channels": 16, "pool": 2}],
                "networks_per_level": 1, "patch_offsets": [[0, 0]],
                "output_dim": 8},
    "train": {"learning_rate": 0.05, "momentum": 0.9, "batch_size": 32,
              "iterations_per_level": 200, "validation_fraction": 0.2},
    "extraction": {"scheme": "single-top", "normalize": False},
    "evaluation": {"fpr_targets": [0.1, 0.01], "n_pairs": 2000},
}


def config_fields(block, path=()):
    """The key path of every value in a config, whole blocks included."""
    for key, value in block.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from config_fields(value, path + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from config_fields(value[0], path + (key, 0))


CONFIG_FIELDS = list(config_fields(VALID_CONFIG))

# every JSON value, with the NaN and Infinity literals Python's json reads
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.json"


def test_valid_config_loads(config_path):
    config_path.write_text(json.dumps(VALID_CONFIG), encoding="utf-8")
    assert isinstance(load_config(config_path), RunConfig)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(CONFIG_FIELDS), value=JSON_VALUES)
def test_any_value_in_any_config_field_loads_or_fails_cleanly(
        config_path, field, value):
    raw = json.loads(json.dumps(VALID_CONFIG))
    block = raw
    for key in field[:-1]:
        block = block[key]
    block[field[-1]] = value
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    try:
        assert isinstance(load_config(config_path), RunConfig)
    except ConfigError:
        pass
