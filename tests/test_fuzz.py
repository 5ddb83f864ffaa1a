"""Property tests: damaged input files end in the package's own errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrcnn import (PyramidError, PyramidSpec, StageSpec, TensorError,
                    build_pyramid, load_model, save_model)

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


def loads_or_fails_cleanly(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load_model(path)
    except (PyramidError, TensorError):
        pass


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
