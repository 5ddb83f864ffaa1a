import numpy as np
import pytest

from pyrcnn import Tensor, TensorError


def test_row_major_layout():
    t = Tensor.from_array(np.array([1, 2, 3, 4]).reshape(2, 2))
    assert t.array[1, 0] == 3
    assert t.array[0, 1] == 2


def test_degenerate_shape():
    t = Tensor.from_array([0])
    assert t.shape == (1,)
    assert t.array[0] == 0.0


def test_zero_extent_rejected():
    with pytest.raises(TensorError):
        Tensor.from_array(np.zeros((2, 0)))


def test_non_finite_rejected():
    with pytest.raises(TensorError):
        Tensor.from_array([1.0, np.nan])
    with pytest.raises(TensorError):
        Tensor.from_array(np.array([np.inf, 0.0]))


def test_round_trip_exact():
    rng = np.random.default_rng(0)
    for shape in [(3,), (2, 5), (4, 3, 2)]:
        data = rng.standard_normal(int(np.prod(shape)))
        t = Tensor.from_array(data.reshape(shape))
        assert t.shape == shape
        np.testing.assert_array_equal(t.array.reshape(-1), data)


def test_values_are_copied_and_read_only():
    src = np.ones((2, 2))
    t = Tensor.from_array(src)
    src[0, 0] = 99.0
    assert t.array[0, 0] == 1.0
    with pytest.raises(ValueError):
        t.array[0, 0] = 5.0
