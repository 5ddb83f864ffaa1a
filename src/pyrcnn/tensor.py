"""Dense float64 arrays with validation, the carrier type of the public API.

Images, feature maps and feature vectors travel through the public API as a
`Tensor`: a row-major (height, width, channel) float64 block that its one
constructor, `Tensor.from_array`, validates and copies, and that is
read-only afterwards.  There is deliberately no broadcasting and no view
machinery.  Model parameters are not Tensors: each layer owns its weights
and bias as writable arrays from `float_array`, held to the same rules, and
training updates them in place.
"""

from __future__ import annotations

import numpy as np


class TensorError(ValueError):
    """Bad shape, bad data, or out-of-bounds access on a Tensor."""


def float_array(values) -> np.ndarray:
    """A writable C-ordered float64 copy of an array-like with at least one
    axis, no empty extent and only finite values."""
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim == 0:
        raise TensorError("tensor must have at least one axis")
    if min(arr.shape) < 1:
        raise TensorError(f"all extents must be >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise TensorError("tensor values must be finite (no NaN/Inf)")
    return arr


class Tensor:
    """Immutable dense array of 64-bit reals in row-major order."""

    __slots__ = ("array",)

    array: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "Tensor":
        """Copy an array-like into a validated Tensor."""
        t = cls.__new__(cls)
        t.array = float_array(arr)
        t.array.flags.writeable = False
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

