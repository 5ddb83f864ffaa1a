"""Layer operators and backpropagation for the convolutional feature networks.

Conventions, fixed across the package:

* feature maps are (height, width, channel) float64 tensors at the public
  API; the array kernels underneath take a leading batch axis, (n, h, w, c),
  and their backward passes return gradients summed over the batch, so the
  public per-image operations are batch-of-one calls into the same kernels;
* convolution is *true* convolution with no padding: the kernel is indexed
  as input[x-a, y-b, c] * weights[a, b, c, z], which the vectorized kernels
  realize as cross-correlation with a spatially flipped copy of the weights;
* the forward lowers it into row strips (Cho & Brand's MEC, 2017) and
  the backward's dw into im2col column blocks (Chellapilla, Puri & Simard
  2006), one block of the output at a time (below); callers that batch
  size their batches by the same `_SLAB_ELEMENTS`: the Siamese trainer
  and validation by the largest pre-activation map
  (`_images_per_slab`), the forward-only frozen stages and extraction's
  level networks by the larger of the batch's input and its largest
  pre-activation map (`_inputs_per_slab`);
* the activation g is the rectifier max(0, x) after every conv stage; the
  FC head is linear, so no embedding unit can be stuck at zero;
* pooling takes non-overlapping s x s window maxima (window == stride).

The forward, `_conv_fwd`, copies each block of its batch once into row
strips (`_strip_blocks`): for image i, output column x and input row y,
the kw*c values x[i, y, x:x+kw, :], laid out (m, ow, rows, kw*c).  In a
C-contiguous batch those values are one run, so the fill is one copy
whose elements are whole kernel rows (`_kernel_rows`: an opaque kw*c-value
item at each (i, x, y) of a strided view of the batch) into the strips
viewed as the same items, a byte copy that moves a row per element, not a
value.  A batch of another layout (an offset crop of a larger grid, as a
multi-network level's extraction passes) is copied contiguous one block of
images at a time: a whole-batch copy, freed beside the strip buffer, made
glibc trim and refault about 1.9 MB on every call.  An image's
output row r reads kh consecutive strips of each column, so its
(ow, kh*kw*c) column matrix is a strided view of the strips, and one
`np.matmul` writes the block's output in place, one GEMM per image output
row.  A strip holds kw*c values where a column row holds kh*kw*c: a 76-px
image copies 27,360 values, not 129,600.  A block holds whole images
while one image's strips fit `_SLAB_ELEMENTS`, else a band of one image's
output rows r:s, reading input rows r:s+kh-1.  Every GEMM has the same
shape at any batch size and partition, so an image's map is the same bits
alone, in a batch and in bands.  Where the BLAS gives a row the bits it
gives it inside one GEMM over a whole slab's columns, as at every
geometry of the default pyramid (output widths 72, 32, 12 and 4), those
are the same bits too; a GEMV (c_out = 1 or output width 1) or rows past
the GEMM's last full row panel round differently.

The strips, and so the rows of each output row's GEMM, run in *pool
order* for the stage's s x s window: output column x = X*s + b sits at
b*(ow/s) + X, so the map's row u holds its window column b's entries as
one contiguous run of ow/s*c values.  The GEMM keeps its shape, its
(a, b, c) order and its K, and each entry is the same dot product, only
in another row of it.  On the OpenBLAS this was measured on, that keeps
every entry's bits at c_out >= 4 (a sweep of small geometries, and every
stage of the default pyramid, which has 8 or 16); at c_out 1-3 a column
that the order moves into or out of the GEMM's tail rows can round
differently.  With s = 1 the order is the natural one (`conv_forward`).

The backward's dw keeps im2col: `_column_blocks` walks the output in
blocks whose column matrix holds at most `_SLAB_ELEMENTS` values, whole
images while one image's columns fit, else bands of one image's output
rows (a 36-px, 8-channel image: 32*32*5*5*8 = 204,800 values, in bands of
20 and 12 rows; only a single output row wider than the bound could
exceed it).  dw sums one product per block, so this partition fixes dw's
bits, and that is why two walks remain: strip blocks hold more images.
Each block is copied into one buffer, in (a, b, c) order: with several
input channels by one copy of whole kernel rows, as the strips are filled,
from the (n, oh, ow, kh) kernel-row view of the batch; with one, as kh*kw
copies of contiguous image rows into a (kh*kw, m) array that the GEMM
reads as its transpose (the same matrix and bits).

The input gradient (col2im) reads no columns: it is one product of the
output gradient with the flipped kernel into a (kh, kw, n, oh, ow, c_in)
array, then kh*kw adds in (a, b) order, each reading one contiguous tap
into its shifted window of dx.  The product is written over the block's
column buffer, which dw has already read, so a call holds one block-sized
buffer, not two.  Every dx entry receives its terms in the order of a
row-major (m, kh*kw*c_in) scatter, so while a block holds whole images dx
is those bits.  With one input channel the product is the 2-D (kh*kw,
c_out) @ (c_out, m) GEMM, since numpy runs a stack of one-column products
as GEMV, which rounds differently.  Across row bands, the terms of a dx
row near a band edge arrive band by band and dw sums the bands in turn,
so both move in the last bits.

`_conv_fwd` returns the product without the bias; `_add_bias` adds it in
place, as whole output rows (the channel order is the same in either
column order).  There is one pooling kernel, `_pool`: one reduction over
the two window axes of an (n, oh/s, s, s, ow/s, c) window view, taking
the s*s positions (a, b) in row-major order (numpy's maximum keeps the
later of two equal values, so a +0/-0 tie keeps the last tied position's
sign, as s*s sequential `np.maximum` passes would); the pooled map comes
out in natural order.  A pool-order map gives that view by a reshape
(`_windows`), and the reduction reads it as (n, oh/s, s*s, ow/s*c) rows
of contiguous runs.  `maxpool`, the public per-image op, gives its natural
map's view by a reshape and a transpose; the reduction reads that view
C-contiguous, so it is copied once (numpy's reduction over the strided
view, runs of c values, was about 4x slower than the copy and the
contiguous reduction).  Every stage pools its pre-activation map with
`_pool` and rectifies the pooled map.  That is exact, not an
approximation: max(0, max_i a_i) == max_i max(0, a_i) for
the monotone rectifier, and it leaves 1/(s*s) of the rectifier work.  The
inference path adds the bias after the pool too, for the same reason:
rounding is monotone, so fl(max_i p_i + b) == max_i fl(p_i + b), and it
leaves 1/(s*s) of the adds.

A stage is a `Stage(conv, pool)`, the one stage type: a `Network`'s
stages and a pyramid's entry stages are the same objects.  The kernels
below the public API read a `Network` and its layers' own arrays, with no
parameter tuples in between, and `_backward_cached` returns one (dw, db)
per entry of `net.layers` (the stages' convs in order, then the head).
A stage's shape is its `geometry`, (kh, kw, c_in, c_out, pool), and
`_stage_shapes`, the one walk of a chain of them, is the only check that a
kernel fits and a pool divides: behind `Network`, slab sizing, the
per-image ops (`maxpool` walks a 1x1 stage that keeps its channels), the
spec's validation and `pyramid._image_set`, the one image-set rule.

Two forward kernels share the conv and pool kernels.  `_forward_cached` is
the training path: it keeps every stage's input and pre-activation, the
pool routing and the sign of the pooled map for `_backward_cached`, and
only training, `network_backward` and `gradient_check` call it.  The
routing is s*s boolean masks, one per window position (a, b) in row-major
order and shaped like the pooled map: an entry is routed when it equals
its window's maximum and no earlier position of the window was, so each
window routes exactly its first maximum (the first-max-wins rule of an
argmax over the window).  Backward keeps the gradient where the pooled
map is positive and writes `g * mask` into each strided slice
g_pre[:, a::s, b::s] of a natural-order gradient, which the column blocks
of `_conv_bwd` read as before.  That is the gradient of
rectify-then-pool: a window with a positive maximum has the same winners
before and after the rectifier, and a window without one passes no
gradient either way.  (A masked-out negative gradient leaves -0.0, not
0.0; a signed zero changes no nonzero sum and no momentum step, so the
trained parameters are the same bits.)

`_forward` is the inference path behind `network_forward`, validation
and extraction.  It keeps nothing, and it evaluates the head one row at a
time (a stack of (1, d) @ (d, m) products).  A batched (n, d) @ (d, m)
product is a different BLAS routine from the batch-of-one product and
differs from it in the last bits, so the per-row form is what makes an
image's embedding the same bits whether it is computed alone or in a
batch.  (The conv GEMMs, one per image output row, already are.)

The gradient-check harness compares backprop against central finite
differences of a fixed random projection of the network output, skipping
coordinates whose stage pre-activations sit within 10*epsilon of the
rectifier kink (there the two-sided difference quotient is meaningless).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .tensor import Tensor, TensorError, float_array


class ShapeError(TensorError):
    """Layer input does not fit the layer's declared geometry."""


# ---------------------------------------------------------------------------
# layer types


class _Layer:
    """Weights and a bias: float64 copies of the constructor's inputs that
    the layer owns.  Training updates the arrays in place; they cannot be
    replaced, so they always passed the constructor's checks."""

    __slots__ = ("_weights", "_bias", "frozen")

    def __init__(self, weights, bias, frozen: bool):
        self._weights, self._bias = float_array(weights), float_array(bias)
        self.frozen = bool(frozen)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def bias(self) -> np.ndarray:
        return self._bias


class ConvLayer(_Layer):
    """Convolution weights (kh x kw x c_in x c_out) with a per-channel bias."""

    __slots__ = ()

    def __init__(self, weights, bias, frozen: bool = False):
        super().__init__(weights, bias, frozen)
        weights, bias = self.weights, self.bias
        if len(weights.shape) != 4:
            raise ShapeError(
                f"conv weights must be rank 4 (kh, kw, c_in, c_out), "
                f"got shape {weights.shape}"
            )
        if len(bias.shape) != 1 or bias.shape[0] != weights.shape[3]:
            raise ShapeError(
                f"conv bias must have length c_out={weights.shape[3]}, "
                f"got shape {bias.shape}"
            )

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[3]

    @classmethod
    def initialize(cls, kernel: int, in_channels: int, out_channels: int,
                   rng: np.random.Generator) -> "ConvLayer":
        fan_in = kernel * kernel * in_channels
        fan_out = kernel * kernel * out_channels
        w = glorot_uniform(rng, (kernel, kernel, in_channels, out_channels),
                           fan_in, fan_out)
        return cls(w, np.zeros(out_channels))


@dataclass(frozen=True)
class PoolSpec:
    """Max-pooling window size s; the stride always equals the window."""

    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ShapeError(f"pool window must be >= 1, got {self.window}")


class FCLayer(_Layer):
    """Fully-connected head: weights (d_in x m), bias (m), linear output."""

    __slots__ = ()

    def __init__(self, weights, bias, frozen: bool = False):
        super().__init__(weights, bias, frozen)
        weights, bias = self.weights, self.bias
        if len(weights.shape) != 2:
            raise ShapeError(
                f"fc weights must be rank 2 (d_in, m), got {weights.shape}"
            )
        if len(bias.shape) != 1 or bias.shape[0] != weights.shape[1]:
            raise ShapeError(
                f"fc bias must have length m={weights.shape[1]}, "
                f"got shape {bias.shape}"
            )

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def initialize(cls, d_in: int, out_dim: int,
                   rng: np.random.Generator) -> "FCLayer":
        w = glorot_uniform(rng, (d_in, out_dim), d_in, out_dim)
        return cls(w, np.zeros(out_dim))


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class Stage(NamedTuple):
    """One conv+pool stage: the conv, then the s x s window max, then the
    rectifier.  A pyramid level's entry stage is one `Stage` object, held
    by every network of the level and by the assembled networks above it."""

    conv: ConvLayer
    pool: PoolSpec

    @property
    def frozen(self) -> bool:
        return self.conv.frozen

    @property
    def geometry(self) -> tuple[int, int, int, int, int]:
        """(kh, kw, c_in, c_out, pool): all that `_stage_shapes` reads."""
        return (*self.conv.weights.shape, self.pool.window)


def _stage_shapes(geometry: Sequence[tuple[int, ...]], h: int, w: int,
                  c: int):
    """((h', w', c'), largest): the map stages of the (kh, kw, c_in, c_out,
    pool) `geometry` make of an (h, w, c) input, and the largest stage
    pre-activation map on the way, in elements (1 with no stages).  Raises
    ShapeError naming the first stage that does not fit its input."""
    largest = 1
    for i, (kh, kw, c_in, c_out, s) in enumerate(geometry):
        if c != c_in:
            raise ShapeError(f"stage {i} expects {c_in} input channels but "
                             f"receives {c}")
        if kh > h or kw > w:
            raise ShapeError(f"stage {i} kernel {kh}x{kw} exceeds its "
                             f"{h}x{w} input")
        h, w, c = h - kh + 1, w - kw + 1, c_out
        if h % s or w % s:
            raise ShapeError(f"stage {i} pool window {s} does not divide its "
                             f"{h}x{w} feature map on axis {int(h % s == 0)}")
        largest = max(largest, h * w * c)
        h, w = h // s, w // s
    return (h, w, c), largest


class Network:
    """Conv+pool stages terminated by one FC head.

    `input_size` is the (square) spatial edge the network expects;
    `in_channels` is the channel count at entry (1 for raw images, the
    shared stage's channel count for networks that consume preprocessed
    data).  Construction verifies that the whole shape chain closes.
    """

    __slots__ = ("stages", "head", "input_size", "in_channels", "output_dim")

    def __init__(self, stages: Sequence[Stage], head: FCLayer,
                 input_size: int, in_channels: int = 1):
        stages = list(stages)
        (h, w, c), _ = _stage_shapes([stage.geometry for stage in stages],
                                     int(input_size), int(input_size),
                                     int(in_channels))
        if head.d_in != h * w * c:
            raise ShapeError(
                f"fc head expects {head.d_in} inputs but the last feature "
                f"map flattens to {h * w * c}"
            )
        self.stages = stages
        self.head = head
        self.input_size = int(input_size)
        self.in_channels = int(in_channels)
        self.output_dim = head.out_dim

    @property
    def layers(self) -> list:
        """The stages' convs in order, then the head."""
        return [stage.conv for stage in self.stages] + [self.head]


# ---------------------------------------------------------------------------
# array kernels (ndarrays in and out; parameters read from a network's layers)

# Upper bound, in float64 elements, on one block's row strips or column
# matrix, and on the largest pre-activation map (and, forward-only, the
# input) of the inputs a caller batches into one call.
_SLAB_ELEMENTS = 1 << 17


def _slab(per_item: int) -> int:
    """How many items of `per_item` elements fit one slab (at least one)."""
    return max(1, _SLAB_ELEMENTS // per_item)


def _images_per_slab(net: Network) -> int:
    """Inputs of `net` per batched call: as many as keep the largest stage
    pre-activation map of the batch within one slab."""
    return _slab(_stage_shapes([stage.geometry for stage in net.stages],
                               net.input_size, net.input_size,
                               net.in_channels)[1])


def _inputs_per_slab(input_elements: int, largest: int) -> int:
    """Inputs of `input_elements` each per forward-only batched call whose
    largest stage pre-activation map holds `largest` elements per input:
    as many as keep both the batch's input and that map within one slab."""
    return _slab(max(input_elements, largest))


def forward_multiply_adds(net: Network) -> int:
    """Multiply-adds of one forward pass of `net` on one input, from its
    geometry: each conv's pre-activation map times its kernel volume
    (kh*kw*c_in), plus the head's weights; pooling and the rectifier make
    none."""
    total = net.head.weights.size
    shape = (net.input_size, net.input_size, net.in_channels)
    for stage in net.stages:
        shape, pre_activation = _stage_shapes([stage.geometry], *shape)
        total += pre_activation * stage.conv.weights.size \
            // stage.conv.out_channels
    return total


def _kernel_rows(x: np.ndarray, kw: int, shape, strides) -> np.ndarray:
    """A read-only view of the C-contiguous (n, h, w, c) batch `x` whose
    elements are whole kernel rows: the element at byte offset o is the
    kw*c values that start there, as one opaque item, so one copy of such
    a view moves kw*c values per element, bytes unchanged."""
    rows = np.ndarray(shape, _row_type(kw * x.shape[3]), buffer=x,
                      strides=strides)
    rows.flags.writeable = False
    return rows


def _row_type(k: int) -> np.dtype:
    """The opaque element type of k float64 values."""
    return np.dtype((np.void, 8 * k))


def _column_blocks(x: np.ndarray, kh: int, kw: int):
    """Yield (i, j, r, s, col): the (m, kh*kw*c) column matrix, in (a, b, c)
    order, of output rows r:s of images i:j of an (n, h, w, c) batch.

    A block holds whole images (r:s spans every output row) while one
    image's columns fit `_SLAB_ELEMENTS`, else a band of one image's output
    rows, at least one; either way out[i:j, r:s] is contiguous.  `col` is a
    view of one buffer, which the next block overwrites; the caller may
    overwrite it too once it is done with the columns.
    """
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    k = kh * kw * c
    if oh * ow * k <= _SLAB_ELEMENTS:
        images, rows = _SLAB_ELEMENTS // (oh * ow * k), oh
    else:
        images, rows = 1, max(1, _SLAB_ELEMENTS // (ow * k))
    buf = np.empty(min(n, images) * rows * ow * k)
    for i in range(0, n, images):
        j = min(i + images, n)
        if c > 1:
            xb = np.ascontiguousarray(x[i:j], dtype=np.float64)
            sn, sh, sw, _ = xb.strides
            win = _kernel_rows(xb, kw, (j - i, oh, ow, kh), (sn, sh, sw, sh))
        for r in range(0, oh, rows):
            s = min(r + rows, oh)
            m = (j - i) * (s - r) * ow
            if c > 1:
                col = buf[:m * k].reshape(m, k)
                np.copyto(col.reshape(j - i, s - r, ow, kh, kw * c)
                          .view(win.dtype)[..., 0], win[:, r:s])
            else:
                # kernel-position-major copies of contiguous image rows
                tap = buf[:m * k].reshape(kh, kw, j - i, s - r, ow)
                for a in range(kh):
                    for b in range(kw):
                        tap[a, b] = x[i:j, r + a:s + a, b:b + ow, 0]
                col = tap.reshape(k, m).T
            yield i, j, r, s, col


def _strip_blocks(x: np.ndarray, kh: int, kw: int, pool: int):
    """Yield (i, j, r, s, rows): the (ow, kh*kw*c) column matrix, in
    (a, b, c) order, of each output row r:s of images i:j of an (n, h, w, c)
    batch, as a (j-i, s-r, ow, kh*kw*c) strided view of the block's row
    strips (module docstring).  The strips of an image row, and so its
    matrix rows, run in pool order: output column x = X*pool + b sits at
    b*(ow/pool) + X.  The strips live in one buffer, which the next block
    overwrites."""
    n, h, w, c = x.shape
    oh, ow, k = h - kh + 1, w - kw + 1, kw * c
    if ow * h * k <= _SLAB_ELEMENTS:
        images, rows = min(n, _SLAB_ELEMENTS // (ow * h * k)), oh
    else:
        images, rows = 1, max(1, _SLAB_ELEMENTS // (ow * k) - kh + 1)
    hb = rows + kh - 1
    buf = np.empty((images, pool, ow // pool, hb, k))
    e = buf.itemsize
    stack = np.ndarray((images, rows, ow, kh * k), buffer=buf,
                       strides=(ow * hb * k * e, k * e, hb * k * e, e))
    strips = buf.view(_row_type(k))[..., 0]
    for i in range(0, n, images):
        j = min(i + images, n)
        xb = np.ascontiguousarray(x[i:j], dtype=np.float64)
        sn, sh, sw, _ = xb.strides
        win = _kernel_rows(xb, kw, (j - i, pool, ow // pool, h),
                           (sn, sw, pool * sw, sh))
        for r in range(0, oh, rows):
            s = min(r + rows, oh)
            np.copyto(strips[:j - i, :, :, :s - r + kh - 1],
                      win[:, :, :, r:s + kh - 1])
            yield i, j, r, s, stack[:j - i, :s - r]


def _conv_fwd(x: np.ndarray, w: np.ndarray, pool: int) -> np.ndarray:
    """The valid true convolution of an (n, h, w, c_in) batch with `w`,
    without the bias, each output row in pool order for a `pool` x `pool`
    window (natural order when `pool` is 1)."""
    kh, kw, c_in, c_out = w.shape
    n_img, oh, ow = x.shape[0], x.shape[1] - kh + 1, x.shape[2] - kw + 1
    # true convolution == cross-correlation with the spatially flipped kernel
    wf = w[::-1, ::-1].reshape(kh * kw * c_in, c_out)
    out = np.empty((n_img, oh, ow, c_out))
    for i, j, r, s, rows in _strip_blocks(x, kh, kw, pool):
        np.matmul(rows, wf, out=out[i:j, r:s])
    return out


def _add_bias(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x` + `b` over the channels of an (n, h, w, c) map, in place, as
    whole rows: numpy adds long runs much faster than it broadcasts a
    c-long vector."""
    width = x.shape[2]
    flat = x.reshape(-1, width * b.size)
    flat += b[None].repeat(width, axis=0).ravel()
    return x


def _conv_bwd(x: np.ndarray, w: np.ndarray, g: np.ndarray,
              need_dx: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    kh, kw, c_in, c_out = w.shape
    ow = g.shape[2]
    wf = w[::-1, ::-1].reshape(kh * kw * c_in, c_out)
    # (kh*kw, c_out, c_in): one (m, c_out) @ (c_out, c_in) GEMM per tap
    wt = np.ascontiguousarray(
        wf.reshape(kh * kw, c_in, c_out).transpose(0, 2, 1))
    dwf = np.zeros((kh * kw * c_in, c_out))
    dx = np.zeros_like(x) if need_dx else None
    for i, j, r, s, col in _column_blocks(x, kh, kw):
        gm = g[i:j, r:s].reshape(-1, c_out)
        dwf += col.T @ gm
        if not need_dx:
            continue
        # the column gradient overwrites the block's columns, now used
        dcol = col.ravel(order="K").reshape(kh * kw, -1, c_in)
        if c_in == 1:  # numpy makes a one-column product a GEMV
            np.matmul(wf, gm.T, out=dcol[:, :, 0])
        else:
            np.matmul(gm, wt, out=dcol)
        dcol = dcol.reshape(kh, kw, j - i, s - r, ow, c_in)
        for a in range(kh):
            for b_ in range(kw):
                dx[i:j, r + a:s + a, b_:b_ + ow] += dcol[a, b_]
    dw = dwf.reshape(kh, kw, c_in, c_out)[::-1, ::-1]
    db = g.sum(axis=(0, 1, 2))
    return dx, dw, db


def _windows(x: np.ndarray, s: int) -> np.ndarray:
    """A pool-order (n, h, w, c) map as its (n, h/s, s, s, w/s, c) window
    view, by a reshape: [:, :, a, b] holds window position (a, b) of every
    window, in the (h/s, w/s, c) order of the pooled map."""
    n, h, w, c = x.shape
    return x.reshape(n, h // s, s, s, w // s, c)


def _pool(win: np.ndarray) -> np.ndarray:
    """The window maxima of an (n, h/s, s, s, w/s, c) window view, as a
    natural (n, h/s, w/s, c) map: one reduction over the s*s window
    positions, taken in row-major order.  The reduction reads the view
    C-contiguous, as a pool-order map's already is (`_windows`)."""
    n, oh, s, _, ow, c = win.shape
    flat = np.ascontiguousarray(win).reshape(n, oh, s * s, ow * c)
    return flat.max(axis=2).reshape(n, oh, ow, c)


def _pool_routes(x: np.ndarray, pooled: np.ndarray, s: int) -> list:
    """One boolean mask per window position (a, b), in row-major order and
    shaped like `pooled` = `_pool(_windows(x, s))`, of the entries of the
    pool-order map x that it took: each window's first maximum, so every
    window has exactly one routed entry."""
    win = _windows(x, s)
    masks, taken = [], None
    for a in range(s):
        for b in range(s):
            hit = win[:, :, a, b] == pooled
            if taken is None:
                taken = hit.copy()
            else:
                hit &= ~taken
                taken |= hit
            masks.append(hit)
    return masks


def _stage_forward(x: np.ndarray, stage: Stage) -> np.ndarray:
    """One stage without backprop state: conv, s x s window max of the
    unbiased map, then the bias and the rectifier on the pooled map."""
    s = stage.pool.window
    out = _add_bias(_pool(_windows(_conv_fwd(x, stage.conv.weights, s), s)),
                    stage.conv.bias)
    return np.maximum(out, 0.0, out=out)


def _forward(net: Network, x: np.ndarray) -> np.ndarray:
    """(n, m) outputs of `net` on an (n, h, w, c) batch, with no backprop
    state; row i is bit-equal to a batch of one on x[i]."""
    for stage in net.stages:
        x = _stage_forward(x, stage)
    flat = x.reshape(x.shape[0], 1, -1)
    return np.matmul(flat, net.head.weights)[:, 0] + net.head.bias


def _forward_cached(net: Network, x: np.ndarray):
    """Run `net` on an (n, h, w, c) batch, keeping what backprop needs
    (each stage's pre-activation map in pool order); returns the (n, m)
    outputs and the caches."""
    caches = []
    for conv, pool in net.stages:
        s = pool.window
        pre = _add_bias(_conv_fwd(x, conv.weights, s), conv.bias)
        pooled = _pool(_windows(pre, s))
        caches.append({"x": x, "pre": pre,
                       "routes": _pool_routes(pre, pooled, s),
                       "alive": pooled > 0})
        x = np.maximum(pooled, 0.0, out=pooled)
    flat = x.reshape(x.shape[0], -1)
    out = flat @ net.head.weights + net.head.bias
    caches.append({"flat": flat, "map_shape": x.shape})
    return out, caches


def _backward_cached(net: Network, caches, g_out: np.ndarray):
    """Gradients of sum_i g_out[i] . output[i] w.r.t. all parameters, frozen
    or not: per-image gradients summed over the batch.

    Returns one (dw, db) per entry of `net.layers`: the stages' convs in
    order, then the head.
    """
    fc = caches[-1]
    grads = [(fc["flat"].T @ g_out, g_out.sum(axis=0))]
    g = (g_out @ net.head.weights.T).reshape(fc["map_shape"])
    for i, (conv, pool) in reversed(list(enumerate(net.stages))):
        cache, s = caches[i], pool.window
        g = g * cache["alive"]  # the rectifier, on the pooled map
        g_pre = np.empty_like(cache["pre"])  # the slices cover every entry
        for (a, b), route in zip(np.ndindex(s, s), cache["routes"]):
            np.multiply(g, route, out=g_pre[:, a::s, b::s])
        dx, dw, db = _conv_bwd(cache["x"], conv.weights, g_pre,
                               need_dx=i > 0)
        grads.append((dw, db))
        g = dx
    return grads[::-1]


# ---------------------------------------------------------------------------
# public operations


def _checked_input(input: Tensor, geometry, what: str) -> np.ndarray:
    """`input`'s array, if stages of `geometry` take it."""
    x = input.array
    if x.ndim != 3:
        raise ShapeError(f"{what} input must be h x w x c, got {input.shape}")
    _stage_shapes(geometry, *x.shape)
    return x


def conv_forward(input: Tensor, layer: ConvLayer) -> Tensor:
    """Valid (no padding) true convolution plus per-channel bias."""
    x = _checked_input(input, [(*layer.weights.shape, 1)], "conv")
    return Tensor.from_array(
        _add_bias(_conv_fwd(x[None], layer.weights, 1), layer.bias)[0])


def activation(input: Tensor) -> Tensor:
    """Elementwise rectifier max(0, x)."""
    return Tensor.from_array(np.maximum(input.array, 0.0))


def maxpool(input: Tensor, spec: PoolSpec) -> Tensor:
    """Non-overlapping window maxima; spatial extents shrink by the window.
    Its input is checked as a 1x1 stage's that keeps the channels."""
    c = input.shape[-1]
    s = spec.window
    h, w, _ = _checked_input(input, [(1, 1, c, c, s)], "pool").shape
    # the natural map's window view: a reshape and a transpose
    win = input.array.reshape(1, h // s, s, w // s, s, c)
    return Tensor.from_array(_pool(win.transpose(0, 1, 2, 4, 3, 5))[0])


def fc_forward(input: Tensor, layer: FCLayer) -> Tensor:
    """Affine map with no activation; input is flattened row-major."""
    flat = input.array.reshape(-1)
    if flat.shape[0] != layer.d_in:
        raise ShapeError(
            f"fc expects {layer.d_in} inputs, got {flat.shape[0]}"
        )
    out = flat[None] @ layer.weights + layer.bias
    return Tensor.from_array(out[0])


def _network_input(net: Network, patch: Tensor) -> np.ndarray:
    """`patch` as a batch of one, if it is the input `net` expects."""
    x = patch.array
    if x.shape != (net.input_size, net.input_size, net.in_channels):
        raise ShapeError(
            f"network expects {net.input_size}x{net.input_size}"
            f"x{net.in_channels} input, got {patch.shape}"
        )
    return x[None]


def _layer_names(net: Network) -> list[str]:
    """"conv<i>" per stage, then "head": the names of `net.layers`."""
    return [f"conv{i}" for i in range(len(net.stages))] + ["head"]


def network_forward(net: Network, patch: Tensor) -> Tensor:
    """Apply every stage then the head; returns the length-m representation."""
    return Tensor.from_array(_forward(net, _network_input(net, patch))[0])


def network_backward(net: Network, patch: Tensor,
                     output_grad) -> dict[str, np.ndarray]:
    """Gradient of output_grad . f(patch) for every non-frozen parameter.

    Keys are "conv<i>.weights" / "conv<i>.bias" per stage and
    "head.weights" / "head.bias"; frozen layers contribute no entries.
    """
    g_out = np.asarray(output_grad, dtype=np.float64).reshape(-1)
    if g_out.shape[0] != net.output_dim:
        raise ShapeError(
            f"output_grad must have length {net.output_dim}, "
            f"got {g_out.shape[0]}"
        )
    _, caches = _forward_cached(net, _network_input(net, patch))
    grads: dict[str, np.ndarray] = {}
    for name, layer, (dw, db) in zip(_layer_names(net), net.layers,
                                     _backward_cached(net, caches,
                                                      g_out[None])):
        if not layer.frozen:
            grads[f"{name}.weights"], grads[f"{name}.bias"] = dw, db
    return grads


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class BlockCheck:
    name: str
    max_rel_error: float
    checked: int
    skipped: int

    def passed(self, tol: float) -> bool:
        return self.max_rel_error <= tol


@dataclass
class GradCheckReport:
    blocks: list[BlockCheck]
    epsilon: float
    tol: float

    @property
    def max_rel_error(self) -> float:
        return max((b.max_rel_error for b in self.blocks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(b.passed(self.tol) for b in self.blocks)

    @property
    def flagged(self) -> list[str]:
        return [b.name for b in self.blocks if not b.passed(self.tol)]


def _rel_err(a: float, f: float) -> float:
    m = max(abs(a), abs(f))
    if m < 1e-10:
        return 0.0
    return abs(a - f) / m


def gradient_check(net: Network, patch: Tensor, epsilon: float = 1e-5,
                   tol: float = 1e-4) -> GradCheckReport:
    """Compare backprop against central finite differences, block by block.

    The scalar under test is u . f(patch) for a fixed random projection u.
    Only stage pre-activations are margin-checked, since the head is linear
    and has no kink.  A coordinate is skipped when any stage pre-activation
    it feeds lies within 10*epsilon of zero, where the rectifier kink makes
    the central difference quotient unreliable: for a stage's own parameters
    that is the affected output channel's pre-activation map, and every
    pre-activation of later stages (which the perturbation reaches
    indirectly) must clear the same margin.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    u = np.random.default_rng(0x5EED).standard_normal(net.output_dim)
    x = _network_input(net, patch)
    # the layer constructors copy: perturbing `net` leaves the caller's alone
    net = Network([Stage(ConvLayer(conv.weights, conv.bias, conv.frozen), pool)
                   for conv, pool in net.stages],
                  FCLayer(net.head.weights, net.head.bias, net.head.frozen),
                  net.input_size, net.in_channels)

    _, caches = _forward_cached(net, x)
    grads = _backward_cached(net, caches, u[None])

    margin = 10.0 * epsilon
    stage_pre_min = [np.abs(c["pre"]).min() for c in caches[:-1]]

    def scalar() -> float:
        o, _ = _forward_cached(net, x)
        return float(u @ o[0])

    def fd(arr: np.ndarray, index: tuple) -> float:
        orig = arr[index]
        arr[index] = orig + epsilon
        hi = scalar()
        arr[index] = orig - epsilon
        lo = scalar()
        arr[index] = orig
        return (hi - lo) / (2.0 * epsilon)

    def check_block(name: str, arr: np.ndarray, ana: np.ndarray,
                    coord_ok) -> BlockCheck:
        worst, checked, skipped = 0.0, 0, 0
        for index in np.ndindex(arr.shape):
            if not coord_ok(index):
                skipped += 1
                continue
            worst = max(worst, _rel_err(ana[index], fd(arr, index)))
            checked += 1
        return BlockCheck(name, worst, checked, skipped)

    blocks: list[BlockCheck] = []
    for i, (name, layer, (dw, db)) in enumerate(zip(
            _layer_names(net), net.layers, grads)):
        if layer.frozen:
            continue
        if i == len(net.stages):  # the head
            w_ok = b_ok = lambda idx: True
        elif min(stage_pre_min[i + 1:], default=np.inf) < margin:
            blocks.append(BlockCheck(f"{name}.weights", 0.0, 0, dw.size))
            blocks.append(BlockCheck(f"{name}.bias", 0.0, 0, db.size))
            continue
        else:
            chan_min = np.abs(caches[i]["pre"]).min(axis=(0, 1, 2))
            w_ok = lambda idx: chan_min[idx[3]] >= margin
            b_ok = lambda idx: chan_min[idx[0]] >= margin
        blocks.append(check_block(f"{name}.weights", layer.weights, dw, w_ok))
        blocks.append(check_block(f"{name}.bias", layer.bias, db, b_ok))
    return GradCheckReport(blocks, epsilon, tol)
