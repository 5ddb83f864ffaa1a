"""Leveled CNN construction, greedy level-by-level training, serialization.

The model is a ladder of levels.  Every level trains the same-shaped
subnetwork on small patches: an entry conv+pool stage, the level-invariant
template stack, and an FC head.  A level's entry stage is a single
`layers.Stage` held by the model and by all of that level's networks (and,
assembled, by every network above it); when the level finishes, the
stage is frozen and becomes a filter-and-down-sample preprocessor for the
levels above it.  The entry stage of the final level is trained like any
other but never consumed.

Training a level therefore always updates the same set of parameter
blocks — one entry stage, one template stack + head + comparator per
network — no matter how high the level sits, while the *assembled* network
for level l (frozen stages 0..l-1 plus level l's subnetwork) grows deeper
and sees exponentially larger input patches.

`PyramidSpec.stage_geometry(level)` is the (kh, kw, c_in, c_out, pool) of
each stage a level's networks have.  The spec validates it with the
layers' shape walk (`layers._stage_shapes`), the builders draw their
stages from it, and `load_model` refuses a file whose layers differ.  The
model file's bytes have one writer, `_model_bytes`, which walks the tensor
order's owner, `_file_order`, as `load_model` does, and a load is refused
unless `_model_bytes` gives the file back.  Every image set (the training
and validation images of a fit, `preprocess_dataset`'s input) passes one
rule, `_image_set`, with one message form.

Each level holds and trains on only what its networks read: the images
its pair batches and the validation pairs name, and of each only the
top-left corner of its grid that spans every network offset, an edge
`base_input + max_offset` square.  `greedy_train` draws a level's batches
before it preprocesses, then takes, for level l, the `patch_edge(l)`
top-left corner of the center crop of each image those batches name, as a
view of the image's stored (8-bit, for a PGM) samples, and
`preprocess_dataset` makes those corners float pixels and pushes them
through the frozen stages 0..l-1 a memory slab of images at a time into
one preallocated (n, e, e, c) array; neither a float copy of the raw
gallery nor a full-size grid of a lower level is ever formed.  Each row is
bit-equal to the stages run on that image alone, so a level's rows hold the
bits of the matching regions of the whole set's full grids.

Greedy levels and the monolithic baseline train through one Siamese loop
(`_siamese_fit`): the same pair loss, momentum SGD, pair stream and
validation.  A level differs only in that its entry stage is one layer
shared by all of its networks.  Each layer owns its weights and bias as
float64 arrays, which the fit steps in place, three in-place operations
per block; forward, backward and validation are kernels that read the
networks themselves (`net.layers`: the stage convs, then the head).  The
comparators' (log_alpha, beta) train as one (k, 2) array, written back
when the fit ends.  A step walks its pairs in chunks that fit the layers'
memory slab: the whole 32-pair batch at the 16-edge levels, one pair at a
time at the 76-edge monolith.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (DataError, LabeledImage, PairBatch, PairSampler,
                   center_window, float_pixels, split_identity_ids)
from .layers import (ConvLayer, FCLayer, Network, PoolSpec, ShapeError, Stage,
                     _backward_cached, _forward, _forward_cached,
                     _images_per_slab, _inputs_per_slab, _stage_forward,
                     _stage_shapes)
from .loss import ComparatorParams, PairLabel, pair_loss_grads
from .metrics import auc, compute_roc
from .seeding import derive_seed, make_rng
from .tensor import Tensor


class PyramidError(ValueError):
    """Inconsistent pyramid configuration or out-of-order training."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class StageSpec:
    kernel: int
    channels: int
    pool: int

    def __post_init__(self):
        if self.kernel < 1 or self.channels < 1 or self.pool < 1:
            raise PyramidError(f"bad stage spec {self}")


@dataclass(frozen=True)
class PyramidSpec:
    """Geometry of the whole pyramid; every edge length is derived from it.

    The inverse of one shared stage maps an output edge e to e*pool +
    kernel - 1 on the input side, so with the 5x5/pool-2 default the
    assembled input edges run 16, 36, 76, ... — exact shape algebra, no
    padding anywhere.
    """

    levels: int
    base_input: int = 16
    shared: StageSpec = StageSpec(5, 8, 2)
    template: tuple[StageSpec, ...] = (StageSpec(3, 16, 2),)
    networks_per_level: int = 1
    patch_offsets: tuple[tuple[int, int], ...] = ((0, 0),)
    output_dim: int = 8

    def __post_init__(self):
        if self.levels < 1:
            raise PyramidError(f"levels must be >= 1, got {self.levels}")
        if self.base_input < 1:
            raise PyramidError(f"base_input must be >= 1, got {self.base_input}")
        if self.output_dim < 1:
            raise PyramidError(f"output_dim must be >= 1, got {self.output_dim}")
        if self.networks_per_level < 1:
            raise PyramidError("networks_per_level must be >= 1")
        if len(self.patch_offsets) != self.networks_per_level:
            raise PyramidError(
                f"need {self.networks_per_level} patch offsets, "
                f"got {len(self.patch_offsets)}"
            )
        for ox, oy in self.patch_offsets:
            if ox < 0 or oy < 0:
                raise PyramidError(
                    f"patch offsets must be nonnegative, got ({ox}, {oy})"
                )
        self.fc_input_dim()  # raises if the stage chain does not close

    def entry_in_channels(self, level: int) -> int:
        return 1 if level == 0 else self.shared.channels

    def stage_geometry(self, level: int) -> list[tuple[int, ...]]:
        """The (kh, kw, c_in, c_out, pool) of every stage a level-`level`
        network has: the entry stage, then the template."""
        geometry, c = [], self.entry_in_channels(level)
        for st in (self.shared, *self.template):
            geometry.append((st.kernel, st.kernel, c, st.channels, st.pool))
            c = st.channels
        return geometry

    def fc_input_dim(self) -> int:
        """Inputs of every network's head: the `base_input` map flattened
        after the stages of `stage_geometry`."""
        try:
            (h, w, c), _ = _stage_shapes(self.stage_geometry(0),
                                         self.base_input, self.base_input, 1)
        except ShapeError as exc:
            raise PyramidError(f"base_input {self.base_input} does not fit "
                               f"the stages: {exc}") from None
        return h * w * c

    def inverse_edge(self, edge: int, n_stages: int) -> int:
        for _ in range(n_stages):
            edge = edge * self.shared.pool + self.shared.kernel - 1
        return edge

    def assembled_input_edge(self, level: int) -> int:
        """Raw-image edge consumed by the level's assembled deep network."""
        return self.inverse_edge(self.base_input, level)

    def max_offset(self) -> int:
        return max(max(ox, oy) for ox, oy in self.patch_offsets)

    def patch_edge(self, level: int) -> int:
        """Raw-image edge of the patch that feeds `level`: its assembled
        input edge, widened so every network's offset window fits."""
        return self.inverse_edge(self.base_input + self.max_offset(), level)

    def level_batch(self, level: int) -> int:
        """Patches per forward-only batch of `level`'s networks
        (`layers._inputs_per_slab`): their input is the frozen stages'
        (base_input + max_offset)-edge grid of each patch, and each
        network's largest pre-activation map is that of its base_input
        window.  A batch of more than one slab of the frozen stages below
        (`preprocess_dataset`'s slab of raw `patch_edge(level)` patches)
        is rounded down to whole slabs, so none ends in a short one."""
        c = self.entry_in_channels(level)
        grid = self.base_input + self.max_offset()
        _, largest = _stage_shapes(self.stage_geometry(level),
                                   self.base_input, self.base_input, c)
        batch = _inputs_per_slab(grid * grid * c, largest)
        edge = self.patch_edge(level)
        _, frozen = _stage_shapes(
            [self.stage_geometry(i)[0] for i in range(level)], edge, edge, 1)
        slab = _inputs_per_slab(edge * edge, frozen)
        return batch if batch < slab else batch - batch % slab

    def raw_data_edge(self) -> int:
        """Edge of the center crop every level's patch is taken from."""
        return self.patch_edge(self.levels - 1)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 32
    iterations_per_level: int = 200
    seed: int = 0
    validation_fraction: float = 0.2

    def __post_init__(self):
        if self.learning_rate < 0:
            raise PyramidError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise PyramidError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.iterations_per_level < 1:
            raise PyramidError("batch_size and iterations_per_level must be >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise PyramidError("validation_fraction must be in (0, 1)")


# ---------------------------------------------------------------------------
# model


@dataclass
class PyramidModel:
    spec: PyramidSpec
    stages: list[Stage]                     # one entry stage per level
    level_networks: list[list[Network]]     # [level][network]
    comparators: list[list[ComparatorParams]]
    levels_trained: int = 0

    def frozen_prefix(self) -> int:
        n = 0
        while n < len(self.stages) and self.stages[n].frozen:
            n += 1
        for stage in self.stages[n:]:
            if stage.frozen:
                raise PyramidError("frozen stages are not a contiguous prefix")
        return n


def build_pyramid(spec: PyramidSpec, seed: int) -> PyramidModel:
    """Fresh model with seeded initialization; nothing frozen.

    Draw order (fixed for reproducibility): for each level, the entry
    stage's conv, then per network the template convs and the FC head.
    """
    rng = make_rng(seed, "init")
    fc_dim = spec.fc_input_dim()
    stages, level_networks, comparators = [], [], []
    for level in range(spec.levels):
        entry, *template = spec.stage_geometry(level)
        (stage,) = _init_stages([entry], rng)
        nets, comps = [], []
        for _ in range(spec.networks_per_level):
            chain = [stage] + _init_stages(template, rng)
            head = FCLayer.initialize(fc_dim, spec.output_dim, rng)
            nets.append(Network(chain, head, spec.base_input,
                                spec.entry_in_channels(level)))
            comps.append(ComparatorParams())
        stages.append(stage)
        level_networks.append(nets)
        comparators.append(comps)
    return PyramidModel(spec, stages, level_networks, comparators)


def _init_stages(geometry: Sequence[tuple[int, ...]],
                 rng: np.random.Generator) -> list[Stage]:
    """Freshly drawn stages of the (k, k, c_in, c_out, pool) `geometry`, in
    order."""
    return [Stage(ConvLayer.initialize(k, c_in, c_out, rng), PoolSpec(pool))
            for k, _, c_in, c_out, pool in geometry]


def assemble_network(model: PyramidModel, level: int, which: int) -> Network:
    """Deep network equivalent to preprocess-through-frozen-stages + subnet.

    The returned Network aliases the model's layer objects (no copies), so
    it always reflects the model's current parameters.
    """
    spec = model.spec
    if not 0 <= level < spec.levels:
        raise PyramidError(f"level {level} out of range (levels={spec.levels})")
    if not 0 <= which < spec.networks_per_level:
        raise PyramidError(
            f"network index {which} out of range "
            f"({spec.networks_per_level} per level)"
        )
    if model.frozen_prefix() < level:
        raise PyramidError(
            f"cannot assemble level {level}: shared stages below it are "
            f"not all frozen"
        )
    subnet = model.level_networks[level][which]
    return Network(model.stages[:level] + subnet.stages, subnet.head,
                   spec.assembled_input_edge(level), in_channels=1)


def _image_set(images, what: str, edge: int, channels: int | None,
               geometry: Sequence[tuple[int, ...]] = ()):
    """The one rule for an image set: an (n, h, w, c) array, or a sequence
    of (h, w, c) arrays or Tensors, with n >= 1, h and w >= `edge`,
    `channels` channels (any when None), an (h, w, c) that the stages of
    `geometry` fit and only finite values.  Returns the set (a sequence as
    a list of arrays, never a stacked copy) and `layers._stage_shapes`'s
    walk of one image; any other set is a PyramidError that names the
    `what` set, the shape found and the shape needed."""
    if isinstance(images, np.ndarray):
        shape, shapes = images.shape, ()
    else:
        images = [x.array if isinstance(x, Tensor) else np.asarray(x)
                  for x in images]
        shapes = sorted({x.shape for x in images})
        shape = (len(images), *shapes[0]) if shapes else (0,)
    if len(shapes) > 1:
        found = (f"{len(shapes)} different shapes, from {shapes[0]} to "
                 f"{shapes[-1]}")
    elif shape[:1] == (0,):
        found = "no images"
    elif len(shape) != 4 or min(shape[1:3]) < edge \
            or channels not in (None, shape[3]):
        found = f"shape {shape}"
    else:
        try:
            walk = _stage_shapes(geometry, *shape[1:])
        except ShapeError as exc:
            found = f"shape {shape} ({exc})"
        else:
            if all(np.isfinite(x).all() for x in (
                    [images] if isinstance(images, np.ndarray) else images)):
                return images, walk
            found = f"shape {shape} with non-finite values"
    raise PyramidError(
        f"{what} images: {found}; need (n, h, w, c) with n >= 1, h and w >= "
        f"{edge}" + ("" if channels is None else f", c = {channels} channels")
        + (", fitting the stages" if geometry else ""))


def preprocess_dataset(images, *stages: Stage, maxval=1) -> np.ndarray:
    """Push an image set (`_image_set`) through the frozen `stages` in
    order (Algorithm step: filter and down-sample the dataset), a memory
    slab of images at a time (`layers._inputs_per_slab`), into one
    preallocated (n, h', w', c') output.

    The images are stored samples in 0..`maxval`, one maxval per image or
    one for all (1, the default, for float pixels); each slab becomes
    float pixels (`data.float_pixels`) only as it is stacked.  Row i is
    bit-equal to the stages on image i's float pixels alone; with no
    stages it is those pixels."""
    if not all(stage.frozen for stage in stages):
        raise PyramidError("preprocess_dataset requires frozen stages")
    geometry = [stage.geometry for stage in stages]
    images, (out_map, largest) = _image_set(images, "input", 1, None, geometry)
    maxvals = np.broadcast_to(maxval, len(images))
    out = np.empty((len(images), *out_map))
    step = _inputs_per_slab(images[0].size, largest)
    for i in range(0, len(images), step):
        # one slab, stacked and made float
        x = float_pixels(np.asarray(images[i:i + step]), maxvals[i:i + step])
        for stage in stages:
            x = _stage_forward(x, stage)
        out[i:i + step] = x
    return out


# ---------------------------------------------------------------------------
# optimizer


def _momentum_step(theta: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                   cfg: TrainConfig) -> None:
    """One classical-momentum step, in place on same-shaped arrays:
    velocity <- momentum * velocity - lr * grad; theta <- theta + velocity."""
    velocity *= cfg.momentum
    velocity -= cfg.learning_rate * grad
    theta += velocity


# ---------------------------------------------------------------------------
# training


# Validation runs after every `_VALIDATE_EVERY`-th step and after the last,
# on `_VAL_PAIRS` pairs drawn once per `greedy_train` call.
_VALIDATE_EVERY = 10
_VAL_PAIRS = 128


@dataclass
class LevelTrace:
    """Mean pair loss of every step, and network 0's validation AUC after
    every validated step (NaN when there is no validation set) with that
    step's 0-based iteration index."""

    level: int
    losses: list[float] = field(default_factory=list)
    val_aucs: list[float] = field(default_factory=list)
    val_iterations: list[int] = field(default_factory=list)


def train_level(model: PyramidModel, level: int, images,
                pair_source: PairSampler, cfg: TrainConfig,
                val_images=None,
                val_pairs: PairBatch | None = None) -> LevelTrace:
    """Siamese training of one level's networks (and its entry stage).

    `images` (and `val_images`) are image sets (`_image_set`), already
    preprocessed through all frozen stages below `level`; `pair_source` is
    anything whose `batch(n)` gives a PairBatch, as PairSampler's does, and
    `val_pairs` a PairBatch.  Runs the shared Siamese loop (`_siamese_fit`)
    for cfg.iterations_per_level steps; the entry stage is aliased into
    every network of the level, so its gradient is averaged across them.
    Records the per-iteration mean batch loss and, when a validation set is
    supplied, network 0's validation AUC after every `_VALIDATE_EVERY`-th
    update and after the last.
    """
    spec = model.spec
    if not 0 <= level < spec.levels:
        raise PyramidError(f"level {level} out of range (levels={spec.levels})")
    if model.frozen_prefix() < level:
        raise PyramidError(
            f"cannot train level {level}: stages below it are not all frozen"
        )
    if model.stages[level].frozen:
        raise PyramidError(f"level {level} is already trained and frozen")
    return _siamese_fit(model.level_networks[level], model.comparators[level],
                        spec.patch_offsets, images, pair_source, cfg,
                        LevelTrace(level), cfg.iterations_per_level, None,
                        val_images, val_pairs)


# a diverging step overflows on its way to the non-finite parameter that the
# fit's guard reports; numpy's warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _siamese_fit(nets: Sequence[Network], comps: Sequence[ComparatorParams],
                 offsets: Sequence[tuple[int, int]], images,
                 pair_source: PairSampler, cfg: TrainConfig,
                 trace: LevelTrace, iterations: int | None,
                 time_budget: float | None, val_images,
                 val_pairs: PairBatch | None) -> LevelTrace:
    """Momentum-SGD on the pair loss for every network in `nets` at once.

    Network k is fed the edge-`input_size` patch of each image at
    `offsets[k]` and scored by `comps[k]`; `images` and `val_images` are
    image sets (`_image_set`) that the networks read.  Both members of a
    pair flow through identical weights, so a layer's gradient is the sum
    over the two branches.  A layer object aliased into k networks is one
    parameter, stepped once; its gradient is divided by k x pairs, every
    other gradient by pairs.  Pairs go through each network in chunks that
    fit one memory slab (`layers._images_per_slab`), both members of pair j
    in rows 2j and 2j+1, so the branch gradients of a layer whose pair-loss
    gradients cancel (the head bias) sum to exactly zero; each chunk is
    scored by one `pair_loss_grads` call.  Runs `iterations` steps, or until
    `time_budget` seconds elapse when that is given, appending to `trace`
    the mean pair loss of each batch, and network 0's validation AUC (NaN
    without a validation set) after every `_VALIDATE_EVERY`-th step and
    after the last.  A step that leaves a parameter non-finite raises
    PyramidError; any failure first restores the values the fit began with.
    """
    need = (max(net.input_size + max(o) for net, o in zip(nets, offsets)),
            nets[0].in_channels)
    images, _ = _image_set(images, "training", *need)
    if val_images is not None:
        val_images, _ = _image_set(val_images, "validation", *need)
    layers = list({id(layer): layer for net in nets
                   for layer in net.layers}.values())
    comp_params = np.array([[c.log_alpha, c.beta] for c in comps])
    params = [a for layer in layers
              for a in (layer.weights, layer.bias)] + [comp_params]
    grads = [np.zeros_like(a) for a in params]
    velocity = [np.zeros_like(a) for a in params]
    sharing = [float(sum(layer in net.layers for net in nets))
               for layer in layers for _ in "wb"] + [1.0]
    grad_of = {id(layer): grads[2 * i:2 * i + 2]
               for i, layer in enumerate(layers)}
    started_from = [a.copy() for a in params]

    if not isinstance(val_pairs, (PairBatch, type(None))):
        raise PyramidError(f"validation pairs must be a PairBatch, got "
                           f"{type(val_pairs).__name__}")
    val_ids = (None if val_images is None or not val_pairs
               else np.union1d(val_pairs.first, val_pairs.second))

    def validate(step):
        trace.val_iterations.append(step - 1)
        trace.val_aucs.append(
            float("nan") if val_ids is None else
            _validation_auc(nets[0], offsets[0], val_images, val_pairs,
                            val_ids))

    started = time.perf_counter()
    step = 0
    try:
        while (step < iterations if time_budget is None
               else time.perf_counter() - started < time_budget):
            step += 1
            pairs = pair_source.batch(cfg.batch_size)
            if not isinstance(pairs, PairBatch):
                raise PyramidError(f"a pair source's batch must be a "
                                   f"PairBatch, got {type(pairs).__name__}")
            for g in grads:
                g.fill(0.0)
            total_loss = 0.0
            for k, net in enumerate(nets):
                comp = ComparatorParams(*comp_params[k].tolist())
                chunk = max(1, _images_per_slab(net) // 2)
                for start in range(0, len(pairs), chunk):
                    part = pairs[start:start + chunk]
                    # rows 2j and 2j+1 hold pair j's two members
                    members = np.column_stack((part.first, part.second))
                    x = _gather(images, members.reshape(-1), offsets[k],
                                net.input_size)
                    out, caches = _forward_cached(net, x)
                    pg = pair_loss_grads(out[0::2], out[1::2], part.label,
                                         comp)
                    g_out = np.empty_like(out)
                    g_out[0::2], g_out[1::2] = pg.grad_v1, pg.grad_v2
                    # pair by pair onto the running sums, as np.sum's
                    # pairwise order would change the bits
                    total_loss = float(_running_sum(total_loss, pg.loss))
                    grads[-1][k] = _running_sum(
                        grads[-1][k],
                        np.column_stack([pg.grad_log_alpha, pg.grad_beta]))
                    for layer, (dw, db) in zip(
                            net.layers, _backward_cached(net, caches, g_out)):
                        gw, gb = grad_of[id(layer)]
                        gw += dw
                        gb += db
            for theta, v, g, shared in zip(params, velocity, grads, sharing):
                g /= shared * len(pairs)
                _momentum_step(theta, v, g, cfg)
            if not all(np.isfinite(theta).all() for theta in params):
                raise PyramidError(f"training diverged at step {step}: a "
                                   f"parameter is no longer finite")
            trace.losses.append(total_loss / (len(nets) * len(pairs)))
            if step % _VALIDATE_EVERY == 0:
                validate(step)
        if step % _VALIDATE_EVERY:
            validate(step)
    except BaseException:  # a failed fit leaves the model as it found it
        for theta, saved in zip(params, started_from):
            theta[...] = saved
        raise
    for comp, (log_alpha, beta) in zip(comps, comp_params.tolist()):
        comp.log_alpha, comp.beta = log_alpha, beta
    return trace


def _running_sum(start, values: np.ndarray):
    """start + values[0] + values[1] + ..., added one row at a time."""
    return np.add.accumulate(np.concatenate([[start], values]))[-1]


def _gather(images, ids: Sequence[int], offset: tuple[int, int],
            edge: int) -> np.ndarray:
    """The listed images' edge-`edge` patches at `offset` = (x, y), as one
    C-contiguous (len(ids), edge, edge, c) array: one take from an array
    set, a stack of slices from a list."""
    ox, oy = offset
    if isinstance(images, np.ndarray):
        return images[ids, oy:oy + edge, ox:ox + edge]
    return np.stack([images[i][oy:oy + edge, ox:ox + edge] for i in ids])


def _validation_auc(net: Network, offset: tuple[int, int], val_images,
                    val_pairs: PairBatch, val_ids) -> float:
    """ROC AUC of `net`'s embedding distances, on its current parameters,
    over the validation pairs; NaN when the pairs are all matched or all
    unmatched.  `val_ids` are the images the pairs name, ascending."""
    step = _images_per_slab(net)
    feats = np.concatenate([
        _forward(net, _gather(
            val_images, val_ids[start:start + step], offset, net.input_size))
        for start in range(0, len(val_ids), step)])
    first = np.searchsorted(val_ids, val_pairs.first)
    second = np.searchsorted(val_ids, val_pairs.second)
    dist = np.sqrt(np.sum((feats[first] - feats[second]) ** 2, axis=1))
    matched = val_pairs.label == int(PairLabel.MATCHED)
    if matched.all() or not matched.any():
        return float("nan")
    return auc(compute_roc(dist[matched], dist[~matched]))


class _DrawnPairs:
    """A pair stream drawn ahead: `iterations` batches of `size` pairs from
    `sampler`, held as one PairBatch, `pairs`.  `batch(size)` hands them
    back in order, as views; a different size, or one batch more than was
    drawn, is a PyramidError."""

    def __init__(self, sampler: PairSampler, size: int, iterations: int):
        batches = [sampler.batch(size) for _ in range(iterations)]
        self.pairs = PairBatch(np.concatenate([b.first for b in batches]),
                               np.concatenate([b.second for b in batches]),
                               np.concatenate([b.label for b in batches]))
        self.size, self.taken = size, 0

    def batch(self, n: int) -> PairBatch:
        if n != self.size or self.taken == len(self.pairs):
            raise PyramidError(
                f"asked for batch {self.taken // self.size + 1} of {n} "
                f"pairs; {len(self.pairs) // self.size} batches of "
                f"{self.size} were drawn")
        self.taken += n
        return self.pairs[self.taken - n:self.taken]


def _compact(pairs: PairBatch) -> np.ndarray:
    """The positions `pairs` name, ascending; renumbers `pairs` in place to
    index that list."""
    used = np.union1d(pairs.first, pairs.second)
    pairs.first[...] = np.searchsorted(used, pairs.first)
    pairs.second[...] = np.searchsorted(used, pairs.second)
    return used


def greedy_train(model: PyramidModel, dataset: Sequence[LabeledImage],
                 cfg: TrainConfig) -> list[LevelTrace]:
    """Level-by-level training: train, freeze the entry stage, ascend.
    Level l trains on the `patch_edge(l)` top-left corner of each image's
    center crop, pushed through the frozen stages below it.  Returns one
    trace per trained level.

    The dataset is split by identity into fit/validation parts; every
    level's pair stream and the validation pair set derive from cfg.seed
    so a rerun reproduces the exact sequence.  A level draws all of its
    batches before it trains, and filters and down-samples only the fit
    images those batches name and the validation images the validation
    pairs name; the pairs are renumbered into those images, so the level
    reads the same rows, in the same order, as it would from the whole
    set.  A partially trained model (contiguous frozen prefix) resumes at
    its first untrained level.
    """
    spec = model.spec
    if not dataset:
        raise PyramidError("dataset is empty")
    start = model.levels_trained
    if model.frozen_prefix() != min(start, spec.levels - 1):
        raise PyramidError(
            f"model reports {start} trained levels but the frozen prefix "
            f"disagrees"
        )
    identities = [img.identity for img in dataset]
    try:
        fit_ids_set, val_ids_set = split_identity_ids(
            identities, cfg.validation_fraction, derive_seed(cfg.seed,
                                                             "val-split"))
    except DataError as exc:
        raise PyramidError(f"cannot split dataset: {exc}") from exc

    # the images' center crops with their maxvals, each crop a view of the
    # image's stored samples, never copied: each level reads the top-left
    # corner of its own edge
    raw_edge = spec.raw_data_edge()
    fit_crops, val_crops, fit_ids, val_ids = [], [], [], []
    for img in dataset:
        fit = img.identity in fit_ids_set
        (fit_crops if fit else val_crops).append(
            (center_window(img, raw_edge), img.maxval))
        (fit_ids if fit else val_ids).append(img.identity)

    try:
        val_pairs = PairSampler(val_ids, make_rng(cfg.seed, "val-pairs")) \
            .batch(_VAL_PAIRS)
    except DataError:  # validation side too small for pairs: NaN AUCs
        val_pairs = val_crops = None
    else:  # only the images the pairs name, the pairs renumbered into them
        val_crops = [val_crops[i] for i in _compact(val_pairs)]

    def level_images(crops, level):
        """Each crop's `patch_edge(level)` top-left corner, the region the
        level's networks read, through the frozen stages below `level`."""
        edge = spec.patch_edge(level)
        return preprocess_dataset([c[:edge, :edge] for c, _ in crops],
                                  *model.stages[:level],
                                  maxval=[m for _, m in crops])

    traces = []
    for level in range(start, spec.levels):
        try:
            sampler = PairSampler(fit_ids,
                                  make_rng(cfg.seed, f"pairs-level{level}"))
        except DataError as exc:
            raise PyramidError(
                f"cannot sample training pairs: {exc}") from exc
        drawn = _DrawnPairs(sampler, cfg.batch_size, cfg.iterations_per_level)
        used = _compact(drawn.pairs)
        traces.append(train_level(
            model, level, level_images([fit_crops[i] for i in used], level),
            drawn, cfg,
            val_images=(None if val_crops is None
                        else level_images(val_crops, level)),
            val_pairs=val_pairs))
        model.levels_trained = level + 1
        if level < spec.levels - 1:
            model.stages[level].conv.frozen = True
    return traces


# ---------------------------------------------------------------------------
# monolithic baseline (for budget-matched comparisons against greedy training)


def build_monolithic(spec: PyramidSpec, seed: int) -> tuple[Network,
                                                            ComparatorParams]:
    """A single end-to-end network with the full assembled architecture:
    every level's stage geometry stacked, then the template and head."""
    rng = make_rng(seed, "monolith-init")
    top = spec.levels - 1
    chain = _init_stages([spec.stage_geometry(level)[0]
                          for level in range(top)]
                         + spec.stage_geometry(top), rng)
    head = FCLayer.initialize(spec.fc_input_dim(), spec.output_dim, rng)
    net = Network(chain, head, spec.assembled_input_edge(top), in_channels=1)
    return net, ComparatorParams()


def train_network(net: Network, comp: ComparatorParams, images,
                  pair_source: PairSampler, cfg: TrainConfig,
                  iterations: int | None = None,
                  time_budget: float | None = None, val_images=None,
                  val_pairs: PairBatch | None = None) -> LevelTrace:
    """Plain Siamese training of one network on full-size crops: the same
    loop, loss, optimizer and pair stream semantics as train_level, with no
    layer shared and the patch taken at offset (0, 0).  `images` and
    `val_images` are image sets of `_image_set` (Tensors, say) of edge
    `net.input_size` or more.

    Runs for `iterations` steps or until `time_budget` seconds elapse
    (whichever is given; time_budget wins if both are set).
    """
    if iterations is None and time_budget is None:
        iterations = cfg.iterations_per_level
    return _siamese_fit([net], [comp], [(0, 0)], images, pair_source, cfg,
                        LevelTrace(-1), iterations, time_budget, val_images,
                        val_pairs)


# ---------------------------------------------------------------------------
# serialization


MAGIC = b"PYRCNN01"


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return (np.asarray([arr.ndim], dtype="<i8").tobytes()
            + np.asarray(arr.shape, dtype="<i8").tobytes()
            + np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Cursor:
    """Reads a model file past its magic, refusing to read past its end."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, len(MAGIC)

    def _take(self, n: int, dtype: str) -> np.ndarray:
        end = self.pos + 8 * n
        if end > len(self.data):
            raise PyramidError("model file truncated")
        out = np.frombuffer(self.data[self.pos:end], dtype=dtype)
        self.pos = end
        return out

    def ints(self, n: int) -> list[int]:
        return [int(v) for v in self._take(n, "<i8")]

    def tensor(self) -> np.ndarray:
        (rank,) = self.ints(1)
        if rank < 1 or rank > 8:
            raise PyramidError(f"corrupt tensor rank {rank} in model file")
        shape = self.ints(rank)
        if min(shape) < 1:
            raise PyramidError(f"corrupt tensor shape {tuple(shape)} in "
                               f"model file")
        # Python ints: a huge shape cannot wrap
        return self._take(math.prod(shape), "<f8").reshape(shape)


def _file_order(spec: PyramidSpec):
    """PYRCNN01's tensor order, which `_model_bytes` and `load_model` walk:
    each level's entry conv, then, per level and network, its template
    convs, its head and its comparator.  Yields (level, network, layer):
    `layer` indexes the network's `layers` (weights, bias; the entry conv
    is layer 0 of network 0), or is None for the comparator's tensor."""
    for level in range(spec.levels):
        yield level, 0, 0
    for level in range(spec.levels):
        for k in range(spec.networks_per_level):
            for j in range(1, len(spec.template) + 2):
                yield level, k, j
            yield level, k, None


def _model_bytes(model: PyramidModel) -> bytes:
    """PYRCNN01: magic, spec integers, then tensors in `_file_order`."""
    spec = model.spec
    ints = [spec.levels, spec.base_input, spec.networks_per_level,
            spec.output_dim, spec.shared.kernel, spec.shared.channels,
            spec.shared.pool, len(spec.template)]
    for t in spec.template:
        ints += [t.kernel, t.channels, t.pool]
    for ox, oy in spec.patch_offsets:
        ints += [ox, oy]
    ints.append(model.levels_trained)
    ints += [1 if stage.frozen else 0 for stage in model.stages]
    chunks = [MAGIC, np.asarray(ints, dtype="<i8").tobytes()]
    for level, k, j in _file_order(spec):
        if j is None:
            comp = model.comparators[level][k]
            chunks.append(
                _tensor_bytes(np.array([comp.log_alpha, comp.beta])))
        else:
            layer = model.level_networks[level][k].layers[j]
            chunks += [_tensor_bytes(layer.weights), _tensor_bytes(layer.bias)]
    return b"".join(chunks)


def save_model(model: PyramidModel, path) -> None:
    """Single binary file, `_model_bytes(model)`."""
    Path(path).write_bytes(_model_bytes(model))


def load_model(path) -> PyramidModel:
    """The model in `path`, if `_model_bytes` gives the file back and
    0 <= levels trained <= levels."""
    data = Path(path).read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        raise PyramidError(
            f"{path}: not a model file (expected magic {MAGIC.decode()})"
        )
    cur = _Cursor(data)
    (levels, base_input, networks_per_level, output_dim,
     sk, sc, sp, n_template) = cur.ints(8)
    template = tuple(StageSpec(*cur.ints(3)) for _ in range(n_template))
    offsets = tuple(tuple(cur.ints(2)) for _ in range(networks_per_level))
    (levels_trained,) = cur.ints(1)
    frozen = cur.ints(levels)
    spec = PyramidSpec(levels=levels, base_input=base_input,
                       shared=StageSpec(sk, sc, sp), template=template,
                       networks_per_level=networks_per_level,
                       patch_offsets=offsets, output_dim=output_dim)
    if not 0 <= levels_trained <= levels:
        raise PyramidError(f"{path}: {levels_trained} levels trained, "
                           f"outside 0..{levels}")

    # every tensor is read, and its size checked against the file, before
    # any layer is made: a bad spec cannot outgrow the file
    read = {slot: [cur.tensor() for _ in range(1 if slot[2] is None else 2)]
            for slot in _file_order(spec)}
    stages = [Stage(ConvLayer(*read[level, 0, 0], frozen=bool(frozen[level])),
                    PoolSpec(sp)) for level in range(levels)]
    level_networks, comparators = [], []
    for level in range(levels):
        nets, comps = [], []
        for k in range(networks_per_level):
            chain = [stages[level]] + [
                Stage(ConvLayer(*read[level, k, j]), PoolSpec(t.pool))
                for j, t in enumerate(spec.template, 1)]
            head = FCLayer(*read[level, k, len(chain)])
            want = spec.stage_geometry(level), output_dim
            got = [stage.geometry for stage in chain], head.out_dim
            if got != want:
                raise PyramidError(
                    f"{path}: level {level} network {k} has stages {got[0]} "
                    f"and {got[1]} outputs; its spec needs {want[0]} and "
                    f"{want[1]}")
            nets.append(Network(chain, head, base_input,
                                spec.entry_in_channels(level)))
            (cmp,) = read[level, k, None]
            if cmp.size != 2:
                raise PyramidError(
                    f"{path}: comparator tensor has {cmp.size} values, "
                    f"expected 2 (log_alpha, beta)")
            comps.append(ComparatorParams(*cmp.reshape(-1).tolist()))
        level_networks.append(nets)
        comparators.append(comps)
    model = PyramidModel(spec, stages, level_networks, comparators,
                         levels_trained)
    if _model_bytes(model) != data:
        raise PyramidError(f"{path}: not the bytes save_model writes for "
                           f"the model it describes")
    return model
