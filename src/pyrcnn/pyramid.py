"""Leveled CNN construction, greedy level-by-level training, serialization.

The model is a ladder of levels.  Every level trains the same-shaped
subnetwork on small patches: an entry conv+pool stage, the level-invariant
template stack, and an FC head, one network per `patch_offsets` entry.  A
level's entry stage is one `layers.Stage` in `PyramidModel.stages`, held by
all of that level's networks (and, assembled, by every network above it).
When the level finishes, the stage is frozen and becomes a
filter-and-down-sample preprocessor for the levels above it; the final
level's is trained but never consumed.  The one record of that progress is
`levels_trained`: stage l is frozen iff l < `frozen_prefix()`, which is
min(levels_trained, levels - 1).  Training a level therefore always
updates the same set of parameter blocks — one entry stage, one template
stack + head + comparator per network — no matter how high the level
sits, while the *assembled* network for level l (frozen stages 0..l-1
plus level l's subnetwork) grows deeper and sees exponentially larger
input patches.

`PyramidSpec.stage_geometry(level)` is the (kh, kw, c_in, c_out, pool) of
each stage a level's networks have: the spec validates it with the layers'
shape walk (`layers._stage_shapes`), the builders draw their stages from
it, and `load_model` refuses a file whose layers differ.  The model file,
PYRCNN02, holds what extraction reads and a resumed training steps: every
entry stage, and the networks and comparators of the levels from
`frozen_prefix()` up, which is all a loaded model holds.  Its one writer,
`_model_bytes`, walks the tensor order's owner, `_file_order`, as
`load_model` does, and a load is refused unless `_model_bytes` gives the
file back.  Every image set (the training and validation images of a fit,
`preprocess_dataset`'s input) passes one rule, `_image_set`.

Each level holds and trains on only what its networks read: the images
its pair batches and the validation pairs name, and of each only the
top-left corner of its grid that spans every network offset, an edge
`base_input + max_offset` square.  One route, `_level_grids`, cuts it in
training and extraction alike: for level l, the `patch_edge(l)` top-left
corner of each image's center crop, a view of the image's stored (8-bit,
for a PGM) samples, which `preprocess_dataset` makes float pixels and
pushes through the frozen stages 0..l-1 a memory slab of images at a time
into one preallocated (n, e, e, c) array; neither a float copy of the raw
gallery nor a full-size grid of a lower level is ever formed.  Each row is
bit-equal to the stages run on that image alone, so a level's rows hold the
bits of the matching regions of the whole set's full grids.  One
forward-only walk, `_embed`, runs a level network on its window of each
grid, for validation and extraction.

Greedy levels and the monolithic baseline train through one Siamese loop
(`_siamese_fit`): the same pair loss, momentum SGD, pair stream and
validation.  A level differs only in that its entry stage is one layer
shared by all of its networks.  The fit steps each layer's `params` in
place, three in-place operations per array; forward, backward and
validation are kernels that read the networks themselves (`net.layers`:
the stage convs, then the head).  The comparators' (log_alpha, beta) train
as one (k, 2) array, written back when the fit ends.  A step walks its
pairs in chunks that fit the layers' memory slab: the whole 32-pair batch
at the 16-edge levels, one pair at a time at the 76-edge monolith.  One
chunk (`_chunk_grads`) gathers its batch, runs the forward and the
backward and returns only its gradients, so at its peak a step holds one
chunk's buffers: its gathered batch, the cached maps of its forward (the
largest the entry stage's pre-activation map, over which the backward
writes that stage's gradient) and one conv's block of row strips or
columns (a layers' slab; on the monolith's row bands, rows of the input's
width), besides the parameter-sized gradients and velocities.  Nothing of
the previous chunk is left when the next one gathers.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (DataError, LabeledImage, PairBatch, PairSampler,
                   center_window, float_pixels, split_identity_ids)
from .layers import (ConvLayer, FCLayer, Network, PoolSpec, ShapeError, Stage,
                     _backward_cached, _forward, _forward_cached,
                     _images_per_slab, _inputs_per_slab, _stage_forward,
                     _stage_shapes)
from .loss import ComparatorParams, pair_loss_grads
from .metrics import evaluate_distances, pair_distances
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
    patch_offsets: tuple[tuple[int, int], ...] = ((0, 0),)
    output_dim: int = 8

    def __post_init__(self):
        if self.levels < 1:
            raise PyramidError(f"levels must be >= 1, got {self.levels}")
        if self.base_input < 1:
            raise PyramidError(f"base_input must be >= 1, got {self.base_input}")
        if self.output_dim < 1:
            raise PyramidError(f"output_dim must be >= 1, got {self.output_dim}")
        if not self.patch_offsets:
            raise PyramidError("need at least one patch offset")
        for ox, oy in self.patch_offsets:
            if ox < 0 or oy < 0:
                raise PyramidError(
                    f"patch offsets must be nonnegative, got ({ox}, {oy})"
                )
        self.fc_input_dim()  # raises if the stage chain does not close

    @property
    def networks_per_level(self) -> int:
        """One network per patch offset."""
        return len(self.patch_offsets)

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
    """Per level its entry stage, which its networks alias, and its
    networks and comparators (none below a loaded model's frozen prefix)."""

    spec: PyramidSpec
    stages: list[Stage]
    level_networks: list[list[Network]]     # [level][network]
    comparators: list[list[ComparatorParams]]
    levels_trained: int = 0

    def frozen_prefix(self) -> int:
        """How many entry stages, from level 0 up, are frozen: the trained
        levels', never the top one, which nothing above consumes."""
        return min(self.levels_trained, self.spec.levels - 1)


def build_pyramid(spec: PyramidSpec, seed: int) -> PyramidModel:
    """Fresh model with seeded initialization; nothing frozen.

    Draw order (fixed for reproducibility): for each level, the entry
    stage's conv, then per network the template convs and the FC head.
    """
    rng = make_rng(seed, "init")
    fc_dim = spec.fc_input_dim()
    stages, level_networks = [], []
    for level in range(spec.levels):
        entry, *template = spec.stage_geometry(level)
        stages += _init_stages([entry], rng)
        level_networks.append([
            Network([stages[-1]] + _init_stages(template, rng),
                    FCLayer.initialize(fc_dim, spec.output_dim, rng),
                    spec.base_input, spec.entry_in_channels(level))
            for _ in range(spec.networks_per_level)])
    return PyramidModel(spec, stages, level_networks,
                        [[ComparatorParams() for _ in nets]
                         for nets in level_networks])


def _init_stages(geometry: Sequence[tuple[int, ...]],
                 rng: np.random.Generator) -> list[Stage]:
    """Freshly drawn stages of the (k, k, c_in, c_out, pool) `geometry`, in
    order."""
    return [Stage(ConvLayer.initialize(k, c_in, c_out, rng), PoolSpec(pool))
            for k, _, c_in, c_out, pool in geometry]


def assemble_network(model: PyramidModel, level: int, which: int) -> Network:
    """Deep network equivalent to preprocess-through-frozen-stages + subnet.

    The returned Network aliases the model's layer objects (no copies), so
    it always reflects the model's current parameters.  A level whose
    networks a loaded model does not hold is a PyramidError.
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
            f"cannot assemble level {level}: {model.levels_trained} levels "
            f"trained, so the shared stages below it are not all frozen")
    if not model.level_networks[level]:
        raise PyramidError(
            f"cannot assemble level {level}: the model holds the networks of "
            f"levels {model.frozen_prefix()} and up only, as its file does")
    subnet = model.level_networks[level][which]
    return Network(model.stages[:level] + subnet.stages, subnet.head,
                   spec.assembled_input_edge(level), in_channels=1)


def _image_set(images, what: str, edge: int, channels: int | None,
               geometry: Sequence[tuple[int, ...]] = ()):
    """The one rule for an image set: an (n, h, w, c) array, or a sequence
    of (h, w, c) arrays or Tensors, with n >= 1, h and w >= `edge`,
    `channels` channels (any when None), an (h, w, c) that the stages of
    `geometry` fit and only finite values (`_finite`: an 8-bit set of
    stored samples is never scanned).  Returns the set (a sequence as
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
            if all(_finite(x) for x in (
                    [images] if isinstance(images, np.ndarray) else images)):
                return images, walk
            found = f"shape {shape} with non-finite values"
    raise PyramidError(
        f"{what} images: {found}; need (n, h, w, c) with n >= 1, h and w >= "
        f"{edge}" + ("" if channels is None else f", c = {channels} channels")
        + (", fitting the stages" if geometry else ""))


def _finite(x: np.ndarray) -> bool:
    """Whether every value of `x` is finite: an integer or boolean array is
    by its dtype, so only other arrays are scanned."""
    return x.dtype.kind in "biu" or bool(np.isfinite(x).all())


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


def _level_grids(model: PyramidModel, images: Sequence[LabeledImage],
                 level: int) -> np.ndarray:
    """What `level`'s networks read of each image: the `patch_edge(level)`
    top-left corner of its center crop (`data.center_window` at
    `raw_data_edge`, a view of its stored samples) through the frozen
    stages below `level` (`preprocess_dataset`)."""
    spec = model.spec
    raw, edge = spec.raw_data_edge(), spec.patch_edge(level)
    return preprocess_dataset(
        [center_window(image, raw)[:edge, :edge] for image in images],
        *model.stages[:level], maxval=[image.maxval for image in images])


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


@dataclass(frozen=True)
class LevelHealth:
    """What a trained level's network 0 makes of the validation images:
    `spread`, the RMS distance of their embeddings from the embeddings'
    mean (0 when every image gets one embedding); `dead_channels`, per
    conv stage the share of channels that are zero after the rectifier at
    every position of every image; `dead_units`, the share of embedding
    units that take one value on every image."""

    spread: float
    dead_channels: tuple[float, ...]
    dead_units: float


@dataclass
class LevelTrace:
    """Mean pair loss of every step, and network 0's validation AUC after
    every validated step (NaN when there is no validation set) with that
    step's 0-based iteration index.  `train_level` also records, with a
    validation set, network 0's `LevelHealth` after the last step, and
    `greedy_train` the level's wall seconds, its grids included."""

    level: int
    losses: list[float] = field(default_factory=list)
    val_aucs: list[float] = field(default_factory=list)
    val_iterations: list[int] = field(default_factory=list)
    wall_s: float = math.nan
    health: LevelHealth | None = None


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
    update and after the last, and its health on the validation images
    after the last (`_level_health`).
    """
    spec = model.spec
    if not 0 <= level < spec.levels:
        raise PyramidError(f"level {level} out of range (levels={spec.levels})")
    if model.frozen_prefix() != level:
        raise PyramidError(
            f"cannot train level {level}: with {model.levels_trained} levels "
            f"trained, level {model.frozen_prefix()} is the one whose stages "
            f"below are frozen and whose own is not")
    trace = _siamese_fit(model.level_networks[level], model.comparators[level],
                         spec.patch_offsets, images, pair_source, cfg,
                         LevelTrace(level), cfg.iterations_per_level, None,
                         val_images, val_pairs)
    if val_images is not None:
        trace.health = _level_health(model.level_networks[level][0],
                                     spec.patch_offsets[0], val_images)
    return trace


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
    parameter, stepped once; its gradients are divided by k x pairs, every
    other by pairs.  Pairs go through each network in chunks that fit one
    memory slab (`layers._images_per_slab`), scored by one
    `pair_loss_grads` call each, with pair j's members in rows 2j and 2j+1:
    the backward sums a chunk's terms in row order, so this layout fixes
    the bits of the summed gradients.  Runs `iterations` steps, or until
    `time_budget` seconds elapse when that is given, appending to `trace`
    the mean pair loss of each batch, and network 0's validation AUC (NaN
    without a validation set) after every `_VALIDATE_EVERY`-th step and
    after the last.  A step that leaves a parameter non-finite raises
    PyramidError; any failure first restores the values the fit began with.
    """
    if (val_images is None) != (val_pairs is None):
        missing = "val_images" if val_images is None else "val_pairs"
        raise PyramidError(f"a validation set needs val_images and "
                           f"val_pairs, but {missing} is missing")
    need = (max(net.input_size + max(o) for net, o in zip(nets, offsets)),
            nets[0].in_channels)
    images, _ = _image_set(images, "training", *need)
    if val_images is not None:
        val_images, _ = _image_set(val_images, "validation", *need)
    layers = list({id(layer): layer for net in nets
                   for layer in net.layers}.values())
    comp_params = np.array([[c.log_alpha, c.beta] for c in comps])
    params = [a for layer in layers for a in layer.params] + [comp_params]
    grads = [np.zeros_like(a) for a in params]
    velocity = [np.zeros_like(a) for a in params]
    sharing = [float(sum(layer in net.layers for net in nets))
               for layer in layers for _ in layer.params] + [1.0]
    unclaimed = iter(grads)
    grad_of = {id(layer): [next(unclaimed) for _ in layer.params]
               for layer in layers}
    started_from = [a.copy() for a in params]

    if not isinstance(val_pairs, (PairBatch, type(None))):
        raise PyramidError(f"validation pairs must be a PairBatch, got "
                           f"{type(val_pairs).__name__}")

    def validate(step):
        trace.val_iterations.append(step - 1)
        trace.val_aucs.append(
            float("nan") if val_images is None else
            _validation_auc(nets[0], offsets[0], val_images, val_pairs))

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
                    loss, comp_grad, layer_grads = _chunk_grads(
                        net, comp, images, pairs[start:start + chunk],
                        offsets[k])
                    # pair by pair onto the running sums, as np.sum's
                    # pairwise order would change the bits
                    total_loss = float(_running_sum(total_loss, loss))
                    grads[-1][k] = _running_sum(grads[-1][k], comp_grad)
                    for layer, layer_grad in zip(net.layers, layer_grads):
                        for g, d in zip(grad_of[id(layer)], layer_grad):
                            g += d
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


def _chunk_grads(net: Network, comp: ComparatorParams, images,
                 pairs: PairBatch, offset: tuple[int, int]):
    """One chunk of a Siamese step: `net`'s forward on both members of
    each of `pairs` (rows 2j and 2j+1 hold pair j's two), the pair loss
    under `comp`, and the backward.  Returns the per-pair losses, the
    per-pair (log_alpha, beta) gradient rows and `_backward_cached`'s
    gradients of `net.layers`; the gathered batch, the outputs and the
    caches are freed on return, before the next chunk gathers its own."""
    members = np.column_stack((pairs.first, pairs.second))
    x = _gather(images, members.reshape(-1), offset, net.input_size)
    out, caches = _forward_cached(net, x)
    pg = pair_loss_grads(out[0::2], out[1::2], pairs.label, comp)
    g_out = np.empty_like(out)
    g_out[0::2], g_out[1::2] = pg.grad_v1, pg.grad_v2
    return (pg.loss, np.column_stack([pg.grad_log_alpha, pg.grad_beta]),
            _backward_cached(net, caches, g_out))


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


def _embed(net: Network, offset: tuple[int, int], grids,
           seen=None) -> np.ndarray:
    """(n, m) outputs of `net`, on its current parameters, on the
    edge-`net.input_size` window at `offset` = (x, y) of each of the n
    `grids` (an array or a list of arrays): forward-only, from views of
    the windows, a slab of grids at a time.  `seen` is `_forward`'s."""
    (ox, oy), edge = offset, net.input_size
    step = _images_per_slab(net)
    return np.concatenate([
        _forward(net, np.asarray(grids[start:start + step])
                 [:, oy:oy + edge, ox:ox + edge], seen)
        for start in range(0, len(grids), step)])


def _validation_auc(net: Network, offset: tuple[int, int], val_images,
                    val_pairs: PairBatch) -> float:
    """ROC AUC of `net`'s embedding distances (`_embed`) over the
    validation pairs, scored as `pyrcnn eval` scores its pairs; NaN when
    the pairs are all matched or all unmatched."""
    sides = pair_distances(_embed(net, offset, val_images), val_pairs)
    if not all(side.size for side in sides):
        return float("nan")
    return evaluate_distances(*sides, ()).auc


def _level_health(net: Network, offset: tuple[int, int],
                  grids) -> LevelHealth:
    """`net`'s `LevelHealth` on the window at `offset` of each of `grids`,
    from the embeddings `_embed` gives them."""
    seen = [np.zeros(stage.conv.out_channels, bool) for stage in net.stages]
    out = _embed(net, offset, grids, seen)
    spread = np.sqrt(np.mean(np.sum((out - out.mean(axis=0)) ** 2, axis=1)))
    return LevelHealth(float(spread),
                       tuple(float(1.0 - alive.mean()) for alive in seen),
                       float(np.mean(np.ptp(out, axis=0) == 0.0)))


class _DrawnPairs:
    """A pair stream drawn ahead: `iterations` batches of `size` pairs from
    `sampler`, written in order into one PairBatch, `pairs`, whose arrays
    are allocated before the first draw.  `batch(size)` hands them back in
    order, as views; a different size, or one batch more than was drawn,
    is a PyramidError."""

    def __init__(self, sampler: PairSampler, size: int, iterations: int):
        first, second = np.empty((2, size * iterations), np.int32)
        label = np.empty(size * iterations, np.int8)
        for start in range(0, label.size, size):
            batch, end = sampler.batch(size), start + size
            first[start:end], second[start:end], label[start:end] = \
                batch.first, batch.second, batch.label
        self.pairs = PairBatch(first, second, label)
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
    center crop, pushed through the frozen stages below it
    (`_level_grids`).  Returns one trace per trained level.

    The dataset is split by identity into fit/validation parts; every
    level's pair stream and the validation pair set derive from cfg.seed
    so a rerun reproduces the exact sequence.  A level draws all of its
    batches before it trains, and filters and down-samples only the fit
    images those batches name and the validation images the validation
    pairs name; the pairs are renumbered into those images, so the level
    reads the same rows, in the same order, as it would from the whole
    set.  A partially trained model resumes at its first untrained level,
    `levels_trained`.  Each trace also holds the level's wall seconds.
    """
    spec = model.spec
    if not dataset:
        raise PyramidError("dataset is empty")
    start = model.levels_trained
    identities = [img.identity for img in dataset]
    try:
        fit_ids_set, val_ids_set = split_identity_ids(
            identities, cfg.validation_fraction, derive_seed(cfg.seed,
                                                             "val-split"))
    except DataError as exc:
        raise PyramidError(f"cannot split dataset: {exc}") from exc

    raw_edge = spec.raw_data_edge()
    fit_images, val_images = [], []
    for img in dataset:
        center_window(img, raw_edge)  # a too-small image fails before level 0
        (fit_images if img.identity in fit_ids_set else val_images).append(img)

    try:
        val_pairs = PairSampler([img.identity for img in val_images],
                                make_rng(cfg.seed, "val-pairs")) \
            .batch(_VAL_PAIRS)
    except DataError:  # validation side too small for pairs: NaN AUCs
        val_pairs = val_images = None
    else:  # only the images the pairs name, the pairs renumbered into them
        val_images = [val_images[i] for i in _compact(val_pairs)]

    traces = []
    for level in range(start, spec.levels):
        started = time.perf_counter()
        try:
            sampler = PairSampler([img.identity for img in fit_images],
                                  make_rng(cfg.seed, f"pairs-level{level}"))
        except DataError as exc:
            raise PyramidError(
                f"cannot sample training pairs: {exc}") from exc
        drawn = _DrawnPairs(sampler, cfg.batch_size, cfg.iterations_per_level)
        used = _compact(drawn.pairs)
        traces.append(train_level(
            model, level, _level_grids(model, [fit_images[i] for i in used],
                                       level),
            drawn, cfg,
            val_images=(None if val_images is None
                        else _level_grids(model, val_images, level)),
            val_pairs=val_pairs))
        model.levels_trained = level + 1
        traces[-1].wall_s = time.perf_counter() - started
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


MAGIC = b"PYRCNN02"


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


def _file_order(spec: PyramidSpec, kept: int):
    """PYRCNN02's tensor order, which `_model_bytes` and `load_model` walk:
    each level's entry conv, then, per level from `kept` (the model's
    `frozen_prefix()`) up and per network, its template convs, its head
    and its comparator.  Yields (level, network, layer, tensors): `layer`
    indexes the network's `layers` (the entry conv is layer 0 of network
    0), or is None for the comparator, and `tensors` counts the slot's
    tensors, one per array of the layer's `params`."""
    head = len(spec.template) + 1
    for level in range(spec.levels):
        yield level, 0, 0, len(ConvLayer.names)
    for level in range(kept, spec.levels):
        for k in range(spec.networks_per_level):
            for j in range(1, head):
                yield level, k, j, len(ConvLayer.names)
            yield level, k, head, len(FCLayer.names)
            yield level, k, None, 1


def _model_bytes(model: PyramidModel) -> bytes:
    """PYRCNN02: magic, spec integers, levels trained, then tensors in
    `_file_order`."""
    spec = model.spec
    ints = [spec.levels, spec.base_input, spec.networks_per_level,
            spec.output_dim, *astuple(spec.shared), len(spec.template),
            *(v for t in spec.template for v in astuple(t)),
            *(v for offset in spec.patch_offsets for v in offset),
            model.levels_trained]
    chunks = [MAGIC, np.asarray(ints, dtype="<i8").tobytes()]
    for level, k, j, _ in _file_order(spec, model.frozen_prefix()):
        if j is None:
            comp = model.comparators[level][k]
            arrays = [np.array([comp.log_alpha, comp.beta])]
        else:
            arrays = (model.stages[level].conv if j == 0 else
                      model.level_networks[level][k].layers[j]).params
        chunks += map(_tensor_bytes, arrays)
    return b"".join(chunks)


def save_model(model: PyramidModel, path) -> None:
    """Single binary file, `_model_bytes(model)`."""
    Path(path).write_bytes(_model_bytes(model))


def load_model(path) -> PyramidModel:
    """The model in `path`, if `_model_bytes` gives the file back and
    0 <= levels trained <= levels: every entry stage, and the networks and
    comparators from `frozen_prefix()` up.  A file of another PYRCNN
    version is refused by name."""
    data = Path(path).read_bytes()
    magic = data[:len(MAGIC)]
    if magic != MAGIC:
        raise PyramidError(
            f"{path}: a {magic.decode('ascii', 'replace')} model file, but "
            f"this version reads {MAGIC.decode()} only; train again to "
            f"write one" if magic.startswith(b"PYRCNN") else
            f"{path}: not a model file (expected magic {MAGIC.decode()})")
    cur = _Cursor(data)
    (levels, base_input, networks_per_level, output_dim,
     sk, sc, sp, n_template) = cur.ints(8)
    template = tuple(StageSpec(*cur.ints(3)) for _ in range(n_template))
    offsets = tuple(tuple(cur.ints(2)) for _ in range(networks_per_level))
    (levels_trained,) = cur.ints(1)
    spec = PyramidSpec(levels=levels, base_input=base_input,
                       shared=StageSpec(sk, sc, sp), template=template,
                       patch_offsets=offsets, output_dim=output_dim)
    if not 0 <= levels_trained <= levels:
        raise PyramidError(f"{path}: {levels_trained} levels trained, "
                           f"outside 0..{levels}")
    # every tensor is read, and its size checked against the file, before
    # any layer or per-level list is made: a bad spec cannot outgrow it
    model = PyramidModel(spec, [], [], [], levels_trained)
    kept = model.frozen_prefix()
    read = {(level, k, j): [cur.tensor() for _ in range(tensors)]
            for level, k, j, tensors in _file_order(spec, kept)}
    for level in range(levels):
        stage = Stage(ConvLayer(*read[level, 0, 0]), PoolSpec(sp))
        want = spec.stage_geometry(level), output_dim
        if level < kept and stage.geometry != want[0][0]:
            raise PyramidError(f"{path}: level {level} has entry stage "
                               f"{stage.geometry}; its spec needs "
                               f"{want[0][0]}")
        nets, comps = [], []
        for k in range(networks_per_level if level >= kept else 0):
            chain = [stage] + [
                Stage(ConvLayer(*read[level, k, j]), PoolSpec(t.pool))
                for j, t in enumerate(spec.template, 1)]
            head = FCLayer(*read[level, k, len(chain)])
            got = [s.geometry for s in chain], head.out_dim
            if got != want:
                raise PyramidError(
                    f"{path}: level {level} network {k} has stages {got[0]} "
                    f"and {got[1]} outputs; its spec needs {want[0]} and "
                    f"{want[1]}")
            (cmp,) = read[level, k, None]
            if cmp.size != 2:
                raise PyramidError(
                    f"{path}: comparator tensor has {cmp.size} values, "
                    f"expected 2 (log_alpha, beta)")
            nets.append(Network(chain, head, base_input,
                                spec.entry_in_channels(level)))
            comps.append(ComparatorParams(*cmp.reshape(-1).tolist()))
        model.stages.append(stage)
        model.level_networks.append(nets)
        model.comparators.append(comps)
    if _model_bytes(model) != data:
        raise PyramidError(f"{path}: not the bytes save_model writes for "
                           f"the model it describes")
    return model
