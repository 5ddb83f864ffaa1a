"""Leveled CNN construction, greedy level-by-level training, serialization.

The model is a ladder of levels.  Every level trains the same-shaped
subnetwork on small patches: an entry conv+pool stage, the level-invariant
template stack, and an FC head.  A level's entry stage is a single object
aliased into all of that level's networks; when the level finishes, the
stage is frozen and becomes the filter-and-down-sample preprocessor through
which the whole dataset flows before the next level trains.  The entry
stage of the final level is trained like any other but never consumed.

Training a level therefore always updates the same set of parameter
blocks — one entry stage, one template stack + head + comparator per
network — no matter how high the level sits, while the *assembled* network
for level l (frozen stages 0..l-1 plus level l's subnetwork) grows deeper
and sees exponentially larger input patches.

Greedy levels and the monolithic baseline train through one Siamese loop
(`_siamese_fit`): the same pair loss, momentum SGD and pair stream.  A
level differs only in that its entry stage is one layer shared by all of
its networks.  Each step stacks both members of every pair into one
(n, h, w, c) batch per network, with one batched forward and one batched
backward call; a batch whose largest pre-activation map would not fit the
layers' memory slab is walked in pair chunks (the whole 32-pair batch at
the 16-edge levels, one pair at a time at the 76-edge monolith).
Validation embeds its images in batches of the same size, on the
forward-only kernel (`layers._forward`), which keeps no backprop state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (DataError, FacePair, LabeledImage, PairSampler,
                   center_crop, split_identity_ids)
from .layers import (ConvLayer, FCLayer, Network, PoolSpec, _backward_cached,
                     _forward, _forward_cached, _images_per_slab,
                     _stage_params, layer_forward)
from .loss import ComparatorParams, pair_loss_grads
from .metrics import auc, compute_roc
from .seeding import derive_seed, make_rng
from .tensor import Tensor, TensorError


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
        self.fc_input_dim()  # raises if the template chain does not close

    def entry_in_channels(self, level: int) -> int:
        return 1 if level == 0 else self.shared.channels

    def subnet_stage_specs(self) -> list[StageSpec]:
        return [self.shared, *self.template]

    def fc_input_dim(self) -> int:
        edge = self.base_input
        channels = None
        for i, st in enumerate(self.subnet_stage_specs()):
            if st.kernel > edge:
                raise PyramidError(
                    f"stage {i} kernel {st.kernel} exceeds feature edge {edge}"
                )
            edge -= st.kernel - 1
            if edge % st.pool:
                raise PyramidError(
                    f"stage {i} pool {st.pool} does not divide edge {edge}"
                )
            edge //= st.pool
            channels = st.channels
        return edge * edge * channels

    def inverse_edge(self, edge: int, n_stages: int) -> int:
        for _ in range(n_stages):
            edge = edge * self.shared.pool + self.shared.kernel - 1
        return edge

    def assembled_input_edge(self, level: int) -> int:
        """Raw-image edge consumed by the level's assembled deep network."""
        return self.inverse_edge(self.base_input, level)

    def max_offset(self) -> int:
        return max(max(ox, oy) for ox, oy in self.patch_offsets)

    def data_edge(self, level: int) -> int:
        """Edge of the (level-times preprocessed) training data grid."""
        top = self.base_input + self.max_offset()
        return self.inverse_edge(top, self.levels - 1 - level)

    def raw_data_edge(self) -> int:
        return self.data_edge(0)


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
class SharedStage:
    conv: ConvLayer
    pool: PoolSpec

    @property
    def frozen(self) -> bool:
        return self.conv.frozen


@dataclass
class PyramidModel:
    spec: PyramidSpec
    stages: list[SharedStage]               # one entry stage per level
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
        entry = ConvLayer.initialize(spec.shared.kernel,
                                     spec.entry_in_channels(level),
                                     spec.shared.channels, rng)
        stage = SharedStage(entry, PoolSpec(spec.shared.pool))
        nets, comps = [], []
        for _ in range(spec.networks_per_level):
            layers = [(stage.conv, stage.pool)]
            channels = spec.shared.channels
            for tspec in spec.template:
                layers.append((ConvLayer.initialize(tspec.kernel, channels,
                                                    tspec.channels, rng),
                               PoolSpec(tspec.pool)))
                channels = tspec.channels
            head = FCLayer.initialize(fc_dim, spec.output_dim, rng)
            nets.append(Network(layers, head, spec.base_input,
                                spec.entry_in_channels(level)))
            comps.append(ComparatorParams())
        stages.append(stage)
        level_networks.append(nets)
        comparators.append(comps)
    return PyramidModel(spec, stages, level_networks, comparators)


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
    layers = [(s.conv, s.pool) for s in model.stages[:level]] + subnet.stages
    return Network(layers, subnet.head, spec.assembled_input_edge(level),
                   in_channels=1)


def preprocess_dataset(images: Sequence[Tensor],
                       stage: SharedStage) -> list[Tensor]:
    """Push every image through one frozen stage (Algorithm step: filter
    and down-sample the whole dataset)."""
    if not stage.frozen:
        raise PyramidError("preprocess_dataset requires a frozen stage")
    out = []
    for i, img in enumerate(images):
        try:
            out.append(layer_forward(img, stage.conv, stage.pool))
        except TensorError as exc:
            raise PyramidError(f"image {i}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             state: dict[str, np.ndarray],
             cfg: TrainConfig) -> tuple[dict[str, np.ndarray],
                                        dict[str, np.ndarray]]:
    """One classical-momentum step; blocks without a gradient pass through.

    velocity <- momentum * velocity - lr * grad; param <- param + velocity.
    Pure function: returns fresh dicts, never mutates its arguments.
    """
    new_params = dict(params)
    new_state = dict(state)
    for name, grad in grads.items():
        if name not in params:
            raise PyramidError(f"gradient for unknown parameter {name!r}")
        p = params[name]
        g = np.asarray(grad, dtype=np.float64)
        if p.shape != g.shape:
            raise PyramidError(
                f"shape mismatch for {name!r}: param {p.shape} vs "
                f"grad {g.shape}"
            )
        v = state.get(name)
        if v is None:
            v = np.zeros_like(p)
        elif v.shape != p.shape:
            raise PyramidError(
                f"shape mismatch for {name!r}: param {p.shape} vs "
                f"state {v.shape}"
            )
        v = cfg.momentum * v - cfg.learning_rate * g
        new_state[name] = v
        new_params[name] = p + v
    return new_params, new_state


# ---------------------------------------------------------------------------
# training


@dataclass
class LevelTrace:
    level: int
    losses: list[float] = field(default_factory=list)
    val_aucs: list[float] = field(default_factory=list)  # NaN when no val set


def _check_level_images(spec: PyramidSpec, images: Sequence[Tensor],
                        level: int, what: str) -> None:
    need = spec.base_input + spec.max_offset()
    channels = spec.entry_in_channels(level)
    for i, img in enumerate(images):
        h, w = img.shape[0], img.shape[1]
        if len(img.shape) != 3 or img.shape[2] != channels or h != w or h < need:
            raise PyramidError(
                f"{what} image {i} has shape {img.shape}; level {level} "
                f"needs square >= {need} with {channels} channels"
            )


def train_level(model: PyramidModel, level: int, images: Sequence[Tensor],
                pair_source: PairSampler, cfg: TrainConfig,
                val_images: Sequence[Tensor] | None = None,
                val_pairs: Sequence[FacePair] | None = None) -> LevelTrace:
    """Siamese training of one level's networks (and its entry stage).

    `images` must already be preprocessed through all frozen stages below
    `level`.  Runs the shared Siamese loop (`_siamese_fit`) for
    cfg.iterations_per_level steps; the entry stage is aliased into every
    network of the level, so its gradient is averaged across them.
    Records the per-iteration mean batch loss and, when a validation set
    is supplied, network 0's validation AUC after each update.
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
    if not images:
        raise PyramidError("no training images supplied")
    _check_level_images(spec, images, level, "training")
    if val_images is not None:
        _check_level_images(spec, val_images, level, "validation")
    return _siamese_fit(model.level_networks[level], model.comparators[level],
                        spec.patch_offsets, images, pair_source, cfg,
                        LevelTrace(level), cfg.iterations_per_level, None,
                        val_images, val_pairs)


def _siamese_fit(nets: Sequence[Network], comps: Sequence[ComparatorParams],
                 offsets: Sequence[tuple[int, int]], images: Sequence[Tensor],
                 pair_source: PairSampler, cfg: TrainConfig,
                 trace: LevelTrace, iterations: int | None,
                 time_budget: float | None,
                 val_images: Sequence[Tensor] | None,
                 val_pairs: Sequence[FacePair] | None) -> LevelTrace:
    """Momentum-SGD on the pair loss for every network in `nets` at once.

    Network k is fed the edge-`input_size` patch of each image at
    `offsets[k]` and scored by `comps[k]`.  Both members of a pair flow
    through identical weights, so a layer's gradient is the sum over the
    two branches.  A layer object aliased into several networks is one
    parameter; its gradient is divided by (networks sharing it) x pairs,
    every other gradient by pairs.  Pairs go through each network in chunks
    that fit one memory slab (`layers._images_per_slab`), both members of
    pair j in rows 2j and 2j+1, so the branch gradients of a layer whose
    pair-loss gradients cancel (the head bias) sum to exactly zero.  Runs
    `iterations` steps, or until `time_budget` seconds elapse when that is
    given, appending to `trace` the mean pair loss of each batch and
    network 0's validation AUC (NaN without a validation set) after each
    update.
    """
    owners: dict[int, list] = {}  # id(layer) -> [layer, networks sharing it]
    for net in nets:
        for layer in [conv for conv, _ in net.stages] + [net.head]:
            owners.setdefault(id(layer), [layer, 0])[1] += 1
    params, shares = {}, {}
    for key, (layer, n_sharing) in owners.items():
        for attr in ("weights", "bias"):
            params[f"{key}.{attr}"] = getattr(layer, attr).array
            shares[f"{key}.{attr}"] = n_sharing
    for k, comp in enumerate(comps):
        params[f"cmp{k}"] = np.array([comp.log_alpha, comp.beta])
        shares[f"cmp{k}"] = 1
    state: dict[str, np.ndarray] = {}
    val_ids = None
    if val_images is not None and val_pairs:
        val_ids = sorted({p.first for p in val_pairs}
                         | {p.second for p in val_pairs})

    started = time.perf_counter()
    step = 0
    while (step < iterations if time_budget is None
           else time.perf_counter() - started < time_budget):
        step += 1
        pairs = pair_source.batch(cfg.batch_size)
        grads = {name: np.zeros_like(p) for name, p in params.items()}
        total_loss = 0.0
        for k, (net, comp) in enumerate(zip(nets, comps)):
            ox, oy = offsets[k]
            edge = net.input_size
            stage_params = _stage_params(net)
            head_w, head_b = net.head.weights.array, net.head.bias.array
            names = [(f"{key}.weights", f"{key}.bias") for key in
                     [id(conv) for conv, _ in net.stages] + [id(net.head)]]
            chunk = max(1, _images_per_slab(net) // 2)
            for start in range(0, len(pairs), chunk):
                part = pairs[start:start + chunk]
                # rows 2j and 2j+1 hold pair j's two members
                x = np.stack([images[i].array[oy:oy + edge, ox:ox + edge]
                              for pair in part
                              for i in (pair.first, pair.second)])
                out, caches = _forward_cached(stage_params, head_w, head_b, x)
                g_out = np.empty_like(out)
                for j, pair in enumerate(part):
                    pg = pair_loss_grads(out[2 * j], out[2 * j + 1],
                                         pair.label, comp)
                    total_loss += pg.loss
                    g_out[2 * j], g_out[2 * j + 1] = pg.grad_v1, pg.grad_v2
                    grads[f"cmp{k}"] += (pg.grad_log_alpha, pg.grad_beta)
                sg, hg = _backward_cached(stage_params, head_w, caches, g_out)
                for (w_name, b_name), (dw, db) in zip(names, [*sg, hg]):
                    grads[w_name] += dw
                    grads[b_name] += db
        for name in grads:
            grads[name] /= shares[name] * len(pairs)
        params, state = sgd_step(params, grads, state, cfg)
        for key, (layer, _) in owners.items():
            layer.weights = Tensor.from_array(params[f"{key}.weights"])
            layer.bias = Tensor.from_array(params[f"{key}.bias"])
        for k, comp in enumerate(comps):
            comp.log_alpha, comp.beta = (float(v) for v in params[f"cmp{k}"])
        trace.losses.append(total_loss / (len(nets) * len(pairs)))
        trace.val_aucs.append(
            float("nan") if val_ids is None else
            _validation_auc(nets[0], offsets[0], val_images, val_pairs,
                            val_ids))
    return trace


def _validation_auc(net: Network, offset: tuple[int, int],
                    val_images: Sequence[Tensor],
                    val_pairs: Sequence[FacePair],
                    val_ids: list[int]) -> float:
    """ROC AUC of `net`'s embedding distances over the validation pairs;
    NaN when the pairs are all matched or all unmatched."""
    ox, oy = offset
    edge = net.input_size
    stage_params = _stage_params(net)
    hw, hb = net.head.weights.array, net.head.bias.array
    step = _images_per_slab(net)
    feats = np.concatenate([
        _forward(stage_params, hw, hb,
                 np.stack([val_images[i].array[oy:oy + edge, ox:ox + edge]
                           for i in val_ids[start:start + step]]))
        for start in range(0, len(val_ids), step)])
    row = {i: r for r, i in enumerate(val_ids)}
    first = [row[p.first] for p in val_pairs]
    second = [row[p.second] for p in val_pairs]
    dist = np.sqrt(np.sum((feats[first] - feats[second]) ** 2, axis=1))
    matched = np.array([int(p.label) == 1 for p in val_pairs])
    if matched.all() or not matched.any():
        return float("nan")
    return auc(compute_roc(dist[matched], dist[~matched]))


def greedy_train(model: PyramidModel, dataset: Sequence[LabeledImage],
                 cfg: TrainConfig,
                 val_pair_count: int = 128) -> list[LevelTrace]:
    """Level-by-level training: train, freeze the entry stage, push the
    dataset through it, ascend.  Returns one trace per trained level.

    The dataset is split by identity into fit/validation parts; every
    level's pair stream and the validation pair set derive from cfg.seed
    so a rerun reproduces the exact sequence.  A partially trained model
    (contiguous frozen prefix) resumes at its first untrained level.
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

    raw_edge = spec.raw_data_edge()
    fit_imgs, fit_ids, val_imgs, val_ids = [], [], [], []
    for img in dataset:
        tensor = center_crop(img, raw_edge)
        if img.identity in fit_ids_set:
            fit_imgs.append(tensor)
            fit_ids.append(img.identity)
        else:
            val_imgs.append(tensor)
            val_ids.append(img.identity)

    val_pairs = None
    try:
        val_pairs = PairSampler(val_ids, make_rng(cfg.seed, "val-pairs")) \
            .batch(val_pair_count)
    except DataError:
        pass  # validation side too small for pairs; traces carry NaN AUC

    # resume support: push data through the already-frozen prefix
    for stage in model.stages[:model.frozen_prefix()]:
        fit_imgs = preprocess_dataset(fit_imgs, stage)
        if val_pairs is not None:
            val_imgs = preprocess_dataset(val_imgs, stage)

    traces = []
    for level in range(start, spec.levels):
        sampler = PairSampler(fit_ids, make_rng(cfg.seed,
                                                f"pairs-level{level}"))
        traces.append(train_level(
            model, level, fit_imgs, sampler, cfg,
            val_images=val_imgs if val_pairs is not None else None,
            val_pairs=val_pairs))
        model.levels_trained = level + 1
        if level < spec.levels - 1:
            model.stages[level].conv.frozen = True
            fit_imgs = preprocess_dataset(fit_imgs, model.stages[level])
            if val_pairs is not None:
                val_imgs = preprocess_dataset(val_imgs, model.stages[level])
    return traces


# ---------------------------------------------------------------------------
# monolithic baseline (for budget-matched comparisons against greedy training)


def build_monolithic(spec: PyramidSpec, seed: int) -> tuple[Network,
                                                            ComparatorParams]:
    """A single end-to-end network with the full assembled architecture:
    every level's stage geometry stacked, then the template and head."""
    rng = make_rng(seed, "monolith-init")
    layers = []
    channels = 1
    for _ in range(spec.levels):
        layers.append((ConvLayer.initialize(spec.shared.kernel, channels,
                                            spec.shared.channels, rng),
                       PoolSpec(spec.shared.pool)))
        channels = spec.shared.channels
    for tspec in spec.template:
        layers.append((ConvLayer.initialize(tspec.kernel, channels,
                                            tspec.channels, rng),
                       PoolSpec(tspec.pool)))
        channels = tspec.channels
    head = FCLayer.initialize(spec.fc_input_dim(), spec.output_dim, rng)
    net = Network(layers, head, spec.assembled_input_edge(spec.levels - 1),
                  in_channels=1)
    return net, ComparatorParams()


def train_network(net: Network, comp: ComparatorParams,
                  images: Sequence[Tensor], pair_source: PairSampler,
                  cfg: TrainConfig, iterations: int | None = None,
                  time_budget: float | None = None,
                  val_images: Sequence[Tensor] | None = None,
                  val_pairs: Sequence[FacePair] | None = None) -> LevelTrace:
    """Plain Siamese training of one network on full-size crops: the same
    loop, loss, optimizer and pair stream semantics as train_level, with no
    layer shared and the patch taken at offset (0, 0).

    Runs for `iterations` steps or until `time_budget` seconds elapse
    (whichever is given; time_budget wins if both are set).
    """
    if iterations is None and time_budget is None:
        iterations = cfg.iterations_per_level
    edge = net.input_size
    for i, img in enumerate(images):
        if img.shape[0] < edge or img.shape[1] < edge \
                or img.shape[2] != net.in_channels:
            raise PyramidError(
                f"image {i} shape {img.shape} cannot feed edge-{edge} network"
            )
    return _siamese_fit([net], [comp], [(0, 0)], images, pair_source, cfg,
                        LevelTrace(-1), iterations, time_budget,
                        val_images, val_pairs)


# ---------------------------------------------------------------------------
# serialization


MAGIC = b"PYRCNN01"


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return (np.asarray([arr.ndim], dtype="<i8").tobytes()
            + np.asarray(arr.shape, dtype="<i8").tobytes()
            + np.ascontiguousarray(arr, dtype="<f8").tobytes())


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def ints(self, n: int) -> list[int]:
        end = self.pos + 8 * n
        if end > len(self.data):
            raise PyramidError("model file truncated")
        out = np.frombuffer(self.data[self.pos:end], dtype="<i8")
        self.pos = end
        return [int(v) for v in out]

    def tensor(self) -> np.ndarray:
        (rank,) = self.ints(1)
        if rank < 1 or rank > 8:
            raise PyramidError(f"corrupt tensor rank {rank} in model file")
        shape = self.ints(rank)
        if min(shape) < 1:
            raise PyramidError(f"corrupt tensor shape {tuple(shape)} in "
                               f"model file")
        count = math.prod(shape)  # Python ints: a huge shape cannot wrap
        end = self.pos + 8 * count
        if end > len(self.data):
            raise PyramidError("model file truncated")
        arr = np.frombuffer(self.data[self.pos:end], dtype="<f8")
        self.pos = end
        return arr.reshape(shape).copy()


def _model_tensors(model: PyramidModel):
    """Fixed serialization order for every parameter tensor."""
    for stage in model.stages:
        yield stage.conv.weights.array
        yield stage.conv.bias.array
    for level in range(model.spec.levels):
        for k, net in enumerate(model.level_networks[level]):
            for j in range(1, len(net.stages)):
                yield net.stages[j][0].weights.array
                yield net.stages[j][0].bias.array
            yield net.head.weights.array
            yield net.head.bias.array
            comp = model.comparators[level][k]
            yield np.array([comp.log_alpha, comp.beta])


def save_model(model: PyramidModel, path) -> None:
    """Single binary file: magic, spec integers, then tensors in fixed order."""
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
    chunks += [_tensor_bytes(arr) for arr in _model_tensors(model)]
    Path(path).write_bytes(b"".join(chunks))


def load_model(path) -> PyramidModel:
    data = Path(path).read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        raise PyramidError(
            f"{path}: not a model file (expected magic {MAGIC.decode()})"
        )
    cur = _Cursor(data)
    cur.pos = len(MAGIC)
    (levels, base_input, networks_per_level, output_dim,
     sk, sc, sp, n_template) = cur.ints(8)
    template = []
    for _ in range(n_template):
        k, c, p = cur.ints(3)
        template.append(StageSpec(k, c, p))
    offsets = []
    for _ in range(networks_per_level):
        ox, oy = cur.ints(2)
        offsets.append((ox, oy))
    (levels_trained,) = cur.ints(1)
    frozen = cur.ints(levels)
    spec = PyramidSpec(levels=levels, base_input=base_input,
                       shared=StageSpec(sk, sc, sp), template=tuple(template),
                       networks_per_level=networks_per_level,
                       patch_offsets=tuple(offsets), output_dim=output_dim)
    stages = []
    for level in range(levels):
        conv = ConvLayer(Tensor.from_array(cur.tensor()),
                         Tensor.from_array(cur.tensor()),
                         frozen=bool(frozen[level]))
        stages.append(SharedStage(conv, PoolSpec(sp)))
    level_networks, comparators = [], []
    for level in range(levels):
        nets, comps = [], []
        for _ in range(networks_per_level):
            layers = [(stages[level].conv, stages[level].pool)]
            for tspec in spec.template:
                layers.append((ConvLayer(Tensor.from_array(cur.tensor()),
                                         Tensor.from_array(cur.tensor())),
                               PoolSpec(tspec.pool)))
            head = FCLayer(Tensor.from_array(cur.tensor()),
                           Tensor.from_array(cur.tensor()))
            nets.append(Network(layers, head, base_input,
                                spec.entry_in_channels(level)))
            cmp = cur.tensor().reshape(-1)
            if cmp.size != 2:
                raise PyramidError(
                    f"{path}: comparator tensor has {cmp.size} values, "
                    f"expected 2 (log_alpha, beta)")
            la, beta = cmp
            comps.append(ComparatorParams(float(la), float(beta)))
        level_networks.append(nets)
        comparators.append(comps)
    if cur.pos != len(data):
        raise PyramidError(f"{path}: {len(data) - cur.pos} trailing bytes")
    return PyramidModel(spec, stages, level_networks, comparators,
                        levels_trained)
