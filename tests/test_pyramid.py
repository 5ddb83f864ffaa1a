"""Pyramid construction, greedy level-wise training, and serialization."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loss_reference import comparator, distance, pair_loss
from pyrcnn import (ComparatorParams, ConvLayer, FCLayer,
                    LabeledImage, PairBatch, PairLabel, PairSampler, PoolSpec,
                    PyramidError, PyramidSpec, Stage, StageSpec,
                    Tensor, TrainConfig, activation,
                    assemble_network, build_monolithic, build_pyramid,
                    center_crop, conv_forward,
                    forward_multiply_adds, greedy_train, load_model, maxpool,
                    Network, network_backward,
                    network_forward, pair_loss_grads,
                    preprocess_dataset, save_model, synth_generate,
                    train_level, train_network)
from pyrcnn import pyramid
from pyrcnn.data import (NuisanceConfig, float_pixels, load_image,
                         split_identity_ids)
from pyrcnn.layers import _stage_shapes
from pyrcnn.metrics import auc, compute_roc
from pyrcnn.pyramid import (_VAL_PAIRS, _VALIDATE_EVERY, _momentum_step,
                            _validation_auc)
from pyrcnn.seeding import derive_seed, make_rng


def tensor(values):
    return Tensor.from_array(np.asarray(values, dtype=np.float64))


def random_patches(rng, n, edge, channels=1):
    return [tensor(rng.uniform(0.0, 1.0, (edge, edge, channels)))
            for _ in range(n)]


def stack(tensors):
    """The (n, h, w, c) array that train_level and preprocess_dataset take."""
    return np.stack([t.array for t in tensors])


def pair_batch(triples):
    """The PairBatch of (first, second, label) triples."""
    triples = list(triples)
    first, second, label = zip(*triples) if triples else ((), (), ())
    return PairBatch(first, second, [int(lab) for lab in label])


def pairs_of_six():
    """Every pair of 6 images, matched when both are in 0-2 or in 3-5."""
    return pair_batch((a, b, PairLabel.MATCHED if a // 3 == b // 3
                       else PairLabel.UNMATCHED)
                      for a in range(6) for b in range(a + 1, 6))


class FixedPairs:
    """A pair source that replays the same batch of (first, second, label)
    triples forever."""

    def __init__(self, triples):
        self.pairs = pair_batch(triples)

    def batch(self, n):
        assert n == len(self.pairs)
        return self.pairs[:]


def model_bytes(model, tmp_path, name):
    path = tmp_path / name
    save_model(model, path)
    return path.read_bytes()


def two_identity_images(rng, n_per, edge, channels=1):
    """Trivially separable gallery: dark class vs bright class + noise."""
    images, identities = [], []
    for ident, base in ((0, 0.25), (1, 0.75)):
        for _ in range(n_per):
            arr = np.clip(base + rng.normal(0, 0.02, (edge, edge, channels)),
                          0.0, 1.0)
            images.append(tensor(arr))
            identities.append(ident)
    return images, identities


# ---------------------------------------------------------------------------
# spec geometry


def test_spec_default_edges_exact():
    spec = PyramidSpec(levels=3)
    assert [spec.assembled_input_edge(l) for l in range(3)] == [16, 36, 76]
    assert spec.inverse_edge(16, 1) == 36  # e*pool + kernel - 1
    assert spec.fc_input_dim() == 64       # 16 -> 6 -> 2, 16 channels


def test_spec_data_edges_follow_offsets():
    spec = PyramidSpec(levels=3)
    assert [spec.patch_edge(l) for l in range(3)] == [16, 36, 76]
    assert spec.raw_data_edge() == 76
    shifted = PyramidSpec(levels=2, networks_per_level=2,
                          patch_offsets=((0, 0), (6, 6)))
    assert shifted.max_offset() == 6
    assert shifted.patch_edge(0) == 22
    assert shifted.raw_data_edge() == 48


def test_stage_geometry_is_what_the_builders_make():
    spec = PyramidSpec(levels=3, template=(StageSpec(3, 16, 2),
                                           StageSpec(1, 4, 1)))
    assert spec.stage_geometry(0) == [(5, 5, 1, 8, 2), (3, 3, 8, 16, 2),
                                      (1, 1, 16, 4, 1)]
    assert spec.stage_geometry(1)[0] == (5, 5, 8, 8, 2)
    model = build_pyramid(spec, seed=1)
    for level, nets in enumerate(model.level_networks):
        for net in nets:
            assert [s.geometry for s in net.stages] \
                == spec.stage_geometry(level)
    mono, _ = build_monolithic(spec, seed=1)
    assert [s.geometry for s in mono.stages] == \
        [spec.stage_geometry(level)[0] for level in range(2)] \
        + spec.stage_geometry(2)


STAGE_SPECS = st.builds(StageSpec, kernel=st.integers(1, 5),
                        channels=st.integers(1, 3), pool=st.integers(1, 3))


@st.composite
def closing_specs(draw):
    """A small valid spec, its base_input walked back from a final edge."""
    shared = draw(STAGE_SPECS)
    template = tuple(draw(st.lists(STAGE_SPECS, max_size=2)))
    edge = draw(st.integers(1, 3))
    for stage in reversed((shared, *template)):
        edge = edge * stage.pool + stage.kernel - 1
    offsets = tuple(draw(st.lists(st.tuples(st.integers(0, 6),
                                            st.integers(0, 6)),
                                  min_size=1, max_size=3)))
    return PyramidSpec(levels=draw(st.integers(1, 3)), base_input=edge,
                       shared=shared, template=template,
                       networks_per_level=len(offsets),
                       patch_offsets=offsets, output_dim=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(closing_specs())
def test_patch_edge_walks_forward_to_the_level_grid(spec):
    """`inverse_edge`, the rule behind `patch_edge`, undone by the one
    forward walk: the entry stages below level l take a `patch_edge(l)`
    patch to the `base_input + max_offset` grid that level l reads."""
    grid = spec.base_input + spec.max_offset()
    for level in range(spec.levels):
        entries = [spec.stage_geometry(j)[0] for j in range(level)]
        edge = spec.patch_edge(level)
        assert _stage_shapes(entries, edge, edge, 1)[0] == \
            (grid, grid, spec.entry_in_channels(level))


def test_spec_validation_errors():
    with pytest.raises(PyramidError):
        PyramidSpec(levels=0)
    with pytest.raises(PyramidError):
        PyramidSpec(levels=1, output_dim=0)
    with pytest.raises(PyramidError):
        PyramidSpec(levels=1, networks_per_level=2)  # one offset for two nets
    with pytest.raises(PyramidError):
        PyramidSpec(levels=1, patch_offsets=((-1, 0),))
    with pytest.raises(PyramidError):
        PyramidSpec(levels=1, base_input=15)  # 15-4=11 not divisible by 2
    with pytest.raises(PyramidError):
        StageSpec(kernel=0, channels=4, pool=1)


def test_train_config_validation():
    with pytest.raises(PyramidError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(PyramidError):
        TrainConfig(momentum=1.0)
    with pytest.raises(PyramidError):
        TrainConfig(batch_size=0)
    with pytest.raises(PyramidError):
        TrainConfig(validation_fraction=0.0)


# ---------------------------------------------------------------------------
# construction


def test_build_deterministic(tmp_path):
    spec = PyramidSpec(levels=2)
    a = model_bytes(build_pyramid(spec, seed=9), tmp_path, "a.bin")
    b = model_bytes(build_pyramid(spec, seed=9), tmp_path, "b.bin")
    c = model_bytes(build_pyramid(spec, seed=10), tmp_path, "c.bin")
    assert a == b
    assert a != c


def test_build_shares_entry_stage_within_level():
    spec = PyramidSpec(levels=2, networks_per_level=3,
                       patch_offsets=((0, 0), (2, 0), (0, 2)))
    model = build_pyramid(spec, seed=1)
    for level in range(2):
        entry = model.stages[level].conv
        for net in model.level_networks[level]:
            assert net.stages[0][0] is entry
        # template layers are per-network, never shared
        t0 = model.level_networks[level][0].stages[1][0]
        t1 = model.level_networks[level][1].stages[1][0]
        assert t0 is not t1


def test_build_entry_channels_by_level():
    model = build_pyramid(PyramidSpec(levels=3), seed=2)
    assert model.stages[0].conv.in_channels == 1
    assert model.stages[1].conv.in_channels == 8
    assert model.stages[2].conv.in_channels == 8
    assert all(not s.frozen for s in model.stages)
    assert model.levels_trained == 0


def test_single_level_is_plain_siamese_network():
    model = build_pyramid(PyramidSpec(levels=1), seed=3)
    assert len(model.stages) == 1
    net = assemble_network(model, 0, 0)
    assert net.input_size == 16
    assert len(net.stages) == 2  # entry + one template stage
    assert net.stages[0][0] is model.stages[0].conv


def test_assemble_validates_arguments():
    model = build_pyramid(PyramidSpec(levels=2), seed=4)
    with pytest.raises(PyramidError):
        assemble_network(model, 2, 0)
    with pytest.raises(PyramidError):
        assemble_network(model, 0, 1)
    with pytest.raises(PyramidError):
        assemble_network(model, 1, 0)  # stage 0 not frozen yet
    model.stages[0].conv.frozen = True
    net = assemble_network(model, 1, 0)
    assert net.input_size == 36
    assert len(net.stages) == 3  # frozen stage + entry + template
    assert net.stages[0][0] is model.stages[0].conv
    assert net.stages[1][0] is model.stages[1].conv


def test_frozen_prefix_requires_contiguity():
    model = build_pyramid(PyramidSpec(levels=3), seed=5)
    model.stages[1].conv.frozen = True  # hole below
    with pytest.raises(PyramidError):
        model.frozen_prefix()


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_shape_arithmetic():
    rng = np.random.default_rng(6)
    conv = ConvLayer.initialize(5, 1, 4, rng)
    conv.frozen = True
    stage = Stage(conv, PoolSpec(2))
    images = random_patches(rng, 3, 32)
    out = preprocess_dataset(stack(images), stage)
    assert [o.shape for o in out] == [(14, 14, 4)] * 3
    # inputs untouched
    assert images[0].shape == (32, 32, 1)


def test_preprocess_requires_frozen_stage():
    rng = np.random.default_rng(7)
    stage = Stage(ConvLayer.initialize(5, 1, 4, rng), PoolSpec(2))
    with pytest.raises(PyramidError):
        preprocess_dataset(stack(random_patches(rng, 1, 32)), stage)


def test_preprocess_composes_like_chained_stages():
    rng = np.random.default_rng(8)
    conv0 = ConvLayer.initialize(5, 1, 4, rng)
    conv1 = ConvLayer.initialize(5, 4, 4, rng)
    conv0.frozen = conv1.frozen = True
    s0, s1 = Stage(conv0, PoolSpec(2)), Stage(conv1, PoolSpec(2))
    images = random_patches(rng, 2, 76)
    once = preprocess_dataset(preprocess_dataset(stack(images), s0), s1)
    for img, got in zip(images, once):
        want = img
        for conv in (conv0, conv1):
            want = maxpool(activation(conv_forward(want, conv)), PoolSpec(2))
        assert got.tobytes() == want.array.tobytes()
    # one call through both stages, on an array or a list of views
    assert preprocess_dataset(stack(images), s0, s1).tobytes() == \
        once.tobytes()
    assert preprocess_dataset([t.array for t in images], s0, s1).tobytes() \
        == once.tobytes()
    # no stages: a copy of the images
    assert preprocess_dataset([t.array for t in images]).tobytes() == \
        stack(images).tobytes()


def test_preprocess_of_a_corner_is_the_corner_of_the_grid():
    """The stages on the top-left 36-px corner of 76-px crops give the
    bits of the top-left 16-px corner of the crops' own grids: what lets a
    greedy level hold only the region its networks read."""
    rng = np.random.default_rng(13)
    conv0 = ConvLayer.initialize(5, 1, 8, rng)
    conv1 = ConvLayer.initialize(5, 8, 8, rng)
    conv0.frozen = conv1.frozen = True
    s0, s1 = Stage(conv0, PoolSpec(2)), Stage(conv1, PoolSpec(2))
    crops = stack(random_patches(rng, 5, 76))
    level1 = preprocess_dataset(crops, s0)
    corner = preprocess_dataset([c[:36, :36] for c in crops], s0)
    assert corner.tobytes() == \
        np.ascontiguousarray(level1[:, :16, :16]).tobytes()
    level2 = preprocess_dataset(level1, s1)
    assert preprocess_dataset(crops, s0, s1).tobytes() == level2.tobytes()


def test_preprocess_is_independent_of_slab_size(monkeypatch):
    """Slabbed preprocessing gives the same bits as one image at a time."""
    import pyrcnn.layers as layers

    rng = np.random.default_rng(12)
    conv = ConvLayer.initialize(5, 1, 4, rng)
    conv.frozen = True
    stage = Stage(conv, PoolSpec(2))
    images = stack(random_patches(rng, 7, 32))
    whole = preprocess_dataset(images, stage)
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 2 * 28 * 28 * 4)
    assert preprocess_dataset(images, stage).tobytes() == whole.tobytes()
    assert preprocess_dataset(list(images), stage).tobytes() == \
        whole.tobytes()


def test_preprocess_rejects_mis_shaped_array():
    rng = np.random.default_rng(9)
    conv = ConvLayer.initialize(5, 1, 4, rng)
    conv.frozen = True
    stage = Stage(conv, PoolSpec(2))
    for shape in [(32, 32, 1),       # one image, no batch axis
                  (2, 32, 32, 3),    # wrong channel count
                  (2, 3, 3, 1),      # smaller than the kernel
                  (2, 31, 31, 1)]:   # pool 2 does not divide edge 27
        with pytest.raises(PyramidError) as err:
            preprocess_dataset(rng.uniform(0.0, 1.0, shape), stage)
        assert str(shape) in str(err.value)
    mixed = [rng.uniform(0.0, 1.0, (32, 32, 1)),
             rng.uniform(0.0, 1.0, (36, 36, 1))]
    with pytest.raises(PyramidError, match="2 different shapes"):
        preprocess_dataset(mixed, stage)
    with pytest.raises(PyramidError, match="no images"):
        preprocess_dataset([], stage)


def test_two_path_equivalence_after_training_level_zero():
    rng = np.random.default_rng(10)
    spec = PyramidSpec(levels=2)
    model = build_pyramid(spec, seed=11)
    model.stages[0].conv.frozen = True
    deep = assemble_network(model, 1, 0)
    for _ in range(10):
        raw = tensor(rng.uniform(0, 1, (36, 36, 1)))
        via_pre = network_forward(
            model.level_networks[1][0],
            tensor(preprocess_dataset(stack([raw]), model.stages[0])[0]))
        direct = network_forward(deep, raw)
        assert np.abs(via_pre.array - direct.array).max() < 1e-9


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_zero_learning_rate_is_identity():
    theta = np.array([1.0, 2.0])
    cfg = TrainConfig(learning_rate=0.0)
    _momentum_step(theta, np.zeros(2), np.array([5.0, -5.0]), cfg)
    np.testing.assert_array_equal(theta, [1.0, 2.0])


def test_sgd_no_momentum_is_vanilla_descent():
    theta, velocity = np.array([1.0, -2.0]), np.zeros(2)
    cfg = TrainConfig(learning_rate=0.1, momentum=0.0)
    _momentum_step(theta, velocity, np.array([0.5, 0.25]), cfg)
    np.testing.assert_allclose(theta, [1.0 - 0.05, -2.0 - 0.025])
    np.testing.assert_allclose(velocity, [-0.05, -0.025])


def test_sgd_momentum_accumulates():
    cfg = TrainConfig(learning_rate=0.1, momentum=0.5)
    theta, velocity = np.array([0.0]), np.zeros(1)
    _momentum_step(theta, velocity, np.array([1.0]), cfg)
    np.testing.assert_allclose(theta, [-0.1])     # v = -0.1
    _momentum_step(theta, velocity, np.array([1.0]), cfg)
    np.testing.assert_allclose(theta, [-0.25])    # v = -0.15


def test_sgd_quadratic_converges_within_40_steps():
    cfg = TrainConfig(learning_rate=0.1, momentum=0.0)
    theta, velocity = np.array([1.0]), np.zeros(1)
    steps = 0
    while abs(theta[0]) >= 1e-3:
        _momentum_step(theta, velocity, 2.0 * theta, cfg)
        steps += 1
        assert steps <= 40, "did not converge"
    assert steps <= 40


# ---------------------------------------------------------------------------
# level training


def level0_fixture(seed, n_per=4, levels=1):
    rng = np.random.default_rng(seed)
    spec = PyramidSpec(levels=levels)
    model = build_pyramid(spec, seed=seed)
    images, identities = two_identity_images(rng, n_per,
                                             spec.raw_data_edge())
    return spec, model, images, identities


def test_train_level_zero_learning_rate_flat(tmp_path):
    spec, model, images, identities = level0_fixture(20)
    before = model_bytes(model, tmp_path, "before.bin")
    fixed = [  # two matched, two unmatched, fixed forever
        (0, 1, PairLabel.MATCHED), (4, 5, PairLabel.MATCHED),
        (0, 4, PairLabel.UNMATCHED), (1, 5, PairLabel.UNMATCHED)]
    source = FixedPairs(fixed)
    cfg = TrainConfig(learning_rate=0.0, batch_size=4,
                      iterations_per_level=5, seed=0)
    trace = train_level(model, 0, stack(images), source, cfg)
    after = model_bytes(model, tmp_path, "after.bin")
    assert before == after
    assert len(set(trace.losses)) == 1  # identical batch, identical loss


def test_train_level_reduces_loss_on_separable_pairs():
    spec, model, images, identities = level0_fixture(21)
    sampler = PairSampler(identities, make_rng(21, "pairs"))
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=8,
                      iterations_per_level=25, seed=21)
    trace = train_level(model, 0, stack(images), sampler, cfg)
    assert len(trace.losses) == 25
    assert trace.losses[-1] < trace.losses[0]
    assert all(np.isfinite(trace.losses))


def test_train_level_sequencing_errors():
    spec = PyramidSpec(levels=2)
    model = build_pyramid(spec, seed=22)
    rng = np.random.default_rng(22)
    images = stack(random_patches(rng, 4, spec.raw_data_edge()))
    sampler = FixedPairs([])
    cfg = TrainConfig(iterations_per_level=1, batch_size=2)
    with pytest.raises(PyramidError):
        train_level(model, 1, images, sampler, cfg)  # level 0 not frozen
    model.stages[0].conv.frozen = True
    with pytest.raises(PyramidError):
        train_level(model, 0, images, sampler, cfg)  # already frozen
    with pytest.raises(PyramidError):
        train_level(model, 5, images, sampler, cfg)  # out of range
    with pytest.raises(PyramidError):
        train_level(model, 1, images[:0], sampler, cfg)  # no images


def test_train_level_rejects_wrong_channel_images():
    spec, model, _, _ = level0_fixture(23, levels=2)
    rng = np.random.default_rng(23)
    model.stages[0].conv.frozen = True
    bad = stack(random_patches(rng, 4, 16, channels=1))  # level 1 needs 8
    cfg = TrainConfig(iterations_per_level=1, batch_size=2)
    with pytest.raises(PyramidError) as err:
        train_level(model, 1, bad, FixedPairs([]), cfg)
    assert "channels" in str(err.value)


def test_train_level_rejects_non_finite_images():
    spec, model, images, _ = level0_fixture(28)
    bad = stack(images)
    bad[3, 5, 7, 0] = np.nan
    cfg = TrainConfig(iterations_per_level=1, batch_size=2)
    with pytest.raises(PyramidError, match="non-finite"):
        train_level(model, 0, bad, FixedPairs([]), cfg)
    with pytest.raises(PyramidError, match="non-finite"):
        train_level(model, 0, stack(images), FixedPairs([]), cfg,
                    val_images=bad, val_pairs=pair_batch([]))


def test_train_level_rejects_array_without_batch_axis():
    spec, model, images, _ = level0_fixture(29)
    cfg = TrainConfig(iterations_per_level=1, batch_size=2)
    with pytest.raises(PyramidError) as err:
        train_level(model, 0, images[0].array, FixedPairs([]), cfg)
    assert f"shape {images[0].shape}" in str(err.value)


def _image_set_entry(which):
    """(call, what, edge, channels, good edge, small edge) of one of the five
    image sets: `call(bad)` passes `bad` in that set's place, with every
    other argument valid and one training step's worth of pairs.  The
    preprocessing input needs no channel count of its own (None): its
    stages' walk checks the channels, as it checks the edge."""
    rng = np.random.default_rng(31)
    cfg = TrainConfig(iterations_per_level=1, batch_size=4, seed=31)
    if which == "preprocess_dataset":
        conv = ConvLayer.initialize(5, 1, 4, rng)
        conv.frozen = True
        stage = Stage(conv, PoolSpec(2))
        return (lambda bad: preprocess_dataset(bad, stage)), "input", 1, \
            None, 16, 3
    net, comp, images, sampler, val_images, val_pairs = validation_fixture(31)
    role = which.split(".")[1]
    if which.startswith("train_level"):
        model = build_pyramid(PyramidSpec(levels=1), seed=31)
        good = stack(images)

        def call(bad):
            if role == "images":
                train_level(model, 0, bad, sampler, cfg)
            else:
                train_level(model, 0, good, sampler, cfg, val_images=bad,
                            val_pairs=val_pairs)
    else:
        def call(bad):
            if role == "images":
                train_network(net, comp, bad, sampler, cfg, iterations=1)
            else:
                train_network(net, comp, images, sampler, cfg, iterations=1,
                              val_images=bad, val_pairs=val_pairs)
    what = "training" if role == "images" else "validation"
    return call, what, 16, 1, 16, 12


def _bad_image_set(problem, edge, channels, small):
    """An image set of the given `problem`, otherwise of `edge` x `edge` x
    `channels` images (six, as the validation pairs name), in each of the
    forms a set takes."""
    rng = np.random.default_rng(32)
    if problem == "rank":  # rank-2 Tensors, no channel axis
        return [tensor(rng.uniform(0, 1, (edge, edge))) for _ in range(6)]
    if problem == "ragged":
        return [rng.uniform(0, 1, (e, e, channels)) for e in (edge, edge + 2)]
    if problem == "small":
        return random_patches(rng, 6, small, channels)
    images = rng.uniform(0, 1, (6, edge, edge, channels + (
        problem == "channels")))
    if problem == "nan":
        images[2, 3, 4, 0] = np.nan
    return images


@pytest.mark.parametrize("problem", ["rank", "ragged", "channels", "small",
                                     "nan"])
@pytest.mark.parametrize("which", [
    "train_level.images", "train_level.val_images", "train_network.images",
    "train_network.val_images", "preprocess_dataset"])
def test_every_image_set_is_refused_by_one_rule(which, problem):
    """The five image sets share one rule and one message form: the set,
    the shape found and the shape needed.  (Before the rule, 12-px
    validation images reached numpy's matmul after one training step, and
    rank-2 Tensors an IndexError, in train_network.)"""
    call, what, edge, channels, good, small = _image_set_entry(which)
    bad = _bad_image_set(problem, good, channels or 1, small)
    with pytest.raises(PyramidError) as err:
        call(bad)
    message = str(err.value)
    need = (", fitting the stages" if channels is None
            else f", c = {channels} channels")
    assert re.fullmatch(rf"{what} images: (.+); need \(n, h, w, c\) with "
                        rf"n >= 1, h and w >= {edge}{need}", message), message
    if problem == "ragged":
        assert "2 different shapes" in message
    else:
        assert f"shape {(len(bad), *bad[0].shape)}" in message
    if problem == "nan":
        assert "non-finite" in message


def test_diverged_train_level_leaves_the_model_unchanged(tmp_path):
    """A fit that diverges after applying a step raises and keeps the
    parameters it started from."""
    spec, model, images, identities = level0_fixture(48)
    before = model_bytes(model, tmp_path, "before.bin")
    sampler = PairSampler(identities, make_rng(48, "pairs"))
    cfg = TrainConfig(learning_rate=1e300, batch_size=8,
                      iterations_per_level=5, seed=48)
    with pytest.raises(PyramidError, match="diverged at step 2"):
        train_level(model, 0, stack(images), sampler, cfg)
    assert model_bytes(model, tmp_path, "after.bin") == before


def test_diverged_train_network_leaves_the_net_unchanged():
    rng = np.random.default_rng(49)
    net, comp = build_monolithic(PyramidSpec(levels=1), seed=49)
    images, identities = two_identity_images(rng, 4, net.input_size)
    sampler = PairSampler(identities, make_rng(49, "pairs"))

    def values():
        layers = [conv for conv, _ in net.stages] + [net.head]
        return [a.copy() for layer in layers
                for a in (layer.weights, layer.bias)] \
            + [np.array([comp.log_alpha, comp.beta])]

    before = values()
    cfg = TrainConfig(learning_rate=1e300, batch_size=8, seed=49)
    with pytest.raises(PyramidError, match="diverged at step 2"):
        train_network(net, comp, images, sampler, cfg, iterations=5)
    for a, b in zip(values(), before):
        assert a.tobytes() == b.tobytes()


def test_a_fit_that_raises_leaves_the_model_unchanged(tmp_path):
    """Any failure after a step was applied, not only divergence, leaves
    the parameters the fit started from."""
    spec, model, images, _ = level0_fixture(50)
    before = model_bytes(model, tmp_path, "before.bin")

    class FailingPairs(FixedPairs):
        calls = 0

        def batch(self, n):
            self.calls += 1
            if self.calls == 3:
                raise RuntimeError("pair source failed")
            return super().batch(n)

    source = FailingPairs([(0, 1, PairLabel.MATCHED),
                           (0, 4, PairLabel.UNMATCHED)])
    cfg = TrainConfig(batch_size=2, iterations_per_level=5, seed=50)
    with pytest.raises(RuntimeError, match="pair source failed"):
        train_level(model, 0, stack(images), source, cfg)
    assert source.calls == 3
    assert model_bytes(model, tmp_path, "after.bin") == before


class ListAfterOneBatch(FixedPairs):
    """A pair source whose second batch is a list of FacePairs."""

    calls = 0

    def batch(self, n):
        self.calls += 1
        pairs = super().batch(n)
        return pairs if self.calls == 1 else list(pairs)


def parameter_bytes(net, comp):
    """The bytes of every layer's weights and bias, and the comparator."""
    return ([a.tobytes() for layer in net.layers
             for a in (layer.weights, layer.bias)]
            + [(comp.log_alpha, comp.beta)])


@pytest.mark.parametrize("given", ["pair source", "val_pairs"])
@pytest.mark.parametrize("entry", ["train_level", "train_network"])
def test_pairs_that_are_not_a_pair_batch_are_a_pyramid_error(entry, given):
    """A pair source's batch, or val_pairs, that is a list of FacePairs is
    a PyramidError naming the type it got, never packed or an
    AttributeError; the fit restores the parameters it started from, also
    after a step it took."""
    _, model, images, _ = level0_fixture(51)
    triples = [(0, 1, PairLabel.MATCHED), (0, 4, PairLabel.UNMATCHED)]
    cfg = TrainConfig(batch_size=2, iterations_per_level=5, seed=51)
    if given == "pair source":
        source, extra = ListAfterOneBatch(triples), {}
    else:
        source = FixedPairs(triples)
        extra = dict(val_images=stack(images),
                     val_pairs=list(pair_batch(triples)))
    if entry == "train_level":
        net, comp = model.level_networks[0][0], model.comparators[0][0]
    else:
        net, comp = build_monolithic(PyramidSpec(levels=1), seed=51)
    before = parameter_bytes(net, comp)
    with pytest.raises(PyramidError, match="must be a PairBatch, got list"):
        if entry == "train_level":
            train_level(model, 0, stack(images), source, cfg, **extra)
        else:
            train_network(net, comp, stack(images), source, cfg, **extra)
    if given == "pair source":
        assert source.calls == 2  # one step was taken, then undone
    assert parameter_bytes(net, comp) == before


def test_shared_entry_stage_gradient_is_averaged_across_networks():
    """Two identical networks on one aliased entry stage step it exactly as
    one network does; a sum over networks would double the step."""
    rng = np.random.default_rng(27)
    images = stack(random_patches(rng, 6, 16))
    pairs = [(0, 1, PairLabel.MATCHED), (2, 3, PairLabel.MATCHED),
             (0, 4, PairLabel.UNMATCHED), (1, 5, PairLabel.UNMATCHED)]
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=4,
                      iterations_per_level=5, seed=27)

    single = build_pyramid(PyramidSpec(levels=1), seed=27)
    twin = build_pyramid(PyramidSpec(levels=1, networks_per_level=2,
                                     patch_offsets=((0, 0), (0, 0))), seed=27)
    net0 = twin.level_networks[0][0]
    twin.level_networks[0][1] = Network(
        [net0.stages[0]] + [Stage(ConvLayer(c.weights, c.bias), p)
                            for c, p in net0.stages[1:]],
        FCLayer(net0.head.weights, net0.head.bias), 16, 1)
    cmp0 = twin.comparators[0][0]
    twin.comparators[0][1] = ComparatorParams(cmp0.log_alpha, cmp0.beta)
    assert (single.stages[0].conv.weights.tobytes()
            == twin.stages[0].conv.weights.tobytes())

    train_level(single, 0, images, FixedPairs(pairs), cfg)
    train_level(twin, 0, images, FixedPairs(pairs), cfg)
    for attr in ("weights", "bias"):
        np.testing.assert_allclose(
            getattr(twin.stages[0].conv, attr),
            getattr(single.stages[0].conv, attr), rtol=1e-12)


def snapshot_all(model, tmp_path, name):
    return model_bytes(model, tmp_path, name)


def test_train_level_updates_only_its_own_blocks():
    """The set of blocks a level updates is the same size at every level."""
    spec = PyramidSpec(levels=2)
    model = build_pyramid(spec, seed=24)
    rng = np.random.default_rng(24)
    # diverse textures: near-constant images would leave both branches with
    # identical rectifier sign patterns, whose tied conv bias gradients
    # cancel.  The linear head's bias gets no update on any input: the pair
    # distance d(f1, f2) does not change when both outputs shift by the same
    # offset, so the two branches' head-bias gradients cancel exactly.
    images = stack(random_patches(rng, 6, spec.raw_data_edge()))
    identities = [0, 0, 0, 1, 1, 1]
    cfg = TrainConfig(learning_rate=0.05, batch_size=4,
                      iterations_per_level=2, seed=24)

    def collect(m):
        arrs = {}
        for l, stage in enumerate(m.stages):
            arrs[f"stage{l}.w"] = stage.conv.weights.copy()
            arrs[f"stage{l}.b"] = stage.conv.bias.copy()
        for l, nets in enumerate(m.level_networks):
            for k, net in enumerate(nets):
                for j in range(1, len(net.stages)):
                    arrs[f"L{l}n{k}c{j}.w"] = net.stages[j][0].weights.copy()
                    arrs[f"L{l}n{k}c{j}.b"] = net.stages[j][0].bias.copy()
                arrs[f"L{l}n{k}head.w"] = net.head.weights.copy()
                arrs[f"L{l}n{k}head.b"] = net.head.bias.copy()
                comp = m.comparators[l][k]
                arrs[f"L{l}n{k}cmp"] = np.array([comp.log_alpha, comp.beta])
        return arrs

    def changed_keys(before, after):
        return {k for k in before
                if not np.array_equal(before[k], after[k])}

    before = collect(model)
    sampler = PairSampler(identities, make_rng(24, "p0"))
    train_level(model, 0, images, sampler, cfg)
    mid = collect(model)
    changed0 = changed_keys(before, mid)
    assert changed0 == {"stage0.w", "stage0.b", "L0n0c1.w", "L0n0c1.b",
                        "L0n0head.w", "L0n0cmp"}

    model.stages[0].conv.frozen = True
    level1_images = preprocess_dataset(images, model.stages[0])
    sampler = PairSampler(identities, make_rng(24, "p1"))
    train_level(model, 1, level1_images, sampler, cfg)
    changed1 = changed_keys(mid, collect(model))
    assert changed1 == {"stage1.w", "stage1.b", "L1n0c1.w", "L1n0c1.b",
                        "L1n0head.w", "L1n0cmp"}
    # trained-size invariance: same number of updated blocks at every level
    assert len(changed0) == len(changed1)


def test_tied_siamese_gradient_is_sum_of_branches():
    """Finite differences on the full pair loss confirm the tying rule."""
    rng = np.random.default_rng(25)
    conv = ConvLayer.initialize(3, 1, 3, rng)
    head_w = rng.uniform(0.05, 0.2, (16 * 3, 4))
    head = FCLayer(head_w, np.full(4, 0.3))
    net = Network([Stage(conv, PoolSpec(2))], head, 10, 1)
    p1 = tensor(rng.uniform(0.2, 1.0, (10, 10, 1)))
    p2 = tensor(rng.uniform(0.2, 1.0, (10, 10, 1)))
    comp = ComparatorParams(log_alpha=0.2, beta=0.7)
    label = PairLabel.MATCHED

    def loss_with(weights):
        trial = Network([Stage(ConvLayer(weights, conv.bias), PoolSpec(2))],
                        head, 10, 1)
        v1 = network_forward(trial, p1).array
        v2 = network_forward(trial, p2).array
        return pair_loss(comparator(distance(v1, v2), comp), label)

    v1 = network_forward(net, p1).array
    v2 = network_forward(net, p2).array
    pg = pair_loss_grads([v1], [v2], [label], comp)  # a one-row batch
    g1 = network_backward(net, p1, pg.grad_v1[0])
    g2 = network_backward(net, p2, pg.grad_v2[0])
    tied = g1["conv0.weights"] + g2["conv0.weights"]

    eps = 1e-6
    w = conv.weights
    check = [(0, 0, 0, 0), (1, 2, 0, 1), (2, 1, 0, 2), (0, 2, 0, 1)]
    for idx in check:
        wp, wm = w.copy(), w.copy()
        wp[idx] += eps
        wm[idx] -= eps
        fd = (loss_with(wp) - loss_with(wm)) / (2 * eps)
        assert abs(fd - tied[idx]) / max(abs(fd), 1e-8) < 1e-4, idx


def test_siamese_symmetry_under_pair_swap():
    rng = np.random.default_rng(26)
    spec = PyramidSpec(levels=1)
    model = build_pyramid(spec, seed=26)
    net = model.level_networks[0][0]
    p1 = tensor(rng.uniform(0, 1, (16, 16, 1)))
    p2 = tensor(rng.uniform(0, 1, (16, 16, 1)))
    comp = model.comparators[0][0]
    v1 = network_forward(net, p1).array
    v2 = network_forward(net, p2).array
    a = pair_loss_grads([v1], [v2], [PairLabel.MATCHED], comp)
    b = pair_loss_grads([v2], [v1], [PairLabel.MATCHED], comp)
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.grad_v1, b.grad_v2)


# ---------------------------------------------------------------------------
# greedy training


def make_gallery(tmp_path, seed, n_id=8, n_per=4, edge=None, levels=2):
    spec = PyramidSpec(levels=levels)
    edge = edge or spec.raw_data_edge()
    index = synth_generate(n_id, n_per, edge, NuisanceConfig(), seed=seed,
                           out_dir=tmp_path / f"g{seed}")
    return spec, [load_image(r) for r in index.records]


def small_cfg(seed):
    return TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=8,
                       iterations_per_level=12, seed=seed,
                       validation_fraction=0.25)


def test_greedy_freezes_prefix_and_reports_traces(tmp_path):
    spec, dataset = make_gallery(tmp_path, seed=30)
    model = build_pyramid(spec, seed=30)
    traces = greedy_train(model, dataset, small_cfg(30))
    assert [t.level for t in traces] == [0, 1]
    assert model.stages[0].frozen
    assert not model.stages[1].frozen  # top stage trained but never consumed
    assert model.levels_trained == 2
    for t in traces:
        assert len(t.losses) == 12
        assert all(np.isfinite(t.losses))
        assert t.val_iterations == [9, 11]  # every 10th step and the last
        assert len(t.val_aucs) == 2


def test_greedy_stage_weights_fixed_once_frozen(tmp_path):
    spec, dataset = make_gallery(tmp_path, seed=31)
    cfg = small_cfg(31)
    model = build_pyramid(spec, seed=31)

    # manual drive of the same schedule greedy_train uses
    identities = [img.identity for img in dataset]
    fit_set, _ = split_identity_ids(identities, cfg.validation_fraction,
                                    derive_seed(cfg.seed, "val-split"))
    fit_imgs, fit_ids = [], []
    for img in dataset:
        if img.identity in fit_set:
            fit_imgs.append(center_crop(img, spec.raw_data_edge()))
            fit_ids.append(img.identity)
    fit_imgs = stack(fit_imgs)
    sampler = PairSampler(fit_ids, make_rng(cfg.seed, "pairs-level0"))
    train_level(model, 0, fit_imgs, sampler, cfg)
    model.stages[0].conv.frozen = True
    frozen_w = model.stages[0].conv.weights.copy()
    level1 = preprocess_dataset(fit_imgs, model.stages[0])
    sampler = PairSampler(fit_ids, make_rng(cfg.seed, "pairs-level1"))
    train_level(model, 1, level1, sampler, cfg)
    assert model.stages[0].conv.weights.tobytes() == frozen_w.tobytes()


def test_greedy_single_level_equals_manual_train_level(tmp_path):
    spec = PyramidSpec(levels=1)
    index = synth_generate(8, 4, spec.raw_data_edge(), NuisanceConfig(),
                           seed=32, out_dir=tmp_path / "d")
    dataset = [load_image(r) for r in index.records]
    cfg = small_cfg(32)

    auto = build_pyramid(spec, seed=32)
    greedy_train(auto, dataset, cfg)

    manual = build_pyramid(spec, seed=32)
    identities = [img.identity for img in dataset]
    fit_set, _ = split_identity_ids(identities, cfg.validation_fraction,
                                    derive_seed(cfg.seed, "val-split"))
    fit_imgs = stack([center_crop(img, spec.raw_data_edge())
                      for img in dataset if img.identity in fit_set])
    fit_ids = [img.identity for img in dataset if img.identity in fit_set]
    sampler = PairSampler(fit_ids, make_rng(cfg.seed, "pairs-level0"))
    train_level(manual, 0, fit_imgs, sampler, cfg)
    manual.levels_trained = 1

    assert model_bytes(auto, tmp_path, "auto.bin") == \
        model_bytes(manual, tmp_path, "manual.bin")


def test_greedy_resume_matches_uninterrupted_run(tmp_path):
    spec, dataset = make_gallery(tmp_path, seed=33)
    cfg = small_cfg(33)

    full = build_pyramid(spec, seed=33)
    greedy_train(full, dataset, cfg)

    part = build_pyramid(spec, seed=33)
    identities = [img.identity for img in dataset]
    fit_set, _ = split_identity_ids(identities, cfg.validation_fraction,
                                    derive_seed(cfg.seed, "val-split"))
    fit_imgs = stack([center_crop(img, spec.raw_data_edge())
                      for img in dataset if img.identity in fit_set])
    fit_ids = [img.identity for img in dataset if img.identity in fit_set]
    sampler = PairSampler(fit_ids, make_rng(cfg.seed, "pairs-level0"))
    train_level(part, 0, fit_imgs, sampler, cfg)
    part.levels_trained = 1
    part.stages[0].conv.frozen = True
    greedy_train(part, dataset, cfg)  # resumes at level 1

    assert model_bytes(full, tmp_path, "full.bin") == \
        model_bytes(part, tmp_path, "part.bin")


def test_greedy_train_steps_the_layers_own_arrays(tmp_path):
    """Training updates every layer's weights and bias in place: after
    greedy_train each is the ndarray object it was before, now holding
    trained values, and every network of a level still aliases that
    level's entry stage."""
    spec = PyramidSpec(levels=2, networks_per_level=2,
                       patch_offsets=((0, 0), (2, 2)))
    index = synth_generate(8, 4, spec.raw_data_edge(), NuisanceConfig(),
                           seed=34, out_dir=tmp_path / "g")
    dataset = [load_image(r) for r in index.records]
    model = build_pyramid(spec, seed=34)
    layers = [stage.conv for stage in model.stages]
    for nets in model.level_networks:
        for net in nets:
            layers += [conv for conv, _ in net.stages[1:]] + [net.head]
    arrays = [(layer.weights, layer.bias) for layer in layers]
    initial = [w.copy() for w, _ in arrays]
    greedy_train(model, dataset, small_cfg(34))
    for layer, (w, b), w0 in zip(layers, arrays, initial):
        assert layer.weights is w and layer.bias is b
        assert not np.array_equal(w, w0)
    for stage, nets in zip(model.stages, model.level_networks):
        assert all(net.stages[0][0] is stage.conv for net in nets)


def test_greedy_deterministic_end_to_end(tmp_path):
    spec, dataset = make_gallery(tmp_path, seed=34)
    a = build_pyramid(spec, seed=34)
    greedy_train(a, dataset, small_cfg(34))
    b = build_pyramid(spec, seed=34)
    greedy_train(b, dataset, small_cfg(34))
    assert model_bytes(a, tmp_path, "a.bin") == \
        model_bytes(b, tmp_path, "b.bin")


def named(pairs):
    """The positions a sequence of pairs names, ascending."""
    return np.union1d([p.first for p in pairs], [p.second for p in pairs])


def level_draws(fit_ids, cfg, level):
    """Every pair of the batches greedy_train draws for `level`, in
    order."""
    sampler = PairSampler(fit_ids, make_rng(cfg.seed, f"pairs-level{level}"))
    return [p for _ in range(cfg.iterations_per_level)
            for p in sampler.batch(cfg.batch_size)]


def split_gallery(spec, dataset, cfg):
    """greedy_train's fit and validation sides: each side's whole center
    crops, as one stacked array, and its identity list."""
    fit_set, _ = split_identity_ids([img.identity for img in dataset],
                                    cfg.validation_fraction,
                                    derive_seed(cfg.seed, "val-split"))
    sides = [[img for img in dataset if (img.identity in fit_set) == fit]
             for fit in (True, False)]
    return [(stack([center_crop(img, spec.raw_data_edge()) for img in side]),
             [img.identity for img in side]) for side in sides]


def test_greedy_corners_train_like_full_grids(tmp_path):
    """greedy_train, which holds each level's corner of the images it
    reads, writes the model, the losses and the validation AUCs that
    training every level on whole crops and whole grids of both sides
    writes.  The gallery is large enough that the batches and the
    validation pairs leave images of both sides unread."""
    spec, dataset = make_gallery(tmp_path, seed=36, n_id=24, n_per=12)
    cfg = dataclasses.replace(small_cfg(36), validation_fraction=0.5)
    auto = build_pyramid(spec, seed=36)
    auto_traces = greedy_train(auto, dataset, cfg)

    manual = build_pyramid(spec, seed=36)
    (grids, fit_ids), (val_grids, val_ids) = split_gallery(spec, dataset, cfg)
    val_pairs = PairSampler(val_ids, make_rng(cfg.seed, "val-pairs")) \
        .batch(_VAL_PAIRS)
    assert len(named(val_pairs)) < len(val_ids)
    for level in range(spec.levels):
        if level:
            manual.stages[level - 1].conv.frozen = True
            grids = preprocess_dataset(grids, manual.stages[level - 1])
            val_grids = preprocess_dataset(val_grids,
                                           manual.stages[level - 1])
        assert len(named(level_draws(fit_ids, cfg, level))) < len(fit_ids)
        sampler = PairSampler(fit_ids, make_rng(cfg.seed,
                                                f"pairs-level{level}"))
        trace = train_level(manual, level, grids, sampler, cfg,
                            val_images=val_grids, val_pairs=val_pairs)
        assert trace.losses == auto_traces[level].losses
        assert trace.val_iterations == auto_traces[level].val_iterations
        assert trace.val_aucs == auto_traces[level].val_aucs
    manual.levels_trained = spec.levels
    assert model_bytes(auto, tmp_path, "auto.bin") == \
        model_bytes(manual, tmp_path, "manual.bin")


def test_greedy_train_holds_less_than_the_gallery():
    """greedy_train keeps no copy of the raw crops and no full-size grid of
    a lower level: the peak of what it allocates stays below the gallery's
    own pixel bytes (a copy of the crops alone would reach them)."""
    spec = PyramidSpec(levels=3)
    edge = spec.raw_data_edge()
    rng = np.random.default_rng(37)
    dataset = [LabeledImage(tensor(rng.uniform(0.0, 1.0, (edge, edge, 1))),
                            identity=i // 10) for i in range(320)]
    pixel_bytes = sum(img.raster.nbytes for img in dataset)  # float64
    model = build_pyramid(spec, seed=37)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        greedy_train(model, dataset,
                     TrainConfig(iterations_per_level=2, seed=37))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.levels_trained == 3
    assert peak - start < pixel_bytes


def test_greedy_train_holds_only_the_images_it_reads():
    """With one 4-pair batch per level, greedy_train never holds a full
    level-1 grid of the gallery: a level's grids hold only the images its
    batches and the validation pairs name."""
    spec = PyramidSpec(levels=3)
    edge = spec.raw_data_edge()
    rng = np.random.default_rng(39)
    dataset = [LabeledImage(tensor(rng.uniform(0.0, 1.0, (edge, edge, 1))),
                            identity=i // 10) for i in range(320)]
    grid_bytes = 320 * spec.base_input ** 2 * spec.shared.channels * 8
    cfg = TrainConfig(batch_size=4, iterations_per_level=1, seed=39)
    # a first run pays the one-time costs, such as numpy.ma, which
    # np.unique imports on its first call (about 1 MB)
    greedy_train(build_pyramid(spec, seed=39), dataset, cfg)
    model = build_pyramid(spec, seed=39)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        greedy_train(model, dataset, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.levels_trained == 3
    assert peak - start < grid_bytes


def test_greedy_level_preprocesses_only_what_it_reads(tmp_path,
                                                     monkeypatch):
    """Each level filters and down-samples the fit images its batches name
    and the validation images the validation pairs name, each once and in
    ascending order, and no other image."""
    spec, dataset = make_gallery(tmp_path, seed=38, n_id=24, n_per=12)
    cfg = TrainConfig(batch_size=4, iterations_per_level=3, seed=38,
                      validation_fraction=0.5)
    (fit_crops, fit_ids), (val_crops, val_ids) = split_gallery(spec, dataset,
                                                               cfg)
    assert cfg.iterations_per_level * cfg.batch_size * 2 < len(fit_ids)
    calls = []

    def recording(images, *stages, **kwargs):
        calls.append(float_pixels(np.stack(images), kwargs["maxval"]))
        return preprocess_dataset(images, *stages, **kwargs)

    monkeypatch.setattr(pyramid, "preprocess_dataset", recording)
    greedy_train(build_pyramid(spec, seed=38), dataset, cfg)
    val_used = named(PairSampler(val_ids, make_rng(cfg.seed, "val-pairs"))
                     .batch(_VAL_PAIRS))
    assert len(val_used) < len(val_ids)
    assert len(calls) == 2 * spec.levels  # fit, then validation, per level
    for level in range(spec.levels):
        used = named(level_draws(fit_ids, cfg, level))
        assert len(used) < len(fit_ids)
        edge = spec.patch_edge(level)
        for got, crops, want in ((calls[2 * level], fit_crops, used),
                                 (calls[2 * level + 1], val_crops,
                                  val_used)):
            assert len(got) == len(want)
            assert np.array_equal(got, crops[want, :edge, :edge])


def test_drawn_pairs_replay_their_batches_and_no_more():
    """A level's drawn pair source hands back the sampler's batches in
    order and refuses another size or a batch past the last."""
    ids = [0, 0, 1, 1, 2, 2]
    drawn = pyramid._DrawnPairs(PairSampler(ids, make_rng(5, "p")), 4, 3)
    again = PairSampler(ids, make_rng(5, "p"))
    with pytest.raises(PyramidError, match="batch 1 of 3"):
        drawn.batch(3)
    for _ in range(3):
        assert drawn.batch(4) == again.batch(4)
    with pytest.raises(PyramidError, match="batch 4 of 4"):
        drawn.batch(4)


def test_greedy_rejects_empty_or_inconsistent(tmp_path):
    spec, dataset = make_gallery(tmp_path, seed=35)
    model = build_pyramid(spec, seed=35)
    with pytest.raises(PyramidError):
        greedy_train(model, [], small_cfg(35))
    model.levels_trained = 1  # claims progress but nothing is frozen
    with pytest.raises(PyramidError):
        greedy_train(model, dataset, small_cfg(35))


def test_greedy_names_the_training_pairs_when_the_fit_side_has_one_identity(
        tmp_path):
    """Two identities, one held out for validation: the fit side cannot
    give an unmatched pair, and the error says so."""
    spec, dataset = make_gallery(tmp_path, seed=36, n_id=2, levels=1)
    model = build_pyramid(spec, seed=36)
    with pytest.raises(PyramidError) as err:
        greedy_train(model, dataset, small_cfg(36))
    assert str(err.value) == ("cannot sample training pairs: pair sampling "
                              "needs >= 2 identities, got 1")
    assert model.levels_trained == 0


# ---------------------------------------------------------------------------
# monolithic baseline


def test_monolithic_matches_assembled_geometry():
    spec = PyramidSpec(levels=3)
    net, comp = build_monolithic(spec, seed=40)
    assert net.input_size == spec.assembled_input_edge(2) == 76
    assert len(net.stages) == 4  # 3 shared-geometry stages + template
    assert isinstance(comp, ComparatorParams)
    out = network_forward(net, tensor(np.zeros((76, 76, 1))))
    assert out.shape == (8,)


def test_train_network_runs_and_reduces_loss():
    rng = np.random.default_rng(41)
    spec = PyramidSpec(levels=1)
    net, comp = build_monolithic(spec, seed=41)
    images, identities = two_identity_images(rng, 4, net.input_size)
    sampler = PairSampler(identities, make_rng(41, "pairs"))
    cfg = TrainConfig(learning_rate=0.05, momentum=0.9, batch_size=8, seed=41)
    trace = train_network(net, comp, images, sampler, cfg, iterations=20)
    assert len(trace.losses) == 20
    assert trace.losses[-1] < trace.losses[0]


def test_train_network_time_budget_stops():
    rng = np.random.default_rng(42)
    spec = PyramidSpec(levels=1)
    net, comp = build_monolithic(spec, seed=42)
    images, identities = two_identity_images(rng, 3, net.input_size)
    sampler = PairSampler(identities, make_rng(42, "pairs"))
    cfg = TrainConfig(batch_size=4, seed=42)
    trace = train_network(net, comp, images, sampler, cfg, time_budget=0.0)
    assert trace.losses == []


def test_train_network_validation_auc_tracks_trained_net():
    rng = np.random.default_rng(43)
    net, comp = build_monolithic(PyramidSpec(levels=1), seed=43)
    images, identities = two_identity_images(rng, 4, net.input_size)
    sampler = PairSampler(identities, make_rng(43, "pairs"))
    val_images = random_patches(rng, 6, net.input_size)
    val_ids = [0, 0, 1, 1, 2, 2]
    val_pairs = pair_batch((a, b, PairLabel.MATCHED
                            if val_ids[a] == val_ids[b]
                            else PairLabel.UNMATCHED)
                           for a in range(6) for b in range(a + 1, 6))
    cfg = TrainConfig(batch_size=4, seed=43)
    trace = train_network(net, comp, images, sampler, cfg, iterations=3,
                          val_images=val_images, val_pairs=val_pairs)
    assert trace.val_iterations == [2]  # only the last of 3 steps
    assert len(trace.val_aucs) == 1
    assert all(0.0 <= v <= 1.0 for v in trace.val_aucs)

    feats = [network_forward(net, img).array for img in val_images]
    matched, unmatched = [], []
    for p in val_pairs:
        d = distance(feats[p.first], feats[p.second])
        (matched if p.label == PairLabel.MATCHED else unmatched).append(d)
    assert trace.val_aucs[-1] == auc(compute_roc(matched, unmatched))


def validation_fixture(seed):
    """A 16-edge monolith, its training gallery and pair stream, and a
    6-image validation set with every pair of it."""
    rng = np.random.default_rng(seed)
    net, comp = build_monolithic(PyramidSpec(levels=1), seed=seed)
    images, identities = two_identity_images(rng, 4, net.input_size)
    sampler = PairSampler(identities, make_rng(seed, "pairs"))
    val_images = random_patches(rng, 6, net.input_size)
    return net, comp, images, sampler, val_images, pairs_of_six()


@pytest.mark.parametrize("offset", [(0, 0), (6, 6)])
def test_gather_takes_the_bytes_of_the_stacked_slices(offset):
    """`_gather` on an array set is one take with the bytes of the stacked
    patches, C-contiguous, repeats and any order of ids included; a list
    set gives the same array."""
    rng = np.random.default_rng(5)
    images = rng.standard_normal((12, 22, 22, 8))
    images[3, 7:9] = -0.0
    ids = rng.integers(0, 12, 64)
    ox, oy = offset
    want = np.stack([images[i][oy:oy + 16, ox:ox + 16] for i in ids])
    got = pyramid._gather(images, ids, offset, 16)
    assert got.shape == (64, 16, 16, 8) and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    listed = pyramid._gather(list(images), ids.tolist(), offset, 16)
    assert listed.flags.c_contiguous
    assert listed.tobytes() == want.tobytes()


def fresh_validation_auc(net, val_images, val_pairs):
    """`_validation_auc` on `net`'s current parameters."""
    return _validation_auc(net, (0, 0), [t.array for t in val_images],
                           val_pairs, list(range(len(val_images))))


def test_validation_runs_every_tenth_step_and_after_the_last():
    """12 steps validate after steps 10 and 12 (iterations 9 and 11), and
    each AUC is the one of the parameters after that step."""
    assert _VALIDATE_EVERY == 10
    cfg = TrainConfig(batch_size=4, seed=45)
    aucs = {}
    for iterations in (10, 12):
        net, comp, images, sampler, val_images, val_pairs = \
            validation_fixture(45)
        trace = train_network(net, comp, images, sampler, cfg,
                              iterations=iterations, val_images=val_images,
                              val_pairs=val_pairs)
        assert len(trace.losses) == iterations
        assert len(trace.val_aucs) == len(trace.val_iterations)
        aucs[iterations] = trace.val_aucs, trace.val_iterations, \
            fresh_validation_auc(net, val_images, val_pairs)
    assert aucs[10][1] == [9]
    assert aucs[12][1] == [9, 11]
    # step 10 of both runs is the same step, and a fit's last validation
    # scores the parameters it ends with
    assert aucs[12][0][0] == aucs[10][0][0] == aucs[10][2]
    assert aucs[12][0][1] == aucs[12][2]


def test_time_budget_run_validates_its_final_step():
    net, comp, images, sampler, val_images, val_pairs = validation_fixture(46)
    trace = train_network(net, comp, images, sampler,
                          TrainConfig(batch_size=4, seed=46),
                          time_budget=0.5, val_images=val_images,
                          val_pairs=val_pairs)
    steps = len(trace.losses)
    assert steps >= 1
    cadence = list(range(_VALIDATE_EVERY - 1, steps, _VALIDATE_EVERY))
    assert trace.val_iterations == \
        cadence + ([steps - 1] if steps % _VALIDATE_EVERY else [])
    assert trace.val_aucs[-1] == \
        fresh_validation_auc(net, val_images, val_pairs)


def test_validation_without_a_set_records_nan_on_the_cadence():
    net, comp, images, sampler, _, _ = validation_fixture(47)
    trace = train_network(net, comp, images, sampler,
                          TrainConfig(batch_size=4, seed=47), iterations=21)
    assert trace.val_iterations == [9, 19, 20]
    assert all(np.isnan(trace.val_aucs))


def test_train_network_step_is_independent_of_chunking(monkeypatch):
    """A batch walked in one chunk or in one-pair chunks (and validation
    embedded in one or several slabs) gives the same step."""
    import pyrcnn.layers as layers

    rng = np.random.default_rng(44)
    images, _ = two_identity_images(rng, 3, 16)
    val_images = random_patches(rng, 6, 16)
    pairs = [(0, 1, PairLabel.MATCHED), (3, 4, PairLabel.MATCHED),
             (0, 3, PairLabel.UNMATCHED), (2, 5, PairLabel.UNMATCHED)]
    val_pairs = pairs_of_six()
    cfg = TrainConfig(batch_size=4, seed=44)

    def one_step():
        net, comp = build_monolithic(PyramidSpec(levels=1), seed=44)
        trace = train_network(net, comp, images, FixedPairs(pairs), cfg,
                              iterations=1, val_images=val_images,
                              val_pairs=val_pairs)
        blocks = [a for conv, _ in net.stages
                  for a in (conv.weights, conv.bias)]
        blocks += [net.head.weights, net.head.bias,
                   np.array([comp.log_alpha, comp.beta])]
        return blocks, trace

    whole, whole_trace = one_step()
    assert layers._images_per_slab(
        build_monolithic(PyramidSpec(levels=1), 44)[0]) >= 8
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 1 << 12)  # 3 images
    chunked, chunked_trace = one_step()
    for a, b in zip(whole, chunked):
        # entries whose branch gradients cancel keep a residue of order
        # 1e-19 that depends on summation order, so the tolerance also
        # scales with the block's largest entry
        np.testing.assert_allclose(b, a, rtol=1e-10,
                                   atol=1e-10 * np.abs(a).max())
    assert chunked_trace.losses == pytest.approx(whole_trace.losses,
                                                 rel=1e-12)
    assert chunked_trace.val_aucs == whole_trace.val_aucs


def test_images_per_slab_at_the_default_geometries():
    """Training chunks and validation batches are sized by this number,
    so the trained bytes of the monolith depend on it: one slab over the
    largest pre-activation map, 12*12*8 at both 16-edge levels and 72*72*8
    at the 76-edge monolith."""
    import pyrcnn.layers as layers

    pyr = build_pyramid(PyramidSpec(levels=2), seed=1)
    mono, _ = build_monolithic(PyramidSpec(levels=3), seed=1)
    assert [layers._images_per_slab(net) for net in (
        pyr.level_networks[0][0], pyr.level_networks[1][0], mono)] == \
        [113, 113, 3]


def test_forward_multiply_adds_of_the_default_pyramid():
    """Each level's network costs the same multiply-adds above level 0,
    whose entry stage reads one channel instead of 8: 249,344 / 47,744 =
    5.2x.  The budget-matched monolith costs 11.7x a level-1 network."""
    spec = PyramidSpec(levels=3)
    model = build_pyramid(spec, seed=1)
    assert [forward_multiply_adds(nets[0]) for nets in
            model.level_networks] == [47_744, 249_344, 249_344]
    assert forward_multiply_adds(build_monolithic(spec, seed=1)[0]) == \
        2_924_544


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trip_bitwise(tmp_path):
    spec = PyramidSpec(levels=2, networks_per_level=2,
                       patch_offsets=((0, 0), (4, 4)))
    model = build_pyramid(spec, seed=50)
    model.stages[0].conv.frozen = True
    model.levels_trained = 1
    model.comparators[1][1].log_alpha = 0.375
    model.comparators[1][1].beta = -2.5
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.spec == spec
    assert loaded.levels_trained == 1
    assert loaded.stages[0].frozen and not loaded.stages[1].frozen
    assert loaded.comparators[1][1].log_alpha == 0.375
    assert loaded.comparators[1][1].beta == -2.5
    save_model(loaded, tmp_path / "m2.bin")
    assert path.read_bytes() == (tmp_path / "m2.bin").read_bytes()


def test_serialization_restores_aliasing_and_forward(tmp_path):
    rng = np.random.default_rng(51)
    model = build_pyramid(PyramidSpec(levels=2), seed=51)
    save_model(model, tmp_path / "m.bin")
    loaded = load_model(tmp_path / "m.bin")
    for level in range(2):
        for net in loaded.level_networks[level]:
            assert net.stages[0][0] is loaded.stages[level].conv
    net_a = model.level_networks[0][0]
    net_b = loaded.level_networks[0][0]
    for _ in range(5):
        patch = tensor(rng.uniform(0, 1, (16, 16, 1)))
        a = network_forward(net_a, patch).array
        b = network_forward(net_b, patch).array
        assert a.tobytes() == b.tobytes()


def test_model_file_layout_is_spelled_out(tmp_path):
    """PYRCNN01, written out here without the library: the magic, the spec
    integers, then every tensor as int64 rank, int64 extents and float64
    values, in this order: each level's entry conv (weights, bias), then,
    per level and network, the template conv, the head and the comparator
    (log_alpha, beta).  Every tensor holds its own values, so a file that
    swaps two of them is caught, and a load puts each on its layer."""
    spec = PyramidSpec(levels=2, networks_per_level=2,
                       patch_offsets=((0, 0), (2, 4)))
    model = build_pyramid(spec, seed=57)
    model.stages[0].conv.frozen = True
    model.levels_trained = 1
    layers = {id(layer): layer for nets in model.level_networks
              for net in nets for layer in net.layers}.values()
    for i, layer in enumerate(layers):
        for j, array in enumerate((layer.weights, layer.bias)):
            array[...] = 2 * i + j + np.arange(array.size).reshape(
                array.shape) / 1e4
    for level, comps in enumerate(model.comparators):
        for k, comp in enumerate(comps):
            comp.log_alpha, comp.beta = -1.5 - level - k / 8, level + k / 8

    def tensor_bytes(*values):
        array = np.asarray(values if len(values) > 1 else values[0])
        return (struct.pack(f"<{1 + array.ndim}q", array.ndim, *array.shape)
                + struct.pack(f"<{array.size}d", *array.reshape(-1)))

    header = (2, 16, 2, 8,            # levels, base_input, networks, dim
              5, 8, 2, 1, 3, 16, 2,   # shared stage, template count, stage
              0, 0, 2, 4,             # patch offsets
              1, 1, 0)                # levels trained, frozen flags
    expected = [b"PYRCNN01", struct.pack(f"<{len(header)}q", *header)]
    for stage in model.stages:
        expected += [tensor_bytes(stage.conv.weights),
                     tensor_bytes(stage.conv.bias)]
    for nets, comps in zip(model.level_networks, model.comparators):
        for net, comp in zip(nets, comps):
            template, head = net.stages[1].conv, net.head
            expected += [tensor_bytes(template.weights),
                         tensor_bytes(template.bias),
                         tensor_bytes(head.weights), tensor_bytes(head.bias),
                         tensor_bytes(comp.log_alpha, comp.beta)]
    path = tmp_path / "m.bin"
    save_model(model, path)
    assert path.read_bytes() == b"".join(expected)
    loaded = load_model(path)
    assert loaded.levels_trained == 1
    assert [stage.frozen for stage in loaded.stages] == [True, False]
    for level in range(2):
        for k in range(2):
            want = model.level_networks[level][k]
            got = loaded.level_networks[level][k]
            assert got.stages[0] is loaded.stages[level]
            for a, b in zip(want.layers, got.layers):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()
            assert loaded.comparators[level][k] == \
                model.comparators[level][k]


def test_serialization_rejects_corruption(tmp_path):
    model = build_pyramid(PyramidSpec(levels=1), seed=52)
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOTMODEL" + data[8:])
    with pytest.raises(PyramidError):
        load_model(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:len(data) // 2])
    with pytest.raises(PyramidError):
        load_model(truncated)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(data + b"\x00" * 8)
    with pytest.raises(PyramidError):
        load_model(trailing)


@pytest.mark.parametrize("slot, value, problem", [
    (4, 5, r"level 0 network 0 has stages \[\(1, 1, 1, 8, 2\), .*; its "
           r"spec needs \[\(5, 5, 1, 8, 2\), "),
    (3, 5, r"level 0 network 0 has .* and 8 outputs; its spec needs .* and "
           r"5$"),
], ids=["shared kernel", "output_dim"])
def test_load_model_rejects_layers_that_disagree_with_their_spec(
        tmp_path, slot, value, problem):
    """A header rewritten to another valid spec leaves the stored layers
    a chain that still closes (1x1 kernels: 144 head inputs, where the
    rewritten 5x5 spec needs 64); the layers must match the spec."""
    spec = PyramidSpec(levels=1, shared=StageSpec(1, 8, 2))
    path = tmp_path / "m.bin"
    save_model(build_pyramid(spec, seed=54), path)
    data = path.read_bytes()
    at = 8 + 8 * slot  # past the magic
    path.write_bytes(data[:at] + _i8(value) + data[at + 8:])
    with pytest.raises(PyramidError, match=problem):
        load_model(path)


def _i8(*values):
    return np.asarray(values, dtype="<i8").tobytes()


def _f8(*values):
    return np.asarray(values, dtype="<f8").tobytes()


@pytest.mark.parametrize("last_tensor, problem", [
    (_i8(1, 3) + _f8(0.0, 1.0, 2.0), "has 3 values, expected 2"),
    (_i8(1, -2) + _f8(0.0, 1.0), "corrupt tensor shape"),
    (_i8(2, -1, -2) + _f8(0.0, 1.0), "corrupt tensor shape"),
    # 2**33 x 2**31 wraps to 0 in int64 arithmetic
    (_i8(2, 1 << 33, 1 << 31) + _f8(0.0, 1.0), "truncated"),
    # two values, but save writes a comparator as shape (2,)
    (_i8(2, 1, 2) + _f8(0.0, 1.0), "not the bytes save_model writes"),
], ids=["three comparator values", "negative extent", "two negative extents",
        "extent product past int64", "comparator shape (1, 2)"])
def test_load_model_rejects_malformed_tensor(tmp_path, last_tensor, problem):
    """The comparator tensor closes the file: rank 1, shape (2,), 2 values
    (32 bytes).  A malformed replacement is a PyramidError, never a bare
    ValueError from unpacking or reshaping."""
    path = tmp_path / "m.bin"
    save_model(build_pyramid(PyramidSpec(levels=1), seed=53), path)
    path.write_bytes(path.read_bytes()[:-32] + last_tensor)
    with pytest.raises(PyramidError, match=problem):
        load_model(path)


# one level, one network: header integers 0-7 are the spec, then 3 per
# template stage, 2 patch-offset integers, levels trained and one frozen
# flag
@pytest.mark.parametrize("template, slot, value, problem", [
    ((StageSpec(3, 16, 2),), 14, 2, "not the bytes save_model writes"),
    ((), 7, -3, "not the bytes save_model writes"),
    ((StageSpec(3, 16, 2),), 13, -1, r"-1 levels trained, outside 0\.\.1"),
    ((StageSpec(3, 16, 2),), 13, 2, r"2 levels trained, outside 0\.\.1"),
], ids=["frozen flag 2", "template count -3", "levels trained -1",
        "levels trained above levels"])
def test_load_model_refuses_headers_save_model_never_writes(
        tmp_path, template, slot, value, problem):
    """Each header reads as a model, but one whose save does not give the
    file back (a flag of 2 saves as 1, a template count of -3 as 0), or
    whose levels trained lie outside 0..levels: load accepts only the bytes
    save writes."""
    path = tmp_path / "m.bin"
    save_model(build_pyramid(PyramidSpec(levels=1, template=template),
                             seed=55), path)
    data = path.read_bytes()
    at = 8 + 8 * slot  # past the magic
    path.write_bytes(data[:at] + _i8(value) + data[at + 8:])
    with pytest.raises(PyramidError, match=problem):
        load_model(path)
