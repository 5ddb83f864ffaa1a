import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pyrcnn.layers as layers
from pyrcnn import (ConvLayer, FCLayer, Network, PoolSpec, PyramidSpec,
                    ShapeError, Stage, Tensor, TensorError, activation,
                    assemble_network, build_pyramid, conv_forward,
                    fc_forward, forward_multiply_adds, gradient_check,
                    maxpool, network_backward, network_forward)


def tensor(values):
    return Tensor.from_array(np.asarray(values, dtype=np.float64))


def stage_on_image(x, conv, spec):
    """One stage on one image, as the chained public ops: conv with bias,
    rectify, then pool."""
    return maxpool(activation(conv_forward(x, conv)), spec)


def conv_layer(weights, bias=None):
    w = np.asarray(weights, dtype=np.float64)
    if bias is None:
        bias = np.zeros(w.shape[3])
    return ConvLayer(w, bias)


def true_conv_oracle(x, w, bias):
    """Direct summation with the I[x-a, y-b, c] index convention."""
    kh, kw, c_in, c_out = w.shape
    oh, ow = x.shape[0] - kh + 1, x.shape[1] - kw + 1
    out = np.zeros((oh, ow, c_out))
    for u in range(oh):
        for v in range(ow):
            for a in range(kh):
                for b in range(kw):
                    for c in range(c_in):
                        out[u, v] += x[u + kh - 1 - a, v + kw - 1 - b, c] \
                            * w[a, b, c]
    return out + bias


def small_net(rng, n_stages=2, input_size=14):
    convs = [ConvLayer.initialize(3, 1, 4, rng),
             ConvLayer.initialize(3, 4, 6, rng)][:n_stages]
    edge, channels = input_size, 1
    stages = []
    for conv in convs:
        stages.append(Stage(conv, PoolSpec(2)))
        edge = (edge - 2) // 2
        channels = conv.out_channels
    head = FCLayer.initialize(edge * edge * channels, 5, rng)
    return Network(stages, head, input_size, 1)


def pool_order(x, s):
    """A natural (n, h, w, c) map with each row in the pool order of an
    s x s window, the layout `_conv_fwd` writes: column x = X*s + b moves
    to b*(w/s) + X."""
    n, h, w, c = x.shape
    return x.reshape(n, h, w // s, s, c).transpose(0, 1, 3, 2, 4) \
        .reshape(x.shape)


def natural_order(x, s):
    """The natural map of a pool-order one: the inverse of `pool_order`."""
    n, h, w, c = x.shape
    return x.reshape(n, h, s, w // s, c).transpose(0, 1, 3, 2, 4) \
        .reshape(x.shape)


# ---------------------------------------------------------------------------
# convolution


def test_scalar_kernel_scales():
    x = tensor([[[1], [2]], [[3], [4]]])
    layer = conv_layer(np.full((1, 1, 1, 1), 2.0))
    np.testing.assert_array_equal(conv_forward(x, layer).array[:, :, 0],
                                  [[2, 4], [6, 8]])


def test_ones_kernel_sums_windows():
    x = tensor(np.ones((3, 3, 1)))
    layer = conv_layer(np.ones((2, 2, 1, 1)))
    np.testing.assert_array_equal(conv_forward(x, layer).array[:, :, 0],
                                  np.full((2, 2), 4.0))


def test_zero_kernel_emits_bias():
    rng = np.random.default_rng(1)
    x = tensor(rng.standard_normal((5, 4, 2)))
    layer = conv_layer(np.zeros((2, 2, 2, 3)), bias=np.array([0.5, -1.0, 2.0]))
    out = conv_forward(x, layer).array
    np.testing.assert_array_equal(out, np.broadcast_to([0.5, -1.0, 2.0],
                                                       out.shape))


def test_conv_matches_index_convention_oracle():
    rng = np.random.default_rng(2024)
    for kh, kw, c_in, c_out in [(1, 1, 1, 1), (3, 3, 1, 2), (3, 2, 2, 4),
                                (2, 5, 3, 1), (4, 4, 2, 3)]:
        x = rng.standard_normal((8, 9, c_in))
        w = rng.standard_normal((kh, kw, c_in, c_out))
        b = rng.standard_normal(c_out)
        got = conv_forward(tensor(x), conv_layer(w, b)).array
        np.testing.assert_allclose(got, true_conv_oracle(x, w, b),
                                   rtol=0, atol=1e-12)


def test_ones_kernel_equals_sliding_sum():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (6, 7, 3))
    layer = conv_layer(np.ones((3, 3, 3, 1)))
    got = conv_forward(tensor(x), layer).array[:, :, 0]
    want = np.zeros((4, 5))
    for u in range(4):
        for v in range(5):
            want[u, v] = x[u:u + 3, v:v + 3, :].sum()
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv_shape_errors():
    x = tensor(np.zeros((4, 4, 2)))
    with pytest.raises(ShapeError):
        conv_forward(x, conv_layer(np.zeros((3, 3, 1, 1))))  # channel mismatch
    with pytest.raises(ShapeError):
        conv_forward(x, conv_layer(np.zeros((5, 5, 2, 1))))  # kernel too big


def test_conv_layer_validation():
    with pytest.raises(ShapeError):
        ConvLayer(np.zeros((3, 3, 1)), np.zeros(1))  # rank 3 weights
    with pytest.raises(ShapeError):
        ConvLayer(np.zeros((3, 3, 1, 2)), np.zeros(3))  # bias length


LAYER_SHAPES = [(ConvLayer, (3, 3, 1, 2)), (FCLayer, (4, 2))]


def layer_arrays(cls, shape, dtype=np.float64):
    """One array per name in `cls.names`: ones of `shape` for the
    weights, zeros of its last extent for a bias."""
    return [np.ones(shape, dtype=dtype) if name == "weights"
            else np.zeros(shape[-1]) for name in cls.names]


@pytest.mark.parametrize("cls, shape", LAYER_SHAPES)
def test_layer_owns_float64_copies_of_its_parameters(cls, shape):
    """`params` holds one float64 copy per name in `names`: a conv's
    weights and bias, the head's weights alone."""
    arrays = layer_arrays(cls, shape, dtype=np.int64)
    layer = cls(*arrays)
    for a in arrays:
        a[...] = 5
    assert len(layer.params) == len(cls.names)
    assert layer.params[0] is layer.weights
    for arr, want in zip(layer.params, layer_arrays(cls, shape)):
        assert arr.dtype == np.float64 and arr.flags.writeable
        np.testing.assert_array_equal(arr, want)


@pytest.mark.parametrize("bad, problem, cls, shape", [
    pytest.param(bad, problem, cls, shape,
                 id=f"{bad}-{problem}-{cls.__name__}-shape{i}")
    for i, (cls, shape) in enumerate(LAYER_SHAPES)
    for bad, problem in [
        ("nan weights", "finite"), ("inf weights", "finite"),
        ("-inf bias", "finite"), ("empty", "extents must be >= 1")]
    if bad.split()[-1] in cls.names + ("empty",)])
def test_layer_rejects_non_finite_or_empty_parameters(cls, shape, bad,
                                                      problem):
    arrays = layer_arrays(cls, shape)
    if bad == "empty":
        arrays = [np.ones(a.shape[:-1] + (0,)) for a in arrays]
    else:
        value, which = bad.split()
        arrays[cls.names.index(which)].flat[-1] = float(value)
    with pytest.raises(TensorError, match=problem):
        cls(*arrays)


@pytest.mark.parametrize("cls, shape", LAYER_SHAPES)
@pytest.mark.parametrize("attr", ["weights", "bias"])
def test_layer_parameters_cannot_be_replaced(cls, shape, attr):
    """A replacement would skip the constructor's checks (an int64 bias
    breaks the in-place training step); writing into the array still
    works.  A layer without the array (the head's bias) cannot be given
    one either."""
    layer = cls(*layer_arrays(cls, shape))
    if attr not in cls.names:
        with pytest.raises(AttributeError):
            setattr(layer, attr, np.zeros(shape[-1]))
        assert not hasattr(layer, attr)
        return
    owned = getattr(layer, attr)
    want = owned.copy()
    with pytest.raises(AttributeError):
        setattr(layer, attr, np.zeros(owned.shape, dtype=np.int64))
    assert getattr(layer, attr) is owned
    np.testing.assert_array_equal(owned, want)
    owned[...] = 2.0
    np.testing.assert_array_equal(getattr(layer, attr), np.full(owned.shape,
                                                                2.0))


# ---------------------------------------------------------------------------
# activation and pooling


def test_activation_clamps():
    out = activation(tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.array, [0.0, 0.0, 2.0])


def test_activation_identity_on_nonnegative_and_idempotent():
    rng = np.random.default_rng(3)
    x = tensor(np.abs(rng.standard_normal((4, 4, 2))))
    np.testing.assert_array_equal(activation(x).array, x.array)
    y = tensor(rng.standard_normal((4, 4, 2)))
    np.testing.assert_array_equal(activation(activation(y)).array,
                                  activation(y).array)


def test_conv_then_activation_matches_elementwise_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 6, 2))
    w = rng.standard_normal((3, 3, 2, 3))
    b = rng.standard_normal(3)
    got = activation(conv_forward(tensor(x), conv_layer(w, b))).array
    np.testing.assert_allclose(got, np.maximum(true_conv_oracle(x, w, b), 0),
                               atol=1e-12)


def test_maxpool_single_window():
    out = maxpool(tensor([[[1.0], [2.0]], [[3.0], [4.0]]]), PoolSpec(2))
    np.testing.assert_array_equal(out.array, [[[4.0]]])


def test_maxpool_ascending_grid():
    x = tensor(np.arange(16, dtype=np.float64).reshape(4, 4, 1))
    out = maxpool(x, PoolSpec(2)).array[:, :, 0]
    np.testing.assert_array_equal(out, [[5, 7], [13, 15]])


def test_maxpool_constant():
    x = tensor(np.full((6, 6, 2), 3.5))
    np.testing.assert_array_equal(maxpool(x, PoolSpec(3)).array,
                                  np.full((2, 2, 2), 3.5))


def test_maxpool_dominance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 9, 4))
    out = maxpool(tensor(x), PoolSpec(3)).array
    for u in range(2):
        for v in range(3):
            for c in range(4):
                window = x[3 * u:3 * u + 3, 3 * v:3 * v + 3, c]
                assert out[u, v, c] == window.max()


def test_maxpool_indivisible_names_axis():
    with pytest.raises(ShapeError) as err:
        maxpool(tensor(np.zeros((5, 4, 1))), PoolSpec(2))
    assert "axis 0" in str(err.value)


def test_per_image_ops_check_their_input_through_the_stage_walk():
    """conv_forward and maxpool report the walk's errors, naming the
    failing pool axis."""
    rng = np.random.default_rng(18)
    conv = ConvLayer.initialize(3, 2, 4, rng)
    for call, problem in [
            (lambda: conv_forward(tensor(np.zeros((4, 4, 1))), conv),
             "stage 0 expects 2 input channels but receives 1"),
            (lambda: conv_forward(tensor(np.zeros((2, 4, 2))), conv),
             "stage 0 kernel 3x3 exceeds its 2x4 input"),
            (lambda: maxpool(tensor(np.zeros((4, 5, 3))), PoolSpec(2)),
             "stage 0 pool window 2 does not divide its 4x5 feature map "
             "on axis 1"),
            (lambda: maxpool(conv_forward(tensor(np.zeros((7, 6, 2))), conv),
                             PoolSpec(2)),
             "stage 0 pool window 2 does not divide its 5x4 feature map "
             "on axis 0"),
            (lambda: conv_forward(tensor(np.zeros((6, 6))), conv),
             "conv input must be h x w x c")]:
        with pytest.raises(ShapeError, match=problem):
            call()


def test_layer_forward_is_the_composition():
    """The forward-only stage kernel on a batch (pool the unbiased map,
    then add the bias and rectify) gives each image the bits of the chained
    public ops on that image alone (bias, rectify, then pool), rectifier
    ties included."""
    rng = np.random.default_rng(6)
    for edge, kernel, c_in, c_out, window in [
            (10, 3, 1, 2, 2),
            (17, 3, 3, 4, 3),    # 3x3 windows over a 15-edge map
            (20, 5, 8, 16, 1)]:  # window 1: pooling is the identity
        x = rng.standard_normal((3, edge, edge, c_in))
        layer = conv_layer(rng.standard_normal((kernel, kernel, c_in, c_out)),
                           rng.standard_normal(c_out))
        spec = PoolSpec(window)
        fused = layers._stage_forward(x, Stage(layer, spec))
        for image, got in zip(x, fused):
            chained = stage_on_image(tensor(image), layer, spec)
            assert got.tobytes() == chained.array.tobytes()


def test_layer_forward_shape_arithmetic():
    x = np.zeros((2, 32, 32, 1))
    stage = Stage(conv_layer(np.zeros((5, 5, 1, 6))), PoolSpec(2))
    assert layers._stage_forward(x, stage).shape == (2, 14, 14, 6)
    assert stage_on_image(tensor(x[0]), *stage).shape == (14, 14, 6)


def test_layer_forward_zero_kernel_annihilates():
    x = np.random.default_rng(8).uniform(0, 1, (1, 12, 12, 1))
    stage = Stage(conv_layer(np.zeros((3, 3, 1, 2))), PoolSpec(5))
    np.testing.assert_array_equal(layers._stage_forward(x, stage),
                                  np.zeros((1, 2, 2, 2)))


# ---------------------------------------------------------------------------
# fully-connected head


def test_fc_identity_map():
    x = tensor([1.0, 2.0, 3.0])
    layer = FCLayer(np.eye(3))
    np.testing.assert_array_equal(fc_forward(x, layer).array, x.array)


def test_fc_negative_output_is_not_clipped():
    x = tensor(np.ones(4))
    weights = np.zeros((4, 3))
    weights[0] = [1.5, -2.0, 0.0]
    # the head is linear: a negative output comes back as is, not clipped
    np.testing.assert_array_equal(fc_forward(x, FCLayer(weights)).array,
                                  [1.5, -2.0, 0.0])


def test_fc_matches_dot_product_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(7)
    w = rng.standard_normal((7, 4))
    layer = FCLayer(w)
    want = np.array([float(x @ w[:, j]) for j in range(4)])
    np.testing.assert_allclose(fc_forward(tensor(x), layer).array, want,
                               atol=1e-12)


def test_fc_length_mismatch():
    layer = FCLayer(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        fc_forward(tensor(np.zeros(5)), layer)


# ---------------------------------------------------------------------------
# full network


def test_network_forward_matches_manual_composition():
    rng = np.random.default_rng(10)
    net = small_net(rng)
    patch = tensor(rng.uniform(0, 1, (14, 14, 1)))
    x = patch
    for conv, pool in net.stages:
        x = stage_on_image(x, conv, pool)
    want = fc_forward(x, net.head).array
    got = network_forward(net, patch).array
    assert got.shape == (net.output_dim,)
    np.testing.assert_array_equal(got, want)


def test_network_forward_deterministic_and_shape_checked():
    rng = np.random.default_rng(11)
    net = small_net(rng)
    patch = tensor(rng.uniform(0, 1, (14, 14, 1)))
    a = network_forward(net, patch).array
    b = network_forward(net, patch).array
    assert a.tobytes() == b.tobytes()
    with pytest.raises(ShapeError):
        network_forward(net, tensor(np.zeros((12, 14, 1))))
    with pytest.raises(ShapeError):
        network_forward(net, tensor(np.zeros((14, 14, 2))))


def test_network_shape_chain_validated():
    rng = np.random.default_rng(12)
    stage = Stage(ConvLayer.initialize(3, 1, 4, rng), PoolSpec(2))
    head = FCLayer.initialize(10, 2, rng)
    with pytest.raises(ShapeError):
        Network([stage], head, 13, 1)  # 11 not divisible by 2
    with pytest.raises(ShapeError):
        Network([stage], head, 14, 1)  # head d_in mismatch


def test_network_shape_errors_name_the_stage():
    rng = np.random.default_rng(17)
    first = Stage(ConvLayer.initialize(3, 1, 4, rng), PoolSpec(2))
    head = FCLayer.initialize(4, 2, rng)
    for second, edge, problem in [
            (Stage(ConvLayer.initialize(3, 2, 4, rng), PoolSpec(1)), 14,
             "stage 1 expects 2 input channels but receives 4"),
            (Stage(ConvLayer.initialize(7, 4, 4, rng), PoolSpec(1)), 14,
             "stage 1 kernel 7x7 exceeds its 6x6 input"),
            (Stage(ConvLayer.initialize(3, 4, 4, rng), PoolSpec(3)), 14,
             "stage 1 pool window 3 does not divide its 4x4 feature map")]:
        with pytest.raises(ShapeError, match=problem):
            Network([first, second], head, edge, 1)


def test_network_backward_zero_grad_is_zero():
    rng = np.random.default_rng(13)
    net = small_net(rng)
    patch = tensor(rng.uniform(0, 1, (14, 14, 1)))
    grads = network_backward(net, patch, np.zeros(net.output_dim))
    assert set(grads) == {"conv0.weights", "conv0.bias", "conv1.weights",
                          "conv1.bias", "head.weights"}
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_network_backward_assembled_network_has_every_layer():
    """A level's assembled network, the frozen stage below it included:
    one entry per parameter array of every layer (a conv's weights and
    bias, the head's weights), nonzero under a nonzero output gradient,
    whatever the model's training progress."""
    model = build_pyramid(PyramidSpec(levels=2), seed=14)
    model.levels_trained = 1
    net = assemble_network(model, 1, 0)
    rng = np.random.default_rng(14)
    patch = tensor(rng.uniform(0, 1, (net.input_size, net.input_size, 1)))
    grads = network_backward(net, patch, np.ones(net.output_dim))
    assert list(grads) == [f"{name}.{part}"
                           for name in ("conv0", "conv1", "conv2")
                           for part in ("weights", "bias")] + ["head.weights"]
    assert all(np.any(g) for g in grads.values())


def test_network_backward_output_grad_length_checked():
    rng = np.random.default_rng(15)
    net = small_net(rng)
    patch = tensor(rng.uniform(0, 1, (14, 14, 1)))
    with pytest.raises(ShapeError):
        network_backward(net, patch, np.ones(net.output_dim + 1))


def test_linear_head_gradient_matches_fd_tightly():
    # a network of the head alone is linear in its weights, so central
    # differences are near-exact
    rng = np.random.default_rng(16)
    w = rng.uniform(0.1, 0.5, (9, 3))
    patch = tensor(rng.uniform(0.5, 1.0, (3, 3, 1)))
    g_out = rng.standard_normal(3)

    def net_with(weights):
        return Network([], FCLayer(weights), 3, 1)

    grads = network_backward(net_with(w), patch, g_out)
    eps = 1e-6
    for i in range(9):
        for j in range(3):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += eps
            wm[i, j] -= eps
            hi = float(g_out @ network_forward(net_with(wp), patch).array)
            lo = float(g_out @ network_forward(net_with(wm), patch).array)
            fd = (hi - lo) / (2 * eps)
            assert abs(fd - grads["head.weights"][i, j]) < 1e-8


# ---------------------------------------------------------------------------
# gradient check harness


def test_gradient_check_passes_on_seeded_nets():
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        net = small_net(rng, n_stages=2 if seed % 2 else 1,
                        input_size=14 if seed % 2 else 10)
        patch = tensor(rng.uniform(0, 1, (net.input_size, net.input_size, 1)))
        report = gradient_check(net, patch, epsilon=1e-5, tol=1e-4)
        assert report.passed, (seed, report.flagged, report.max_rel_error)
        assert sum(b.checked for b in report.blocks) > 0


def test_gradient_check_flags_scaled_block(monkeypatch):
    rng = np.random.default_rng(200)
    net = small_net(rng)
    patch = tensor(rng.uniform(0, 1, (14, 14, 1)))
    real = layers._backward_cached

    def doubled(net, caches, g_out):
        grads = real(net, caches, g_out)
        grads[1] = (grads[1][0] * 2.0, grads[1][1])
        return grads

    monkeypatch.setattr(layers, "_backward_cached", doubled)
    report = gradient_check(net, patch)
    assert "conv1.weights" in report.flagged
    assert "head.weights" not in report.flagged


def test_gradient_check_has_one_block_per_parameter_array():
    """The check walks each layer's `params`: a weights and a bias block
    per conv, one weights block for the head, each covering every entry
    as checked or skipped."""
    rng = np.random.default_rng(204)
    net = small_net(rng)
    report = gradient_check(net, tensor(rng.uniform(0, 1, (14, 14, 1))))
    assert [b.name for b in report.blocks] == [
        "conv0.weights", "conv0.bias", "conv1.weights", "conv1.bias",
        "head.weights"]
    sizes = [a.size for layer in net.layers for a in layer.params]
    assert [b.checked + b.skipped for b in report.blocks] == sizes
    assert report.blocks[-1].checked == net.head.weights.size


def test_gradient_check_rejects_bad_epsilon():
    rng = np.random.default_rng(202)
    net = small_net(rng)
    with pytest.raises(ValueError):
        gradient_check(net, tensor(np.zeros((14, 14, 1))), epsilon=0.0)


def test_initialize_glorot_bounds_and_zero_bias():
    rng = np.random.default_rng(203)
    conv = ConvLayer.initialize(5, 2, 8, rng)
    limit = np.sqrt(6.0 / (5 * 5 * 2 + 5 * 5 * 8))
    assert np.abs(conv.weights).max() <= limit
    np.testing.assert_array_equal(conv.bias, np.zeros(8))
    fc = FCLayer.initialize(30, 4, rng)
    assert np.abs(fc.weights).max() <= np.sqrt(6.0 / 34)
    assert len(fc.params) == 1  # the head has no bias


# ---------------------------------------------------------------------------
# batched kernels against the per-image operations


@pytest.mark.parametrize("n_stages, input_size", [(2, 14), (1, 10), (0, 5)])
def test_forward_multiply_adds_counts_a_direct_forward(n_stages, input_size):
    """The count from geometry equals the multiplies of a direct-summation
    forward, one per term, whose output is the network's."""
    rng = np.random.default_rng(71 + n_stages)
    net = small_net(rng, n_stages, input_size)
    x = rng.uniform(0.0, 1.0, (input_size, input_size, 1))
    count, a = 0, x
    for stage in net.stages:
        w = stage.conv.weights
        kh, kw, c_in, c_out = w.shape
        pre = np.zeros((a.shape[0] - kh + 1, a.shape[1] - kw + 1, c_out))
        for u, v, z, i, j, c in itertools.product(
                *map(range, pre.shape + (kh, kw, c_in))):
            pre[u, v, z] += a[u + kh - 1 - i, v + kw - 1 - j, c] \
                * w[i, j, c, z]
            count += 1
        a = maxpool(activation(tensor(pre + stage.conv.bias)),
                    stage.pool).array
    flat, out = a.reshape(-1), np.zeros(net.head.out_dim)
    for k, m in itertools.product(range(net.head.d_in),
                                  range(net.head.out_dim)):
        out[m] += flat[k] * net.head.weights[k, m]
        count += 1
    np.testing.assert_allclose(out, network_forward(net, tensor(x)).array,
                               rtol=1e-12, atol=1e-12)
    assert forward_multiply_adds(net) == count


def geometry_net(rng, edge, channels):
    """The default pyramid's stage chain (5x5/8 then 3x3/16, pool 2) down
    to an 8-d head, at input edge `edge` with `channels` input channels."""
    stages, e, c = [], edge, channels
    while e > 16:
        stages.append(Stage(ConvLayer.initialize(5, c, 8, rng), PoolSpec(2)))
        e, c = (e - 4) // 2, 8
    stages.append(Stage(ConvLayer.initialize(5, c, 8, rng), PoolSpec(2)))
    stages.append(Stage(ConvLayer.initialize(3, 8, 16, rng), PoolSpec(2)))
    return Network(stages, FCLayer.initialize(64, 8, rng), edge, channels)


@pytest.mark.parametrize("edge, channels, n, slab", [
    (16, 8, 5, None),     # e16c8: two slabs at the default size
    (76, 1, 3, 1 << 12),  # e76c1: several images and slabs per stage
])
def test_batched_kernels_match_per_image_ops(monkeypatch, edge, channels, n,
                                             slab):
    if slab is not None:
        monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    rng = np.random.default_rng(300 + edge)
    net = geometry_net(rng, edge, channels)
    x = rng.uniform(0.0, 1.0, (n, edge, edge, channels))
    g_out = rng.standard_normal((n, net.output_dim))

    out, caches = layers._forward_cached(net, x)
    for i in range(n):
        np.testing.assert_allclose(
            out[i], network_forward(net, tensor(x[i])).array, rtol=1e-12)

    *stage_grads, (head_dw,) = layers._backward_cached(net, caches, g_out)
    per_image = [network_backward(net, tensor(x[i]), g_out[i])
                 for i in range(n)]
    got = {"head.weights": head_dw}
    for i, (dw, db) in enumerate(stage_grads):
        got[f"conv{i}.weights"], got[f"conv{i}.bias"] = dw, db
    assert set(got) == set(per_image[0])
    for name, grad in got.items():
        np.testing.assert_allclose(grad, sum(g[name] for g in per_image),
                                   rtol=1e-10)


@pytest.mark.parametrize("edge, channels", [(16, 1), (16, 8), (76, 1)])
def test_forward_rows_are_independent_of_batch_size(edge, channels):
    """The forward-only kernel gives each image the same bits alone or in a
    batch of five, and the outputs of the training kernel up to the last
    bits of the head product (a batched GEMM there, one row at a time
    here)."""
    rng = np.random.default_rng(320 + edge + channels)
    net = geometry_net(rng, edge, channels)
    x = rng.uniform(0.0, 1.0, (5, edge, edge, channels))

    batched = layers._forward(net, x)
    assert batched.shape == (5, net.output_dim)
    for i in range(5):
        alone = layers._forward(net, x[i:i + 1])[0]
        assert alone.tobytes() == batched[i].tobytes()
        assert alone.tobytes() == \
            network_forward(net, tensor(x[i])).array.tobytes()
    cached, _ = layers._forward_cached(net, x)
    np.testing.assert_allclose(batched, cached, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_stages, edge", [(2, 14), (0, 3)])
def test_backward_gives_one_gradient_pair_per_layer(n_stages, edge):
    """`_backward_cached` pairs each of `net.layers`, the stages' convs
    then the head, with one gradient per array of its `params`, shaped
    like the array: (dw, db) for a conv, (dw,) for the head."""
    rng = np.random.default_rng(330 + n_stages)
    if n_stages:
        net = small_net(rng, n_stages=n_stages, input_size=edge)
    else:
        net = Network([], FCLayer.initialize(edge * edge, 5, rng), edge, 1)
    x = rng.uniform(0.0, 1.0, (3, edge, edge, 1))
    _, caches = layers._forward_cached(net, x)
    grads = layers._backward_cached(net, caches,
                                    rng.standard_normal((3, net.output_dim)))
    assert len(net.layers) == n_stages + 1 == len(grads)
    assert net.layers[-1] is net.head
    for layer, layer_grads in zip(net.layers, grads):
        assert [g.shape for g in layer_grads] == \
            [a.shape for a in layer.params]
    assert len(grads[-1]) == 1


@pytest.mark.parametrize("edge, c_in, k, s", [
    (76, 1, 5, 2), (36, 8, 5, 2), (16, 8, 5, 2), (6, 8, 3, 2), (11, 2, 3, 3),
])
def test_inference_stage_adds_the_bias_after_the_pool(edge, c_in, k, s):
    """`_stage_forward` pools the unbiased pool-order map and adds the bias
    to the window maxima: the bits of adding it to every entry first (as
    the training kernel does) and pooling then, since rounding is monotone.
    The batches straddle zero and one image has an all-zero region, whose
    windows tie everywhere."""
    rng = np.random.default_rng(360 + edge + c_in + s)
    conv = ConvLayer.initialize(k, c_in, 8, rng)
    conv = ConvLayer(conv.weights, rng.uniform(-0.5, 0.5, 8))
    stage = Stage(conv, PoolSpec(s))
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, (3, edge, edge, c_in))
        x[1, :edge // 2] = 0.0
        biased = layers._add_bias(layers._conv_fwd(x, conv.weights, s),
                                  conv.bias)
        want = np.maximum(layers._pool(layers._windows(biased, s)), 0.0)
        assert layers._stage_forward(x, stage).tobytes() == want.tobytes()
    np.testing.assert_array_equal(
        biased, layers._conv_fwd(x, conv.weights, s) + conv.bias)


# ---------------------------------------------------------------------------
# pool routing on ties


def tie_heavy_stage(rng, s):
    """A 1x1 conv that sums two input channels, pooled s x s, over inputs
    whose pre-activation windows are full of ties: constant positive, two
    equal positive maxima, constant negative, all zero and all distinct.
    The values are exact binary fractions, so every tie is exact, and the
    two channels differ across tied entries, so where a window's gradient
    goes shows in the weight gradient."""
    n, grid = 3, 3
    pre = np.empty((n, grid * s, grid * s))
    for i in range(n):
        for u in range(grid):
            for v in range(grid):
                kind = (i * grid * grid + u * grid + v) % 5
                window = rng.permutation(s * s) * 0.25  # distinct
                if kind == 0:
                    window = np.full(s * s, 1.5)
                elif kind == 1:
                    top = rng.choice(s * s, 2, replace=False)
                    window = np.full(s * s, 0.5)
                    window[top] = 2.0
                elif kind == 2:
                    window = np.full(s * s, -1.0)
                elif kind == 3:
                    window = np.zeros(s * s)
                pre[i, u * s:u * s + s, v * s:v * s + s] = \
                    window.reshape(s, s)
    first = rng.integers(0, 4, pre.shape).astype(np.float64)
    x = np.stack([first, pre - first], axis=-1)
    conv = conv_layer(np.ones((1, 1, 2, 1)))
    head = FCLayer.initialize(grid * grid, 3, rng)
    return Network([Stage(conv, PoolSpec(s))], head, grid * s, 2), x, pre


@pytest.mark.parametrize("s", [2, 3])
def test_backward_routes_ties_like_a_first_max_argmax(s):
    """Each window's gradient reaches its first maximum in row-major order,
    the rule of an argmax over the window, and nothing where the window's
    maximum is not positive."""
    rng = np.random.default_rng(700 + s)
    net, x, pre = tie_heavy_stage(rng, s)
    g_out = rng.standard_normal((x.shape[0], net.output_dim))

    _, caches = layers._forward_cached(net, x)
    np.testing.assert_array_equal(caches[0]["pre"],
                                  pool_order(pre[..., None], s))
    (dw, db), _ = layers._backward_cached(net, caches, g_out)

    g_pool = (g_out @ net.head.weights.T).reshape(x.shape[0], 3, 3, 1)
    g_pre = np.zeros(pre.shape + (1,))
    for i, u, v in np.ndindex(g_pool.shape[:3]):
        window = pre[i, u * s:u * s + s, v * s:v * s + s].reshape(-1)
        k = int(np.argmax(window))
        if window[k] > 0:
            g_pre[i, u * s + k // s, v * s + k % s, 0] = g_pool[i, u, v, 0]
    _, dw_ref, db_ref = layers._conv_bwd(x, net.stages[0].conv.weights, g_pre,
                                         False)
    np.testing.assert_array_equal(dw, dw_ref)
    np.testing.assert_array_equal(db, db_ref)


# ---------------------------------------------------------------------------
# conv kernels against the sliding-window im2col and strided col2im scatter


def biased_conv_fwd(x, w, b, s):
    """The conv kernel in the pool order of an s x s window, with its bias
    added as every forward adds it, then put back in natural order."""
    return natural_order(layers._add_bias(layers._conv_fwd(x, w, s), b), s)


def slab_im2col(x, kh, kw):
    """(n*oh*ow, kh*kw*c) windows of an (n, h, w, c) batch, (a, b, c) order."""
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)


def slab_conv_fwd(x, w, b):
    """Reference forward: whole images per slab, one im2col per slab."""
    kh, kw, c_in, c_out = w.shape
    n, oh, ow = x.shape[0], x.shape[1] - kh + 1, x.shape[2] - kw + 1
    wf = w[::-1, ::-1].reshape(kh * kw * c_in, c_out)
    out = np.empty((n, oh, ow, c_out))
    step = layers._slab(oh * ow * kh * kw * c_in)
    for i in range(0, n, step):
        np.matmul(slab_im2col(x[i:i + step], kh, kw), wf,
                  out=out[i:i + step].reshape(-1, c_out))
    return out + b


def slab_conv_bwd(x, w, g):
    """Reference backward: per slab, dw from the slab's im2col and dx by the
    (a, b)-ordered scatter of the (m, kh*kw*c_in) column gradient."""
    kh, kw, c_in, c_out = w.shape
    n, oh, ow = g.shape[:3]
    wf = w[::-1, ::-1].reshape(kh * kw * c_in, c_out)
    dwf = np.zeros((kh * kw * c_in, c_out))
    dx = np.zeros_like(x)
    step = layers._slab(oh * ow * kh * kw * c_in)
    for i in range(0, n, step):
        gm = g[i:i + step].reshape(-1, c_out)
        dwf += slab_im2col(x[i:i + step], kh, kw).T @ gm
        dcol = (gm @ wf.T).reshape(-1, oh, ow, kh, kw, c_in)
        for a in range(kh):
            for b in range(kw):
                dx[i:i + step, a:a + oh, b:b + ow] += dcol[:, :, :, a, b]
    return dx, dwf.reshape(kh, kw, c_in, c_out)[::-1, ::-1], \
        g.sum(axis=(0, 1, 2))


def conv_case(edge, c_in, c_out, k, n):
    rng = np.random.default_rng(edge * 100 + c_in * 10 + k)
    o = edge - k + 1
    return (rng.standard_normal((n, edge, edge, c_in)),
            rng.standard_normal((k, k, c_in, c_out)),
            rng.standard_normal(c_out),
            rng.standard_normal((n, o, o, c_out)))


# (edge, c_in, c_out, k) of every conv in the default pyramid and the
# monolith, with batches that span several blocks where images are small.
# One 36-px, 8-channel image has 204,800 column entries, past the default
# slab, so its whole-image case raises the slab to hold one image.
@pytest.mark.parametrize("edge, c_in, c_out, k, n, slab", [
    (76, 1, 8, 5, 3, None),
    (36, 8, 8, 5, 3, 1 << 18),
    (16, 8, 8, 5, 9, None),
    (16, 1, 8, 5, 40, None),
    (6, 8, 16, 3, 120, None),
])
def test_conv_kernels_are_the_bits_of_the_slab_reference(
        monkeypatch, edge, c_in, c_out, k, n, slab):
    """While every block holds whole images, forward (in natural or in the
    stages' 2x2 pool order), dx and dw are the bits of the sliding-window
    im2col and strided-scatter kernels."""
    if slab is not None:
        monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    x, w, b, g = conv_case(edge, c_in, c_out, k, n)
    for s in (1, 2):
        assert biased_conv_fwd(x, w, b, s).tobytes() == \
            slab_conv_fwd(x, w, b).tobytes()
    got, want = layers._conv_bwd(x, w, g, True), slab_conv_bwd(x, w, g)
    for name, a, e in zip(("dx", "dw", "db"), got, want):
        assert a.tobytes() == e.tobytes(), name
    _, dw, db = layers._conv_bwd(x, w, g, False)
    assert dw.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("edge, c_in, c_out, k, n, slab", [
    (36, 8, 8, 5, 2, None),      # the default slab: bands of 20 and 12 rows
    (36, 8, 8, 5, 2, 7 * 6400),  # 7-row bands, a 4-row remainder
    (76, 1, 8, 5, 2, 25 * 72),   # one-row bands
    (16, 8, 8, 5, 3, 2000),      # a slab below one output row: 1-row bands
])
def test_conv_kernels_split_an_image_into_row_bands(
        monkeypatch, edge, c_in, c_out, k, n, slab):
    """When one image's columns exceed the slab, the backward's blocks are
    bands of its output rows (so are the forward's row strips in all but
    the first case): the forward rows keep their bits, and dw and dx,
    summed in another order across bands, agree to rounding."""
    if slab is not None:
        monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    x, w, b, g = conv_case(edge, c_in, c_out, k, n)
    o = edge - k + 1
    assert o * o * k * k * c_in > layers._SLAB_ELEMENTS
    for s in (1, 2):
        assert biased_conv_fwd(x, w, b, s).tobytes() == \
            slab_conv_fwd(x, w, b).tobytes()
    dx, dw, db = layers._conv_bwd(x, w, g, True)
    ref_dx, ref_dw, ref_db = slab_conv_bwd(x, w, g)
    np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)
    assert db.tobytes() == ref_db.tobytes()


def test_column_blocks_stay_within_the_slab_and_tile_the_output(monkeypatch):
    """No column block of a 36-px, 8-channel batch exceeds `_SLAB_ELEMENTS`
    (one whole image would: 32*32*5*5*8 = 204,800 entries), and the blocks
    cover every output row of every image exactly once.  Only the backward
    walks them; the forward lowers into row strips."""
    x, w, b, g = conv_case(36, 8, 8, 5, 3)
    sizes, covered = [], np.zeros((3, 32), dtype=int)
    blocks = layers._column_blocks

    def checked(x_, kh, kw):
        for i, j, r, s, col in blocks(x_, kh, kw):
            sizes.append(col.size)
            covered[i:j, r:s] += 1
            yield i, j, r, s, col

    monkeypatch.setattr(layers, "_column_blocks", checked)
    biased_conv_fwd(x, w, b, 2)
    assert not sizes
    layers._conv_bwd(x, w, g, True)
    assert 0 < max(sizes) <= layers._SLAB_ELEMENTS
    assert (covered == 1).all()


def band_conv_bwd_dx(x, w, g):
    """Reference dx with the row-wise adds of every column block: per block
    the (m, c_out) @ (c_out, c_in) product of each tap, then kh*kw adds in
    (a, b) order into shifted windows of dx, one run per output row of a
    band.  At c_in >= 2 this is how the backward built dx on every block
    before it added a band's taps as one run each."""
    kh, kw, c_in, c_out = w.shape
    ow = g.shape[2]
    wt = np.ascontiguousarray(
        w[::-1, ::-1].reshape(kh * kw, c_in, c_out).transpose(0, 2, 1))
    dx = np.zeros(x.shape)
    for i, j, r, s, _ in layers._column_blocks(x, kh, kw):
        dcol = np.matmul(g[i:j, r:s].reshape(-1, c_out), wt)
        dcol = dcol.reshape(kh, kw, j - i, s - r, ow, c_in)
        for a in range(kh):
            for b in range(kw):
                dx[i:j, r + a:s + a, b:b + ow] += dcol[a, b]
    return dx


def recording_band_taps(monkeypatch):
    """The (r, t) of every band `_add_band_taps` adds, as it adds them."""
    calls, add = [], layers._add_band_taps

    def recorded(dx, g, wt, kw, r, buf):
        assert buf.size >= g.shape[0] * dx.shape[1] * wt.size // wt.shape[1]
        calls.append((r, g.shape[0]))
        return add(dx, g, wt, kw, r, buf)

    monkeypatch.setattr(layers, "_add_band_taps", recorded)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("slab, bands", [
    (None, [(0, 20), (20, 12)]),  # the default slab, as the monolith runs
    (7 * 6400, [(0, 7), (7, 7), (14, 7), (21, 7), (28, 4)]),
    (2000, [(r, 1) for r in range(32)]),  # below one output row
])
def test_band_dx_adds_each_tap_as_one_run_with_the_bits_of_row_adds(
        monkeypatch, n, slab, bands):
    """On bands of a 36-px, 8-channel image, the backward adds each tap
    (a, b) to dx as one run over the band's rows zero-padded to the input
    width; the pad adds only +-0 to sums that start at +0, so dx is the
    bits of the row-wise adds, -0.0 gradient entries included."""
    if slab is not None:
        monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    x, w, _, g = conv_case(36, 8, 8, 5, n)
    g[:, ::3] = -0.0
    g[:, :, 1::4] *= -0.0
    calls = recording_band_taps(monkeypatch)
    dx, dw, db = layers._conv_bwd(x, w, g, True)
    assert calls == bands * n
    assert dx.tobytes() == band_conv_bwd_dx(x, w, g).tobytes()
    _, dw_only, db_only = layers._conv_bwd(x, w, g, False)
    assert dw.tobytes() == dw_only.tobytes()
    assert db.tobytes() == db_only.tobytes()


@pytest.mark.parametrize("edge, c_in, c_out, k, n, slab", [
    (6, 8, 16, 3, 64, None),    # greedy's template stage: whole images
    (36, 8, 8, 5, 2, 1 << 18),  # one whole 36-px image per block
    (76, 1, 8, 5, 2, 25 * 72),  # one-row bands on the tap path
])
def test_whole_images_and_the_tap_path_keep_the_row_adds(
        monkeypatch, edge, c_in, c_out, k, n, slab):
    """Whole-image blocks and the c_in = 1 tap path never take the padded
    band path, and keep the bits of the row-wise adds (at c_in = 1, of the
    slab reference's (m, c_out) @ (c_out, kh*kw) product)."""
    if slab is not None:
        monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    x, w, _, g = conv_case(edge, c_in, c_out, k, n)
    calls = recording_band_taps(monkeypatch)
    dx, _, _ = layers._conv_bwd(x, w, g, True)
    assert calls == []
    if c_in > 1:
        assert dx.tobytes() == band_conv_bwd_dx(x, w, g).tobytes()
    o = edge - k + 1
    if o * o * k * k * c_in <= layers._SLAB_ELEMENTS:  # whole images
        assert dx.tobytes() == slab_conv_bwd(x, w, g)[0].tobytes()


# ---------------------------------------------------------------------------
# the row-strip forward


def row_conv_fwd(x, w, b, s=1):
    """Reference forward with one GEMM per image output row, in natural
    order: that row's rows of `slab_im2col`, taken in the pool order of an
    s x s window (a copy: a reshape can leave a view of x that numpy
    multiplies without BLAS), times the flipped kernel, so each row's bits
    depend on the image alone."""
    kh, kw, c_in, c_out = w.shape
    n, oh, ow = x.shape[0], x.shape[1] - kh + 1, x.shape[2] - kw + 1
    wf = w[::-1, ::-1].reshape(kh * kw * c_in, c_out)
    order = np.arange(ow).reshape(ow // s, s).T.ravel()
    out = np.empty((n, oh, ow, c_out))
    for i in range(n):
        col = np.array(slab_im2col(x[i:i + 1], kh, kw)).reshape(oh, ow, -1)
        for r in range(oh):
            out[i, r, order] = col[r, order] @ wf
    return out + b


@st.composite
def conv_geometries(draw):
    """(x, w, b, slab, s): an (n, h, w, c_in) batch and a (kh, kw, c_in,
    c_out) kernel with edges 1-12, kernels 1-5 within them, 1-3 input
    channels, 1-6 output channels and 1-3 images, under the default slab
    or one small enough to split an image into row bands, and a pool
    window s of 1-4 that divides the output width."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kh, kw = draw(st.integers(1, min(5, h))), draw(st.integers(1, min(5, w)))
    c_in, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c_out = draw(st.integers(1, 6))
    slab = draw(st.sampled_from([layers._SLAB_ELEMENTS, 1, 60, 400]))
    ow = w - kw + 1
    s = draw(st.sampled_from([d for d in (1, 2, 3, 4) if ow % d == 0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.standard_normal((n, h, w, c_in)),
            rng.standard_normal((kh, kw, c_in, c_out)),
            rng.standard_normal(c_out), slab, s)


def _geometry(edge, k, c_in, c_out, n, slab=layers._SLAB_ELEMENTS, s=1):
    rng = np.random.default_rng(edge * 1000 + k * 100 + c_in * 10 + c_out)
    return (rng.standard_normal((n, edge, edge, c_in)),
            rng.standard_normal((k, k, c_in, c_out)),
            rng.standard_normal(c_out), slab, s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conv_geometries())
@example(_geometry(5, 5, 2, 3, 3))      # output width 1: a GEMV per row
@example(_geometry(9, 3, 3, 1, 2))      # c_out = 1: a GEMV per row
@example(_geometry(1, 1, 1, 1, 1))      # one multiply, no BLAS
@example(_geometry(12, 2, 3, 3, 3, 1))  # one-row bands over a tiny slab
@example(_geometry(12, 3, 2, 4, 2, 60, 2))  # pool order, c_out 4, bands
@example(_geometry(9, 1, 1, 6, 1, s=3))  # pool order at s = 3
def test_strip_forward_is_the_bits_of_one_gemm_per_output_row(case):
    """Over small geometries, `_conv_fwd` in pool order is bit-equal to
    `row_conv_fwd` with its rows in that order under any slab, so an
    image's map has the same bits alone, in a batch and in row bands; and
    it equals the slab reference to rounding.  Where c_out >= 4 (every
    stage of the default pyramid has 8 or 16), the order does not change
    a row's bits: un-permuted, the map is `row_conv_fwd`'s natural one.
    (It is those bits as well wherever the BLAS gives an output row the
    bits it gives the same row inside a whole slab's GEMM, as at every
    geometry of the default pyramid, which the slab-reference test above
    holds.  With GEMV, or rows past the GEMM's last full row panel, the
    two round differently, and so can a column that the pool order moves
    into or out of those tail rows when c_out <= 3.)"""
    x, w, b, slab, s = case
    with mock.patch.object(layers, "_SLAB_ELEMENTS", slab):
        got = biased_conv_fwd(x, w, b, s)
    assert got.tobytes() == row_conv_fwd(x, w, b, s).tobytes()
    if s == 1 or w.shape[3] >= 4:
        assert got.tobytes() == row_conv_fwd(x, w, b).tobytes()
    np.testing.assert_allclose(got, slab_conv_fwd(x, w, b), rtol=1e-12,
                               atol=1e-12)


@pytest.mark.parametrize("edge, c_in, k, slab", [
    (36, 8, 5, 20000),  # 11-row bands: 32 * 15 * 40 = 19,200 strip values
    (76, 1, 5, 2000),   # one-row bands: 72 * 5 * 5 = 1,800
    (16, 8, 5, 3 * 12 * 16 * 40),  # three whole images per block
])
def test_strip_blocks_stay_within_the_slab_and_tile_the_output(
        monkeypatch, edge, c_in, k, slab):
    """Under a small `_SLAB_ELEMENTS`, no block's row strips exceed it, the
    blocks cover every output row of every image exactly once, and the
    2x2 pool order keeps each row's natural bits."""
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    n, o = 4, edge - k + 1
    x, w, b, _ = conv_case(edge, c_in, 8, k, n)
    sizes, covered = [], np.zeros((n, o), dtype=int)
    blocks = layers._strip_blocks

    def checked(x_, kh, kw, pool):
        for i, j, r, s, rows in blocks(x_, kh, kw, pool):
            assert rows.shape == (j - i, s - r, o, kh * kw * c_in)
            sizes.append((j - i) * o * (s - r + kh - 1) * kw * c_in)
            covered[i:j, r:s] += 1
            yield i, j, r, s, rows

    monkeypatch.setattr(layers, "_strip_blocks", checked)
    got = biased_conv_fwd(x, w, b, 2)
    assert 0 < max(sizes) <= slab
    assert (covered == 1).all()
    assert got.tobytes() == row_conv_fwd(x, w, b).tobytes()


def window_strips(x, kh, kw, pool, i, j, r, s):
    """The row strips of output rows r:s of images i:j, filled value by
    value from a 6-D strided window view of the batch, and the (j-i, s-r,
    ow, kh*kw*c) matrix view `_strip_blocks` yields over them."""
    n, h, w, c = x.shape
    ow, k = w - kw + 1, kw * c
    sn, sh, sw, sc = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, pool, ow // pool, h, kw, c), (sn, sw, pool * sw, sh, sw, sc),
        writeable=False)
    strips = np.ascontiguousarray(win[i:j, :, :, r:s + kh - 1])
    hb, e = s - r + kh - 1, strips.itemsize
    return np.lib.stride_tricks.as_strided(
        strips, (j - i, s - r, ow, kh * k),
        (ow * hb * k * e, k * e, hb * k * e, e))


def window_columns(x, kh, kw, i, j, r, s):
    """The (m, kh*kw*c) column matrix of output rows r:s of images i:j,
    filled value by value from a 6-D strided window view of the batch."""
    n, h, w, c = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    sn, sh, sw, sc = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (n, oh, ow, kh, kw, c), (sn, sh, sw, sh, sw, sc), writeable=False)
    return np.array(win[i:j, r:s]).reshape(-1, kh * kw * c)


def laid_out(x, layout):
    """`x` as a batch a caller can pass: C-contiguous, read-only, an offset
    slice of a larger batch (as a 4-network level's crops are), a strided
    slice (every other image of one, at an offset) or Fortran-ordered."""
    if layout == "read-only":
        x = x.copy()
        x.flags.writeable = False
    elif layout == "offset":
        n, h, w, c = x.shape
        big = np.full((n, h + 6, w + 6, c), np.nan)
        big[:, 6:6 + h, :w] = x
        x = big[:, 6:6 + h, :w]
    elif layout == "strided":
        n, h, w, c = x.shape
        big = np.full((2 * n, h + 3, w + 6, c), np.nan)
        big[::2, 3:, 6:] = x
        x = big[::2, 3:, 6:]
    elif layout == "fortran":
        x = np.asfortranarray(x)
    return x


@pytest.mark.parametrize("layout", ["contiguous", "read-only", "offset",
                                    "strided", "fortran"])
@pytest.mark.parametrize("edge, c_in, slab", [
    (16, 1, 2000),   # two whole images per strip block, one-row columns
    (16, 8, 20000),  # two whole images per strip block, 8-row column bands
    (36, 8, 20000),  # row bands of both
])
def test_row_fills_copy_the_bytes_of_the_window_fill(monkeypatch, layout,
                                                     edge, c_in, slab):
    """Every block of `_strip_blocks` (in natural and 2x2 pool order) and of
    `_column_blocks` holds the bytes of the value-by-value copy from a 6-D
    window view, whatever the memory layout of the batch it reads."""
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", slab)
    x = np.random.default_rng(edge + c_in).standard_normal((4, edge, edge,
                                                            c_in))
    x[1, :3] = -0.0
    x = laid_out(x, layout)
    blocks = 0
    for pool in (1, 2):
        for i, j, r, s, rows in layers._strip_blocks(x, 5, 5, pool):
            want = window_strips(x, 5, 5, pool, i, j, r, s)
            assert rows.tobytes() == want.tobytes()
            blocks += 1
    for i, j, r, s, col in layers._column_blocks(x, 5, 5):
        want = window_columns(x, 5, 5, i, j, r, s)
        assert col.tobytes() == want.tobytes()
        blocks += 1
    assert blocks > 6


@pytest.mark.parametrize("c_out", [1, 2, 3, 8, 16])
def test_conv_bwd_db_is_the_bits_of_the_axis_sum(c_out):
    """db, one sequential pass over the gradient map where c_out >= 2, is
    byte for byte `g.sum(axis=(0, 1, 2))` on random maps of any batch up
    to 64 (the sum is numpy's pairwise order at c_out = 1, and so is db)."""
    rng = np.random.default_rng(100 + c_out)
    for _ in range(40):
        n, k, c_in = int(rng.integers(1, 65)), int(rng.choice([1, 3, 5])), \
            int(rng.choice([1, 2, 8]))
        h, w = int(rng.integers(k, 21)), int(rng.integers(k, 21))
        x = rng.standard_normal((n, h, w, c_in))
        wt = rng.standard_normal((k, k, c_in, c_out))
        g = rng.standard_normal((n, h - k + 1, w - k + 1, c_out)) \
            * 10.0 ** rng.integers(-3, 4)
        _, _, db = layers._conv_bwd(x, wt, g, False)
        assert db.tobytes() == g.sum(axis=(0, 1, 2)).tobytes()


# ---------------------------------------------------------------------------
# the pool order against the natural-order kernels


def natural_conv_fwd(x, w):
    """The row-strip forward with each image row's strips, and so its GEMM
    rows, in natural column order: one (ow, kh*kw*c_in) @ (kh*kw*c_in,
    c_out) GEMM per image output row, over a strided view of strips
    copied from a window view of the whole batch."""
    kh, kw, c_in, c_out = w.shape
    n, h, wd, _ = x.shape
    oh, ow, k = h - kh + 1, wd - kw + 1, kw * c_in
    sn, sh, sw, sc = x.strides
    strips = np.ascontiguousarray(np.lib.stride_tricks.as_strided(
        x, (n, ow, h, kw, c_in), (sn, sw, sh, sw, sc)))
    e = strips.itemsize
    rows = np.lib.stride_tricks.as_strided(
        strips, (n, oh, ow, kh * k), (ow * h * k * e, k * e, h * k * e, e))
    return np.matmul(rows, w[::-1, ::-1].reshape(kh * kw * c_in, c_out))


def natural_pool(pre, s):
    """Window maxima of a natural map: the maximum of the s*s strided
    slices pre[:, a::s, b::s], in row-major order."""
    out = pre[:, ::s, ::s].copy()
    for a, b in itertools.islice(np.ndindex(s, s), 1, None):
        np.maximum(out, pre[:, a::s, b::s], out=out)
    return out


def natural_routes(pre, pooled, s):
    """Per window position (a, b), in row-major order, the entries of the
    natural map that are their window's first maximum."""
    masks, taken = [], np.zeros(pooled.shape, dtype=bool)
    for a, b in np.ndindex(s, s):
        hit = (pre[:, a::s, b::s] == pooled) & ~taken
        taken |= hit
        masks.append(hit)
    return masks


@pytest.mark.parametrize("edge, c_in, k, c_out, s", [
    (76, 1, 5, 8, 2), (36, 8, 5, 8, 2), (16, 8, 5, 8, 2), (16, 1, 5, 8, 2),
    (6, 8, 3, 16, 2), (14, 2, 3, 8, 3),
])
def test_pool_order_keeps_the_bits_of_the_natural_kernels(
        monkeypatch, edge, c_in, k, c_out, s):
    """At every stage geometry of the default pyramid and at s = 3, the
    inference stage, the training forward's pre-activation map (put back
    in natural order), pooled map and routes, and the backward's dw, dx
    and db are the bits of the natural-order kernels.  The stage under
    test sits behind a 1x1 identity stage, so the backward computes
    its dx; one image has an all-zero region, whose windows tie."""
    rng = np.random.default_rng(900 + edge + c_in + s)
    conv = ConvLayer(rng.uniform(-0.3, 0.3, (k, k, c_in, c_out)),
                     rng.uniform(-0.5, 0.5, c_out))
    stage = Stage(conv, PoolSpec(s))
    o = (edge - k + 1) // s
    ident = Stage(conv_layer(np.eye(c_in)[None, None]), PoolSpec(1))
    net = Network([ident, stage], FCLayer.initialize(o * o * c_out, 8, rng),
                  edge, c_in)
    x = rng.uniform(0.0, 1.0, (3, edge, edge, c_in))
    x[1, :edge // 2] = 0.0

    pre = natural_conv_fwd(x, conv.weights)
    want = np.maximum(natural_pool(pre, s) + conv.bias, 0.0)
    assert layers._stage_forward(x, stage).tobytes() == want.tobytes()

    biased = pre + conv.bias
    pooled = natural_pool(biased, s)
    routes = natural_routes(biased, pooled, s)
    _, caches = layers._forward_cached(net, x)
    assert caches[1]["x"].tobytes() == x.tobytes()
    got = caches[1]
    assert natural_order(got["pre"], s).tobytes() == biased.tobytes()
    assert layers._pool(layers._windows(got["pre"], s)).tobytes() == \
        pooled.tobytes()
    assert caches[2]["flat"].tobytes() == \
        np.maximum(pooled, 0.0).reshape(3, -1).tobytes()
    assert len(got["routes"]) == s * s
    for mask, route in zip(got["routes"], routes):
        assert mask.shape == route.shape
        assert mask.tobytes() == route.tobytes()

    g_out = rng.standard_normal((3, 8))
    g = (g_out @ net.head.weights.T).reshape(pooled.shape) * (pooled > 0)
    g_pre = np.empty_like(biased)
    for (a, b), route in zip(np.ndindex(s, s), routes):
        g_pre[:, a::s, b::s] = g * route
    want_dx, want_dw, want_db = layers._conv_bwd(x, conv.weights, g_pre, True)
    seen = []
    conv_bwd = layers._conv_bwd

    def recorded(*args, **kwargs):
        seen.append(conv_bwd(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(layers, "_conv_bwd", recorded)
    grads = layers._backward_cached(net, caches, g_out)
    dx, dw, db = seen[0]
    assert dx.tobytes() == want_dx.tobytes()
    assert dw.tobytes() == want_dw.tobytes() == grads[1][0].tobytes()
    assert db.tobytes() == want_db.tobytes() == grads[1][1].tobytes()


def tie_maps(rng, n, s):
    """n random natural maps, 1-3 images of (1-4)*s x (1-4)*s x 1-8 entries
    drawn from +-0, NaN, +-inf and +-1, so most windows tie."""
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
    for _ in range(n):
        shape = (rng.integers(1, 4), rng.integers(1, 5) * s,
                 rng.integers(1, 5) * s, rng.integers(1, 9))
        yield rng.choice(values, shape)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_pool_is_the_bytes_of_the_sequential_window_maximum(s):
    """`_pool` of a pool-order map's window view is the bytes of
    `natural_pool`'s s*s `np.maximum` passes in row-major order, where
    ties between +0 and -0 keep the sign of the last tied position and NaN
    and infinities tie too."""
    rng = np.random.default_rng(40 + s)
    for x in tie_maps(rng, 300, s):
        got = layers._pool(layers._windows(pool_order(x, s), s))
        assert got.tobytes() == natural_pool(x, s).tobytes()


@pytest.mark.parametrize("s", [2, 3])
def test_maxpool_is_the_bytes_of_the_pool_order_kernel(s):
    """`maxpool` pools the natural map's window view through `_pool`: the
    bytes of reordering the map into pool order and pooling that, on
    finite maps whose windows tie between +0 and -0."""
    rng = np.random.default_rng(50 + s)
    for x in tie_maps(rng, 300, s):
        x = np.where(np.isfinite(x), x, 0.5)
        want = layers._pool(layers._windows(pool_order(x, s), s))
        for image, pooled in zip(x, want):
            got = maxpool(tensor(image), PoolSpec(s)).array
            assert got.tobytes() == pooled.tobytes()
