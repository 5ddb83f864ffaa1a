"""Kernel probe: per-call time of pyrcnn's public per-image ops.

Each op runs at every stage geometry the three workloads reach with the
default 3-level pyramid (5x5/8-channel shared stage, one 3x3/16-channel
template stage, 8-d head).  A geometry is named by the op's input:
``e<edge>c<channels>``, or ``fc<d_in>`` for the head.

    e16c1  level-0 subnet input (greedy training, 16-edge patches)
    e16c8  level-1/2 subnet input (greedy training, extract's last step)
    e6c8   template stage input inside every subnet
    e76c1  raw 76-edge crop (extract's first stage, the monolith)
    e36c8  36-edge map (extract's second stage, inside the monolith)
    fc64   head input

Reported value: median microseconds per call, after warm-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# geometry -> (input edge, in channels, kernel, out channels, pool)
CONV_GEOMS = {
    "e16c1": (16, 1, 5, 8, 2),
    "e16c8": (16, 8, 5, 8, 2),
    "e6c8": (6, 8, 3, 16, 2),
    "e76c1": (76, 1, 5, 8, 2),
    "e36c8": (36, 8, 5, 8, 2),
}
NET_GEOMS = ("e16c1", "e16c8", "e76c1")
FC_GEOM = "fc64"


def metric_names() -> list[str]:
    names = []
    for g in CONV_GEOMS:
        names += [f"layers.kernel.conv_fwd.{g}_us", f"layers.kernel.pool_fwd.{g}_us"]
    names.append(f"layers.kernel.fc_fwd.{FC_GEOM}_us")
    for g in NET_GEOMS:
        names += [f"layers.kernel.net_fwd.{g}_us", f"layers.kernel.net_bwd.{g}_us"]
    return names


def _median_us(fn, budget_s: float) -> float:
    for _ in range(3):
        fn()
    t0 = time.perf_counter()
    fn()
    first = max(time.perf_counter() - t0, 1e-7)
    reps = max(20, min(2000, int(budget_s / first)))
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e6


def run_probe(seed: int, budget_s: float = 0.1) -> dict[str, float]:
    from pyrcnn import (ConvLayer, FCLayer, PoolSpec, PyramidSpec, Tensor,
                        activation, build_monolithic, build_pyramid,
                        conv_forward, fc_forward, maxpool, network_backward,
                        network_forward)

    rng = np.random.default_rng(seed)

    def image(edge, channels):
        return Tensor.from_array(rng.uniform(0.0, 1.0, (edge, edge, channels)))

    out: dict[str, float] = {}
    for g, (edge, cin, k, cout, pool) in CONV_GEOMS.items():
        conv = ConvLayer.initialize(k, cin, cout, rng)
        x = image(edge, cin)
        spec = PoolSpec(pool)
        act = activation(conv_forward(x, conv))
        out[f"layers.kernel.conv_fwd.{g}_us"] = _median_us(
            lambda: conv_forward(x, conv), budget_s)
        out[f"layers.kernel.pool_fwd.{g}_us"] = _median_us(
            lambda: maxpool(act, spec), budget_s)

    head = FCLayer.initialize(64, 8, rng)
    flat = image(2, 16)
    out[f"layers.kernel.fc_fwd.{FC_GEOM}_us"] = _median_us(
        lambda: fc_forward(flat, head), budget_s)

    pyr = build_pyramid(PyramidSpec(levels=2), seed)
    mono, _ = build_monolithic(PyramidSpec(levels=3), seed)
    nets = {"e16c1": pyr.level_networks[0][0],
            "e16c8": pyr.level_networks[1][0], "e76c1": mono}
    for g in NET_GEOMS:
        net = nets[g]
        x = image(net.input_size, net.in_channels)
        grad = rng.standard_normal(net.output_dim)
        out[f"layers.kernel.net_fwd.{g}_us"] = _median_us(
            lambda: network_forward(net, x), budget_s)
        out[f"layers.kernel.net_bwd.{g}_us"] = _median_us(
            lambda: network_backward(net, x, grad), budget_s)
    return out
