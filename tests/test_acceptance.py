"""Desk-scale acceptance checks, one test per headline property.

These run the whole engine end to end on synthetic galleries: gradient
soundness, layer-sharing equivalence, identity-preserving learning on
held-out identities, the greedy-vs-monolithic budget-matched comparison,
evaluator exactness against brute-force counting oracles, million-pair
throughput, byte-level determinism, and multi-network stage sharing.
Expect a few minutes of wall-clock time; every test prints a one-line
verdict with its measured numbers.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from loss_reference import comparator, distance, pair_loss
from pyrcnn import (ComparatorParams, ConvLayer, FCLayer, Network,
                    NuisanceConfig, PairLabel, PairSampler, PoolSpec,
                    PyramidSpec, Stage, Tensor, TrainConfig, assemble_network,
                    auc, build_monolithic, build_pyramid, center_crop,
                    evaluate_distances, extract_representations,
                    gradient_check, greedy_train, load_image, load_model,
                    network_forward, pair_loss_grads, preprocess_dataset,
                    sample_pairs, save_model, split_by_identity,
                    synth_generate, train_network)
from pyrcnn.data import float_pixels
from pyrcnn.seeding import derive_seed, make_rng

SEEDS = (101, 202, 303)


# ---------------------------------------------------------------------------
# shared experiment runs (one synth gallery + trained 3-level pyramid per
# seed, built lazily and reused by every criterion that needs one)


@dataclass
class SeedRun:
    train_images: list
    eval_images: list
    pairs: list
    model: object
    train_seconds: float


_RUNS: dict[int, SeedRun] = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def seed_run(workdir, seed):
    """48 identities x 12 images, identity-disjoint 2:1 split, greedy run."""
    if seed not in _RUNS:
        index = synth_generate(48, 12, 76, NuisanceConfig(),
                               derive_seed(seed, "synth"),
                               workdir / f"gallery{seed}")
        train_index, eval_index = split_by_identity(
            index, 1 / 3, derive_seed(seed, "holdout"))
        train_images = [load_image(rec) for rec in train_index.records]
        eval_images = [load_image(rec) for rec in eval_index.records]
        model = build_pyramid(PyramidSpec(levels=3), seed)
        started = time.perf_counter()
        greedy_train(model, train_images, TrainConfig(seed=seed))
        elapsed = time.perf_counter() - started
        pairs = sample_pairs(eval_index, 2000, derive_seed(seed,
                                                           "eval-pairs"))
        _RUNS[seed] = SeedRun(train_images, eval_images, pairs, model,
                              elapsed)
    return _RUNS[seed]


def pair_distances(vectors, pairs):
    matched, unmatched = [], []
    for pair in pairs:
        d = distance(vectors[pair.first], vectors[pair.second])
        (matched if int(pair.label) == 1 else unmatched).append(d)
    return np.asarray(matched), np.asarray(unmatched)


def heldout_auc(run, model):
    """AUC of the model's representation over the run's held-out pairs."""
    feats = [fv.values
             for fv in extract_representations(model, run.eval_images)]
    matched, unmatched = pair_distances(feats, run.pairs)
    return evaluate_distances(matched, unmatched).auc


# ---------------------------------------------------------------------------
# 1. gradient soundness


GEOMETRIES = (  # (input edge, [(kernel, out_channels, pool), ...], m)
    (8, [(3, 4, 2)], 3),
    (10, [(5, 3, 3)], 4),
    (14, [(3, 4, 2), (3, 6, 2)], 5),
    (16, [(5, 6, 2), (3, 8, 2)], 8),
    (22, [(3, 4, 2), (3, 6, 2), (3, 8, 2)], 6),
)


def random_network(rng, edge, stage_specs, m):
    stages, channels, feat = [], 1, edge
    for kernel, out_channels, pool in stage_specs:
        conv = ConvLayer.initialize(kernel, channels, out_channels, rng)
        conv.bias[:] = rng.uniform(-0.1, 0.1, out_channels)
        stages.append(Stage(conv, PoolSpec(pool)))
        channels = out_channels
        feat = (feat - kernel + 1) // pool
    d_in = feat * feat * channels
    head = FCLayer(rng.uniform(-0.5, 0.5, (d_in, m)))
    return Network(stages, head, edge, 1)


def test_criterion_1_gradient_soundness():
    started = time.perf_counter()
    worst = 0.0
    for i in range(20):
        edge, stage_specs, m = GEOMETRIES[i % len(GEOMETRIES)]
        rng = make_rng(900 + i, "gradcheck")
        net = random_network(rng, edge, stage_specs, m)
        patch = Tensor.from_array(rng.uniform(0.0, 1.0, (edge, edge, 1)))
        report = gradient_check(net, patch, epsilon=1e-5, tol=1e-4)
        assert report.passed, f"network {i} flagged: {report.flagged}"
        assert report.max_rel_error < 1e-4
        worst = max(worst, report.max_rel_error)

    eps = 1e-5
    for i in range(20):
        rng = make_rng(7000 + i, "pairloss")
        v1 = rng.uniform(-1.0, 1.0, 6)
        v2 = rng.uniform(-1.0, 1.0, 6)
        if distance(v1, v2) < 0.3:
            v2 = v2 + 0.5  # keep clear of the norm's kink at d == 0
        label = PairLabel.MATCHED if i % 2 else PairLabel.UNMATCHED
        params = ComparatorParams(log_alpha=float(rng.uniform(-0.5, 0.5)),
                                  beta=float(rng.uniform(0.0, 2.0)))
        pg = pair_loss_grads([v1], [v2], [label], params)  # one-row batch

        def loss_at(a, b, log_alpha, beta):
            d = distance(a, b)
            return pair_loss(comparator(d, ComparatorParams(log_alpha, beta)),
                             label)

        for j in range(6):
            step = np.zeros(6)
            step[j] = eps
            for analytic, lo, hi in (
                    (pg.grad_v1[0, j],
                     loss_at(v1 - step, v2, params.log_alpha, params.beta),
                     loss_at(v1 + step, v2, params.log_alpha, params.beta)),
                    (pg.grad_v2[0, j],
                     loss_at(v1, v2 - step, params.log_alpha, params.beta),
                     loss_at(v1, v2 + step, params.log_alpha, params.beta))):
                fd = (hi - lo) / (2.0 * eps)
                rel = abs(analytic - fd) / max(abs(fd), 1e-6)
                assert rel < 1e-4
                worst = max(worst, rel)
        for analytic, lo, hi in (
                (pg.grad_log_alpha[0],
                 loss_at(v1, v2, params.log_alpha - eps, params.beta),
                 loss_at(v1, v2, params.log_alpha + eps, params.beta)),
                (pg.grad_beta[0],
                 loss_at(v1, v2, params.log_alpha, params.beta - eps),
                 loss_at(v1, v2, params.log_alpha, params.beta + eps))):
            fd = (hi - lo) / (2.0 * eps)
            rel = abs(analytic - fd) / max(abs(fd), 1e-6)
            assert rel < 1e-4
            worst = max(worst, rel)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 1 PASS: 20 networks + 20 pair-loss draws FD-verified, "
          f"max rel error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. layer-sharing equivalence


def test_criterion_2_layer_sharing_equivalence(workdir):
    run = seed_run(workdir, 101)
    model = run.model
    assembled = assemble_network(model, 2, 0)
    rng = np.random.default_rng(0xACE2)
    inputs = [Tensor.from_array(rng.uniform(0.0, 1.0, (76, 76, 1)))
              for _ in range(100)]
    grids = np.stack([image.array for image in inputs])
    for stage in model.stages[:2]:
        grids = preprocess_dataset(grids, stage)
    top = model.level_networks[2][0]
    worst = 0.0
    for image, grid in zip(inputs, grids):
        deep = network_forward(assembled, image).array
        stagewise = network_forward(top, Tensor.from_array(grid)).array
        worst = max(worst, float(np.max(np.abs(deep - stagewise))))
    assert worst < 1e-9
    print(f"criterion 2 PASS: assembled vs stagewise max abs diff "
          f"{worst:.2e} over 100 images")


# ---------------------------------------------------------------------------
# 3. identity-preserving learning on held-out identities


def test_criterion_3_identity_preserving_learning(workdir):
    run = seed_run(workdir, 101)
    assert len({im.identity for im in run.train_images}) == 32
    assert len({im.identity for im in run.eval_images}) == 16
    assert run.train_seconds < 600.0

    deep = [fv.values
            for fv in extract_representations(run.model, run.eval_images)]
    matched, unmatched = pair_distances(deep, run.pairs)
    deep_auc = evaluate_distances(matched, unmatched).auc
    deep_acc = evaluate_distances(matched, unmatched).accuracy

    raw = [float_pixels(im.raster, im.maxval).reshape(-1)
           for im in run.eval_images]
    raw_auc = evaluate_distances(*pair_distances(raw, run.pairs)).auc

    assert deep_auc >= 0.90
    assert deep_acc >= 0.80
    assert deep_auc - raw_auc >= 0.05
    print(f"criterion 3 PASS: held-out auc {deep_auc:.4f} "
          f"accuracy {deep_acc:.4f} raw-pixel auc {raw_auc:.4f} "
          f"(train {run.train_seconds:.1f}s)")


# ---------------------------------------------------------------------------
# 4. greedy training beats a budget-matched monolithic run


def test_criterion_4_greedy_training_benefit(workdir):
    pyramid_aucs, monolith_aucs, monolith_steps = [], [], []
    for seed in SEEDS:
        run = seed_run(workdir, seed)
        pyramid_aucs.append(heldout_auc(run, run.model))

        mono, comp = build_monolithic(PyramidSpec(levels=3), seed)
        tensors = [center_crop(im, mono.input_size)
                   for im in run.train_images]
        sampler = PairSampler([im.identity for im in run.train_images],
                              make_rng(seed, "mono-pairs"))
        trace = train_network(mono, comp, tensors, sampler,
                              TrainConfig(seed=seed),
                              time_budget=run.train_seconds)
        monolith_steps.append(len(trace.losses))
        feats = [network_forward(mono, center_crop(im, mono.input_size)).array
                 for im in run.eval_images]
        matched, unmatched = pair_distances(feats, run.pairs)
        monolith_aucs.append(evaluate_distances(matched, unmatched).auc)

    mean_pyramid = float(np.mean(pyramid_aucs))
    mean_monolith = float(np.mean(monolith_aucs))
    assert mean_pyramid >= mean_monolith
    print(f"criterion 4 PASS: mean pyramid auc {mean_pyramid:.4f} vs "
          f"budget-matched monolith {mean_monolith:.4f} after "
          f"{monolith_steps} steps over seeds {SEEDS}")


# ---------------------------------------------------------------------------
# 5. evaluator exactness against brute-force counting oracles


def counted(scores, thresholds, chunk=512):
    """count(scores < t) for every t, by direct elementwise comparison."""
    out = np.empty(len(thresholds), dtype=np.int64)
    for i in range(0, len(thresholds), chunk):
        block = thresholds[i:i + chunk, None]
        out[i:i + chunk] = (scores[None, :] < block).sum(axis=1)
    return out


def pairwise_auc(matched, unmatched, chunk=256):
    """Fraction of (matched, unmatched) pairs ranked correctly; ties half."""
    wins = ties = 0
    for i in range(0, len(matched), chunk):
        block = matched[i:i + chunk, None]
        wins += int((unmatched[None, :] > block).sum())
        ties += int((unmatched[None, :] == block).sum())
    return (wins + 0.5 * ties) / (len(matched) * len(unmatched))


def random_scores(rng, tie_heavy):
    n_matched = int(rng.integers(500, 5001))
    n_unmatched = int(rng.integers(500, 5001))
    if tie_heavy:
        matched = rng.integers(0, 40, n_matched) / 7.0
        unmatched = rng.integers(10, 60, n_unmatched) / 7.0
    else:
        matched = rng.normal(1.0, 0.6, n_matched)
        unmatched = rng.normal(2.0, 0.6, n_unmatched)
    return matched.astype(np.float64), unmatched.astype(np.float64)


def test_criterion_5_evaluator_exactness():
    for i in range(10):
        rng = make_rng(500 + i, "eval-oracle")
        matched, unmatched = random_scores(rng, tie_heavy=i % 2 == 1)
        n_m, n_u = len(matched), len(unmatched)

        curve = evaluate_distances(matched, unmatched, ()).curve
        thresholds = np.array([p.threshold for p in curve.points])
        m_less = counted(matched, thresholds)
        u_less = counted(unmatched, thresholds)
        assert np.array_equal([p.fpr for p in curve.points], u_less / n_u)
        assert np.array_equal([p.tpr for p in curve.points], m_less / n_m)

        assert abs(auc(curve) - pairwise_auc(matched, unmatched)) < 1e-9

        targets = (0.0, 0.001, 0.01, 0.1, 0.37)
        report = evaluate_distances(matched, unmatched, targets)
        accuracies = (m_less + (n_u - u_less)) / (n_m + n_u)
        thr, acc = report.accuracy_threshold, report.accuracy
        assert acc == accuracies.max()
        recounted = (int((matched < thr).sum())
                     + int((unmatched >= thr).sum())) / (n_m + n_u)
        assert recounted == acc

        assert [row[0] for row in report.tpr_points] == list(targets)
        for target, got_thr, got_fpr, got_tpr in report.tpr_points:
            feasible = u_less <= target * n_u
            want_thr = thresholds[feasible].max()
            assert got_thr == want_thr
            assert got_fpr == int((unmatched < want_thr).sum()) / n_u
            assert got_tpr == int((matched < want_thr).sum()) / n_m

    # worked example: 1000 unmatched at 1..1000, matched {0.5, 5.5, 20.5}
    ((_, thr, fpr, tpr),) = evaluate_distances(
        np.array([0.5, 5.5, 20.5]), np.arange(1.0, 1001.0), (0.01,)).tpr_points
    assert thr == 11.0 and fpr == 0.01 and tpr == 2.0 / 3.0
    print("criterion 5 PASS: roc/accuracy/tpr@fpr match counting oracles "
          "exactly on 10 instances; auc within 1e-9; worked example exact")


# ---------------------------------------------------------------------------
# 6. million-pair protocol scale


def test_criterion_6_million_pair_protocol():
    rng = make_rng(6, "million")
    unmatched = rng.normal(2.0, 0.5, 1_000_000)
    matched = rng.normal(1.0, 0.4, 10_000)
    started = time.perf_counter()
    ((_, _, achieved, tpr),) = evaluate_distances(matched, unmatched,
                                                  (0.001,)).tpr_points
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    assert achieved <= 0.001
    print(f"criterion 6 PASS: 1,000,000 unmatched distances in "
          f"{elapsed:.2f}s, achieved fpr {achieved:.6f} tpr {tpr:.4f}")


# ---------------------------------------------------------------------------
# 7. determinism and serialization


def test_criterion_7_determinism_and_serialization(workdir, tmp_path):
    run = seed_run(workdir, 101)

    # identical config + seed => byte-identical traces and model
    subset = [im for im in run.train_images if im.identity < 8]
    cfg = TrainConfig(batch_size=8, iterations_per_level=10, seed=11)

    def train_once(tag):
        model = build_pyramid(PyramidSpec(levels=2), 11)
        traces = greedy_train(model, subset, cfg)
        path = tmp_path / f"{tag}.bin"
        save_model(model, path)
        return traces, path.read_bytes()

    traces_a, bytes_a = train_once("a")
    traces_b, bytes_b = train_once("b")
    for ta, tb in zip(traces_a, traces_b):
        assert np.array(ta.losses).tobytes() == np.array(tb.losses).tobytes()
        assert np.array(ta.val_aucs).tobytes() == \
            np.array(tb.val_aucs).tobytes()
    assert bytes_a == bytes_b

    # serialize -> deserialize -> forward is bit-exact on 100 random inputs
    path = tmp_path / "pyramid.bin"
    save_model(run.model, path)
    loaded = load_model(path)
    original = assemble_network(run.model, 2, 0)
    restored = assemble_network(loaded, 2, 0)
    rng = np.random.default_rng(0xACE7)
    for _ in range(100):
        image = Tensor.from_array(rng.uniform(0.0, 1.0, (76, 76, 1)))
        a = network_forward(original, image).array
        b = network_forward(restored, image).array
        assert a.tobytes() == b.tobytes()
    print("criterion 7 PASS: retrained traces byte-identical; restored "
          "model forward bit-exact on 100 inputs")


# ---------------------------------------------------------------------------
# 8. multi-network sharing


def test_criterion_8_multi_network_sharing(workdir):
    offsets = ((0, 0), (0, 6), (6, 0), (6, 6))
    margins = []
    for seed in SEEDS:
        run = seed_run(workdir, seed)
        aucs = {}
        for label, spec in (
                ("x1", PyramidSpec(levels=2)),
                ("x4", PyramidSpec(levels=2, patch_offsets=offsets))):
            model = build_pyramid(spec, seed)
            greedy_train(model, run.train_images, TrainConfig(seed=seed))
            if label == "x4":
                for level in range(2):
                    entry = model.stages[level].conv
                    assert all(net.stages[0][0] is entry
                               for net in model.level_networks[level])
            aucs[label] = heldout_auc(run, model)
        assert aucs["x4"] >= aucs["x1"] - 0.02, f"seed {seed}: {aucs}"
        margins.append(aucs["x4"] - aucs["x1"])
    print(f"criterion 8 PASS: single storage verified; x4-minus-x1 auc "
          f"margins {[f'{m:+.4f}' for m in margins]} over seeds {SEEDS}")
