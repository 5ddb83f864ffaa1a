import math

import numpy as np
import pytest

from loss_reference import comparator, distance, logistic, pair_loss
from pyrcnn import ComparatorParams, PairLabel, pair_loss_grads
from pyrcnn.loss import PairGradients


def row(g, i=0):
    """Pair i of a batch's gradients, as scalars and (m,) vectors."""
    return PairGradients(g.loss[i], g.grad_v1[i], g.grad_v2[i],
                         g.grad_log_alpha[i], g.grad_beta[i])


def test_pair_label_values():
    assert set(PairLabel) == {PairLabel.MATCHED, PairLabel.UNMATCHED}
    assert int(PairLabel.MATCHED) == 1
    assert int(PairLabel.UNMATCHED) == -1


# ---------------------------------------------------------------------------
# distance


def test_distance_of_point_to_itself():
    assert distance([1.0, -2.0, 3.5], [1.0, -2.0, 3.5]) == 0.0


def test_distance_three_four_five():
    assert distance([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_matches_componentwise_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = rng.integers(1, 12)
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        want = math.sqrt(sum((a - b) ** 2 for a, b in zip(v1, v2)))
        np.testing.assert_allclose(distance(v1, v2), want, rtol=1e-12)


def test_distance_symmetry():
    rng = np.random.default_rng(43)
    v1, v2 = rng.standard_normal(6), rng.standard_normal(6)
    assert distance(v1, v2) == distance(v2, v1)


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        distance([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# comparator


def test_comparator_identity():
    assert comparator(2.0, ComparatorParams(log_alpha=0.0, beta=0.0)) == 2.0


def test_comparator_affine_arithmetic():
    params = ComparatorParams(log_alpha=math.log(2.0), beta=3.0)
    assert comparator(1.0, params) == pytest.approx(-1.0)


def test_comparator_decision_boundary():
    params = ComparatorParams(log_alpha=math.log(4.0), beta=2.0)
    assert comparator(2.0 / 4.0, params) == pytest.approx(0.0)


def test_alpha_always_positive():
    assert ComparatorParams(log_alpha=-50.0).alpha > 0.0
    assert ComparatorParams(log_alpha=200.0).alpha > 0.0


# ---------------------------------------------------------------------------
# loss value


def test_loss_at_zero_logit():
    assert pair_loss(0.0, PairLabel.MATCHED) == pytest.approx(math.log(2.0))
    assert pair_loss(0.0, PairLabel.UNMATCHED) == pytest.approx(math.log(2.0))


def test_loss_well_separated_unmatched_pair():
    assert pair_loss(10.0, PairLabel.UNMATCHED) == pytest.approx(
        math.log1p(math.exp(-10.0)))


def test_loss_huge_logit_no_overflow():
    assert pair_loss(1000.0, PairLabel.MATCHED) == pytest.approx(1000.0)
    assert pair_loss(-1000.0, PairLabel.UNMATCHED) == pytest.approx(1000.0)
    loss = pair_loss(-1000.0, PairLabel.MATCHED)
    assert 0.0 <= loss < 1e-300 or loss == 0.0


def test_loss_positive_for_finite_logits():
    for D in [-30.0, -1.0, 0.0, 0.5, 7.0, 30.0]:
        assert pair_loss(D, PairLabel.MATCHED) > 0.0
        assert pair_loss(D, PairLabel.UNMATCHED) > 0.0


def test_loss_monotone_in_distance():
    params = ComparatorParams(log_alpha=0.3, beta=1.0)
    dists = np.linspace(0.0, 6.0, 25)
    matched = [pair_loss(comparator(d, params), PairLabel.MATCHED)
               for d in dists]
    unmatched = [pair_loss(comparator(d, params), PairLabel.UNMATCHED)
                 for d in dists]
    assert all(b > a for a, b in zip(matched, matched[1:]))
    assert all(b < a for a, b in zip(unmatched, unmatched[1:]))


def test_logistic_matches_definition_and_saturates():
    for x in [-3.0, -0.5, 0.0, 0.5, 3.0]:
        assert logistic(x) == pytest.approx(1.0 / (1.0 + math.exp(-x)))
    assert logistic(-800.0) == 0.0
    assert logistic(800.0) == 1.0


# ---------------------------------------------------------------------------
# gradients


def test_grads_at_zero_logit_hand_computed():
    # v1=(3,4), v2=(0,0): d=5; alpha=1, beta=5 puts the logit at zero,
    # where dL/dD = 1/2 for a matched pair.
    params = ComparatorParams(log_alpha=0.0, beta=5.0)
    g = row(pair_loss_grads([[3.0, 4.0]], [[0.0, 0.0]], [PairLabel.MATCHED],
                           params))
    assert g.loss == pytest.approx(math.log(2.0))
    np.testing.assert_allclose(g.grad_v1, [0.3, 0.4], rtol=1e-12)
    np.testing.assert_allclose(g.grad_v2, [-0.3, -0.4], rtol=1e-12)
    assert g.grad_log_alpha == pytest.approx(2.5)
    assert g.grad_beta == pytest.approx(-0.5)


def test_grads_match_finite_differences():
    rng = np.random.default_rng(77)
    eps = 1e-6
    cases = 0
    while cases < 12:
        n = int(rng.integers(2, 9))
        v1 = rng.standard_normal(n)
        v2 = rng.standard_normal(n)
        if distance(v1, v2) <= 0.1:
            continue
        cases += 1
        label = PairLabel.MATCHED if rng.integers(2) else PairLabel.UNMATCHED
        params = ComparatorParams(log_alpha=float(rng.normal(0, 0.5)),
                                  beta=float(rng.normal(1, 0.5)))
        g = row(pair_loss_grads([v1], [v2], [label], params))

        def loss_at(a, b, la, be):
            p = ComparatorParams(log_alpha=la, beta=be)
            return pair_loss(comparator(distance(a, b), p), label)

        for i in range(n):
            step = np.zeros(n)
            step[i] = eps
            fd = (loss_at(v1 + step, v2, params.log_alpha, params.beta)
                  - loss_at(v1 - step, v2, params.log_alpha, params.beta)) \
                / (2 * eps)
            assert abs(fd - g.grad_v1[i]) / max(abs(fd), 1e-8) < 1e-5
            fd2 = (loss_at(v1, v2 + step, params.log_alpha, params.beta)
                   - loss_at(v1, v2 - step, params.log_alpha, params.beta)) \
                / (2 * eps)
            assert abs(fd2 - g.grad_v2[i]) / max(abs(fd2), 1e-8) < 1e-5
        fd_la = (loss_at(v1, v2, params.log_alpha + eps, params.beta)
                 - loss_at(v1, v2, params.log_alpha - eps, params.beta)) \
            / (2 * eps)
        assert abs(fd_la - g.grad_log_alpha) / max(abs(fd_la), 1e-8) < 1e-5
        fd_be = (loss_at(v1, v2, params.log_alpha, params.beta + eps)
                 - loss_at(v1, v2, params.log_alpha, params.beta - eps)) \
            / (2 * eps)
        assert abs(fd_be - g.grad_beta) / max(abs(fd_be), 1e-8) < 1e-5


def test_grads_at_zero_distance():
    # coincident features: the norm's subgradient is taken as zero, and the
    # remaining beta gradient reduces to -delta * sigma(-delta * beta)
    # (verified against finite differences, which stay smooth in beta).
    v = [0.25, -1.0, 2.0]
    for label in (PairLabel.MATCHED, PairLabel.UNMATCHED):
        for beta in (0.5, 1.0, 2.0):
            params = ComparatorParams(log_alpha=0.4, beta=beta)
            g = row(pair_loss_grads([v], [v], [label], params))
            np.testing.assert_array_equal(g.grad_v1, np.zeros(3))
            np.testing.assert_array_equal(g.grad_v2, np.zeros(3))
            assert g.grad_log_alpha == 0.0
            delta = float(label)
            want = -delta * logistic(-delta * beta)
            assert g.grad_beta == pytest.approx(want, rel=1e-12)
            eps = 1e-6
            fd = (pair_loss(-(beta + eps), label)
                  - pair_loss(-(beta - eps), label)) / (2 * eps)
            assert g.grad_beta == pytest.approx(fd, rel=1e-6)


def test_grads_length_mismatch():
    with pytest.raises(ValueError):
        pair_loss_grads([[1.0]], [[1.0, 2.0]], [PairLabel.MATCHED],
                        ComparatorParams())


def test_grads_take_rows_not_single_vectors():
    """One pair is a one-row batch; two bare vectors are an error, never
    read as one pair."""
    with pytest.raises(ValueError, match=r"\(n, m\) row arrays"):
        pair_loss_grads([1.0, 2.0], [1.0, 3.0], PairLabel.MATCHED,
                        ComparatorParams())


def test_loss_symmetric_in_pair_order():
    rng = np.random.default_rng(78)
    v1, v2 = rng.standard_normal(5), rng.standard_normal(5)
    params = ComparatorParams(log_alpha=0.2, beta=0.8)
    for label in (PairLabel.MATCHED, PairLabel.UNMATCHED):
        a = row(pair_loss_grads([v1], [v2], [label], params))
        b = row(pair_loss_grads([v2], [v1], [label], params))
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.grad_v1, b.grad_v2)


def scored_alone(v1, v2, label, params):
    """The per-pair reference: loss and gradients from the scalar distance,
    comparator, logistic and pair_loss, in their order of operations."""
    d = distance(v1, v2)
    D = comparator(d, params)
    dL_dD = float(label) * logistic(float(label) * D)
    grad_v1 = dL_dD * params.alpha * ((v1 - v2) / d) if d > 0.0 \
        else np.zeros_like(v1)
    return (pair_loss(D, label), grad_v1, -grad_v1, dL_dD * d * params.alpha,
            -dL_dD)


def test_rows_are_the_bits_of_pairs_scored_one_at_a_time():
    """One call on (n, m) rows, and a call on each pair's one-row batch,
    give every pair's loss and gradients with the bits of the per-pair
    reference, coincident and saturated pairs included."""
    rng = np.random.default_rng(79)
    v1 = rng.standard_normal((32, 8))
    v2 = rng.standard_normal((32, 8))
    v2[3] = v1[3]                 # zero distance
    v1[5] *= 400.0                # a logit far in the tail
    labels = [PairLabel.MATCHED if rng.integers(2) else PairLabel.UNMATCHED
              for _ in range(32)]
    params = ComparatorParams(log_alpha=0.3, beta=1.2)
    rows = pair_loss_grads(v1, v2, labels, params)
    assert rows.loss.shape == rows.grad_beta.shape == (32,)
    assert rows.grad_v1.shape == (32, 8)
    for i, label in enumerate(labels):
        loss, g1, g2, g_la, g_be = scored_alone(v1[i], v2[i], label, params)
        one = pair_loss_grads(v1[i:i + 1], v2[i:i + 1], [label], params)
        assert one.loss.shape == (1,) and one.grad_v1.shape == (1, 8)
        for got in (row(one), row(rows, i)):
            assert got.loss == loss
            assert got.grad_log_alpha == g_la
            assert got.grad_beta == g_be
            assert got.grad_v1.tobytes() == g1.tobytes()
            assert got.grad_v2.tobytes() == g2.tobytes()


def test_rows_need_one_label_each():
    with pytest.raises(ValueError):
        pair_loss_grads(np.zeros((3, 2)), np.ones((3, 2)),
                        [PairLabel.MATCHED] * 2, ComparatorParams())
