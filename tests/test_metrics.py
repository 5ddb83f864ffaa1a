import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loss_reference import distance
from pyrcnn import (MetricError, PairBatch, RocCurve, auc,
                    evaluate_distances, layers, metrics)


def roc(matched, unmatched):
    """The exact ROC of one matched/unmatched split, from the report."""
    return evaluate_distances(matched, unmatched, ()).curve


def operating_point(matched, unmatched, target):
    """(threshold, achieved FPR, TPR) at one target, from the report."""
    ((_, *point),) = evaluate_distances(matched, unmatched,
                                        (target,)).tpr_points
    return tuple(point)


def best_point(matched, unmatched):
    """(threshold, accuracy) of the report's best accuracy."""
    report = evaluate_distances(matched, unmatched)
    return report.accuracy_threshold, report.accuracy


def counting_roc_oracle(matched, unmatched):
    """Per-threshold counting, one comparison at a time."""
    m = np.asarray(matched, dtype=np.float64)
    u = np.asarray(unmatched, dtype=np.float64)
    thresholds = [-np.inf] + sorted(set(m) | set(u)) + [np.inf]
    points = []
    for t in thresholds:
        points.append((t,
                       float((u < t).sum()) / u.size,
                       float((m < t).sum()) / m.size))
    return points


def pairwise_auc_oracle(matched, unmatched):
    """P(matched < unmatched) over all cross pairs, ties worth half."""
    m = np.asarray(matched, dtype=np.float64)
    u = np.asarray(unmatched, dtype=np.float64)
    wins = (m[:, None] < u[None, :]).sum()
    ties = (m[:, None] == u[None, :]).sum()
    return (wins + 0.5 * ties) / (m.size * u.size)


def sweep_accuracy_oracle(matched, unmatched):
    m = np.asarray(matched, dtype=np.float64)
    u = np.asarray(unmatched, dtype=np.float64)
    best_t, best_acc = None, -1.0
    for t in [-np.inf] + sorted(set(m) | set(u)) + [np.inf]:
        acc = ((m < t).sum() + (u >= t).sum()) / (m.size + u.size)
        if acc > best_acc:
            best_t, best_acc = t, acc
    return best_t, best_acc


def tpr_oracle(matched, unmatched, target):
    """Largest observed-or-sentinel threshold with FPR <= target."""
    m = np.asarray(matched, dtype=np.float64)
    u = np.asarray(unmatched, dtype=np.float64)
    candidates = [-np.inf] + sorted(set(m) | set(u)) + [np.inf]
    feasible = [t for t in candidates if (u < t).sum() / u.size <= target]
    t = max(feasible)
    return t, (u < t).sum() / u.size, (m < t).sum() / m.size


def random_scores(rng, n_each, tie_heavy=False):
    if tie_heavy:
        matched = rng.integers(0, 40, size=n_each) / 7.0
        unmatched = rng.integers(10, 50, size=n_each) / 7.0
    else:
        matched = rng.normal(1.0, 0.6, size=n_each)
        unmatched = rng.normal(2.0, 0.6, size=n_each)
    return matched, unmatched


# ---------------------------------------------------------------------------
# the ROC curve


def test_roc_perfect_separation_has_ideal_point():
    curve = roc([1.0, 2.0], [3.0, 4.0])
    assert any(p.fpr == 0.0 and p.tpr == 1.0 for p in curve.points)


def test_roc_identical_multisets_on_diagonal():
    scores = [0.5, 1.0, 1.0, 2.0]
    curve = roc(scores, scores)
    for p in curve.points:
        assert p.fpr == p.tpr


def test_roc_matches_counting_oracle():
    rng = np.random.default_rng(31)
    for tie_heavy in (False, True):
        matched, unmatched = random_scores(rng, 500, tie_heavy)
        curve = roc(matched, unmatched)
        oracle = counting_roc_oracle(matched, unmatched)
        assert len(curve.points) == len(oracle)
        for p, (t, fpr, tpr) in zip(curve.points, oracle):
            assert p.threshold == t
            assert p.fpr == fpr
            assert p.tpr == tpr


def test_roc_monotone_along_thresholds():
    rng = np.random.default_rng(32)
    for _ in range(5):
        matched, unmatched = random_scores(rng, 200, tie_heavy=True)
        curve = roc(matched, unmatched)
        fprs, tprs = curve.fprs, curve.tprs
        assert (np.diff(fprs) >= 0).all()
        assert (np.diff(tprs) >= 0).all()
        assert fprs[0] == 0.0 and tprs[0] == 0.0
        assert fprs[-1] == 1.0 and tprs[-1] == 1.0


def test_roc_rejects_empty():
    with pytest.raises(MetricError):
        roc([], [1.0])
    with pytest.raises(MetricError):
        roc([1.0], [])


def test_metrics_reject_non_finite_distances():
    with pytest.raises(MetricError, match="matched distances must be finite"):
        evaluate_distances([np.nan, 1.0], [2.0, 3.0])
    with pytest.raises(MetricError, match="unmatched .* finite, got inf"):
        roc([1.0], [2.0, np.inf])


# ---------------------------------------------------------------------------
# auc


def test_auc_perfect_and_diagonal():
    assert auc(roc([1.0, 2.0], [3.0, 4.0])) == 1.0
    scores = [1.0, 2.0, 3.0]
    assert auc(roc(scores, scores)) == pytest.approx(0.5)


def test_auc_equals_pairwise_ranking_probability():
    rng = np.random.default_rng(33)
    for tie_heavy in (False, True):
        matched, unmatched = random_scores(rng, 200, tie_heavy)
        got = auc(roc(matched, unmatched))
        want = pairwise_auc_oracle(matched, unmatched)
        assert abs(got - want) < 1e-9


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(34)
    matched, unmatched = random_scores(rng, 150)
    base = auc(roc(matched, unmatched))
    for f in (np.exp, lambda x: 3.0 * x - 7.0, lambda x: x ** 3):
        assert auc(roc(f(matched), f(unmatched))) == \
            pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# operating points (evaluate_distances' tpr_points)


def test_tpr_worked_example():
    unmatched = np.arange(1, 1001, dtype=np.float64)
    matched = [0.5, 5.5, 20.5]
    threshold, achieved, tpr = operating_point(matched, unmatched, 0.01)
    assert threshold == 11.0
    assert achieved == 0.01
    assert tpr == pytest.approx(2.0 / 3.0)


def test_tpr_fully_separated():
    matched = [0.1, 0.2, 0.3]
    unmatched = [5.0, 6.0, 7.0, 8.0]
    for target in (0.0, 0.1, 0.5):
        _, achieved, tpr = operating_point(matched, unmatched, target)
        assert tpr == 1.0
        assert achieved <= target


def test_tpr_zero_target():
    matched = [0.5, 1.5, 3.0]
    unmatched = [1.0, 2.0, 3.0, 4.0]
    threshold, achieved, tpr = operating_point(matched, unmatched, 0.0)
    assert threshold <= 1.0
    assert achieved == 0.0
    assert tpr == pytest.approx(1.0 / 3.0)  # only 0.5 lies below


def test_tpr_matches_exhaustive_oracle():
    rng = np.random.default_rng(35)
    for _ in range(8):
        matched, unmatched = random_scores(rng, 300, tie_heavy=True)
        for target in (0.0, 0.01, 0.1, 0.37, 0.9):
            got = operating_point(matched, unmatched, target)
            want = tpr_oracle(matched, unmatched, target)
            assert got[0] == want[0]
            assert got[1] == want[1]
            assert got[2] == want[2]


def test_tpr_achieved_never_exceeds_target_and_is_monotone():
    rng = np.random.default_rng(36)
    for _ in range(5):
        matched, unmatched = random_scores(rng, 250, tie_heavy=True)
        last_tpr = -1.0
        for target in np.linspace(0.0, 0.99, 23):
            _, achieved, tpr = operating_point(matched, unmatched,
                                               float(target))
            assert achieved <= target + 1e-15
            assert tpr >= last_tpr
            last_tpr = tpr


def test_tpr_rejects_bad_target():
    with pytest.raises(MetricError):
        operating_point([1.0], [2.0], 1.0)
    with pytest.raises(MetricError):
        operating_point([1.0], [2.0], -0.1)


# ---------------------------------------------------------------------------
# best accuracy (evaluate_distances' accuracy and accuracy_threshold)


def test_accuracy_separable():
    threshold, acc = best_point([1.0, 2.0], [3.0, 4.0])
    assert acc == 1.0
    assert 2.0 < threshold <= 3.0


def test_accuracy_indistinguishable():
    scores = [1.0, 2.0, 3.0, 4.0]
    _, acc = best_point(scores, scores)
    assert acc == 0.5


def test_accuracy_matches_sweep_oracle():
    rng = np.random.default_rng(37)
    for tie_heavy in (False, True):
        matched, unmatched = random_scores(rng, 250, tie_heavy)
        got_t, got_a = best_point(matched, unmatched)
        want_t, want_a = sweep_accuracy_oracle(matched, unmatched)
        assert got_a == want_a
        assert got_t == want_t


def test_accuracy_tie_breaks_toward_smaller_threshold():
    # thresholds 2 and 4 both score 3/4; the smaller must win
    threshold, acc = best_point([1.0, 3.0], [2.0, 4.0])
    assert acc == 0.75
    assert threshold == 2.0


def test_accuracy_never_below_majority():
    rng = np.random.default_rng(38)
    for _ in range(10):
        n_m = int(rng.integers(1, 60))
        n_u = int(rng.integers(1, 60))
        matched = rng.normal(0, 1, n_m)
        unmatched = rng.normal(0, 1, n_u)  # same distribution: hard case
        _, acc = best_point(matched, unmatched)
        assert acc >= max(n_m, n_u) / (n_m + n_u)


# ---------------------------------------------------------------------------
# bundled report


def test_evaluate_distances_bundles_consistently():
    rng = np.random.default_rng(39)
    matched, unmatched = random_scores(rng, 400)
    report = evaluate_distances(matched, unmatched)
    assert report.n_matched == 400 and report.n_unmatched == 400
    assert report.auc == auc(report.curve)
    assert report.curve == roc(matched, unmatched)
    assert report.curve != roc(matched, unmatched[1:])
    assert (report.accuracy_threshold, report.accuracy) == \
        sweep_accuracy_oracle(matched, unmatched)
    assert [row[0] for row in report.tpr_points] == [0.1, 0.01, 0.001]
    for target, thr, achieved, tpr in report.tpr_points:
        # each target alone gives the row it has among the others
        assert (thr, achieved, tpr) == \
            operating_point(matched, unmatched, target)
        assert (thr, achieved, tpr) == tpr_oracle(matched, unmatched, target)
        assert achieved <= target
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.auc <= 1.0


def test_pair_distances_are_per_pair_distances_split_and_sorted(
        monkeypatch):
    """With a slab of 3 pairs, 20 pairs are measured over 7 slabs; each
    side holds the bits of its pairs' one-at-a-time distances, sorted."""
    monkeypatch.setattr(layers, "_SLAB_ELEMENTS", 3 * 8)
    rng = np.random.default_rng(40)
    vectors = rng.standard_normal((10, 8))
    pairs = PairBatch(rng.integers(0, 10, 20), rng.integers(0, 10, 20),
                      [1, -1, -1, 1] * 5)
    matched, unmatched = metrics.pair_distances(vectors, pairs)
    want = {1: [], -1: []}
    for p in pairs:
        want[int(p.label)].append(distance(vectors[p.first],
                                           vectors[p.second]))
    assert matched.tolist() == sorted(want[1])
    assert unmatched.tolist() == sorted(want[-1])


def test_evaluate_distances_custom_targets():
    report = evaluate_distances([1.0, 2.0], [3.0, 4.0], fpr_targets=(0.5,))
    assert len(report.tpr_points) == 1
    assert report.tpr_points[0][0] == 0.5


# ---------------------------------------------------------------------------
# thresholds merged from the sorted sides


def unique_thresholds(m, u):
    """The thresholds as np.unique of the concatenated sides makes them."""
    return np.concatenate(([-np.inf], np.unique(np.concatenate((m, u))),
                           [np.inf]))


def three_temporary_best(thresholds, below_m, below_u, n_m, n_u):
    """The best accuracy from the full accuracy array."""
    accuracy = (below_m + (n_u - below_u)) / (n_m + n_u)
    best = int(np.argmax(accuracy))
    return float(thresholds[best]), float(accuracy[best])


# duplicates, signed zeros, one-element sides and all-equal sides
_value = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 1e-300]),
                   st.floats(-1e6, 1e6, allow_nan=False))
_side = st.one_of(
    st.lists(_value, min_size=1, max_size=40),
    st.builds(lambda v, k: [v] * k, _value, st.integers(1, 12)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_side, _side)
def test_merged_thresholds_are_the_unique_values(matched, unmatched):
    """`_counts` merges each sorted side's distinct values: the bits of
    np.unique over the concatenation wherever +0.0 and -0.0 do not both
    occur (then np.unique may keep either zero, and the values are equal);
    and every public entry point reads the same results off them."""
    m, u = np.sort(matched), np.sort(unmatched)
    thresholds, below_m, below_u = metrics._counts(m, u)
    want = unique_thresholds(m, u)
    both = np.concatenate((m, u))
    zeros = np.signbit(both[both == 0.0])
    if zeros.all() or not zeros.any():
        assert thresholds.tobytes() == want.tobytes()
    np.testing.assert_array_equal(thresholds, want)
    assert below_m.tolist() == np.searchsorted(m, want).tolist()
    assert below_u.tolist() == np.searchsorted(u, want).tolist()

    best = metrics._best(thresholds, below_m, below_u, m.size, u.size)
    assert best == three_temporary_best(thresholds, below_m, below_u,
                                        m.size, u.size)
    report = evaluate_distances(matched, unmatched)
    in_place = evaluate_distances(m, u)
    for got in (report, in_place):
        assert got.curve == RocCurve(thresholds, below_u / u.size,
                                     below_m / m.size)
        assert (got.accuracy_threshold, got.accuracy) == best
        assert got.auc == report.auc
        assert got.tpr_points == report.tpr_points
    assert m.tolist() == sorted(matched) and u.tolist() == sorted(unmatched)


def test_sorted_side_is_used_in_place():
    """A sorted 1-d float64 side is not copied; any other input is sorted
    into a new array and left as it was."""
    side = np.array([0.5, 1.0, 1.0, 2.0])
    assert np.shares_memory(metrics._sorted("matched", side), side)
    shuffled = np.array([2.0, 0.5, 1.0])
    got = metrics._sorted("matched", shuffled)
    assert not np.shares_memory(got, shuffled)
    assert got.tolist() == [0.5, 1.0, 2.0]
    assert shuffled.tolist() == [2.0, 0.5, 1.0]
    assert metrics._sorted("matched", [1, 3]).dtype == np.float64
