import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evperf.data import DataError, Dataset
from evperf.gbdt import TrainConfig
from evperf.physics import SynthConfig, synth_dataset
from evperf.metrics import (
    _midranks,
    accuracy,
    confusion,
    cross_validate,
    mcc,
    mlogloss,
    report_to_dict,
    roc_auc_ovr_macro,
    round_curve,
)


class TestConfusion:
    def test_perfect_is_diagonal(self):
        cm = confusion([0, 1, 2, 1], [0, 1, 2, 1])
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_single_off_diagonal(self):
        # true High predicted Mid with classes (Low=0, Mid=1, High=2)
        cm = confusion([2, 1, 0], [1, 1, 0], num_class=3)
        assert cm[2, 1] == 1
        assert cm[1, 1] == 1 and cm[0, 0] == 1
        assert cm.sum() == 3

    def test_total_is_sample_count(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 3, 50)
        p = rng.integers(0, 3, 50)
        assert confusion(t, p, 3).sum() == 50

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])


class TestAccuracy:
    def test_diagonal(self):
        assert accuracy(np.diag([3, 4, 5])) == 1.0

    def test_zero_diagonal(self):
        assert accuracy(np.array([[0, 2], [3, 0]])) == 0.0

    def test_hand_case(self):
        assert accuracy(np.array([[1, 1], [1, 1]])) == pytest.approx(0.5)


class TestMcc:
    def test_perfect(self):
        assert mcc(np.diag([5, 5, 5])) == pytest.approx(1.0)

    def test_single_predicted_class_zero_by_convention(self):
        cm = np.array([[3, 0], [4, 0]])  # everything predicted as class 0
        assert mcc(cm) == 0.0

    def test_hand_case(self):
        assert mcc(np.array([[1, 1], [1, 1]])) == pytest.approx(0.0)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cm = rng.integers(0, 9, size=(3, 3))
            if cm.sum() == 0:
                continue
            perm = rng.permutation(3)
            permuted = cm[np.ix_(perm, perm)]
            assert mcc(permuted) == pytest.approx(mcc(cm), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = rng.integers(0, 10, size=(3, 3))
            if cm.sum() == 0:
                continue
            assert -1.0 - 1e-12 <= mcc(cm) <= 1.0 + 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        assert roc_auc_ovr_macro(probs, [0, 0, 1, 1]) == 1.0

    def test_all_identical_scores(self):
        probs = np.full((6, 3), 1 / 3)
        assert roc_auc_ovr_macro(probs, [0, 1, 2, 0, 1, 2]) == pytest.approx(0.5)

    def test_hand_case_binary(self):
        # class-1 scores [0.9, 0.8, 0.3, 0.2] with labels [1, 0, 1, 0]: 3 of 4 pairs ordered
        scores1 = np.array([0.9, 0.8, 0.3, 0.2])
        probs = np.column_stack([1 - scores1, scores1])
        assert roc_auc_ovr_macro(probs, [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_absent_class_error_names_it(self):
        probs = np.full((4, 3), 1 / 3)
        with pytest.raises(ValueError, match="class 2"):
            roc_auc_ovr_macro(probs, [0, 1, 0, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(30, 3))
        z = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = z / z.sum(axis=1, keepdims=True)
        y = rng.integers(0, 3, 30)
        y[:3] = [0, 1, 2]
        a1 = roc_auc_ovr_macro(probs, y)
        a2 = roc_auc_ovr_macro(np.expm1(probs * 2.5), y)  # strictly increasing map
        assert a2 == pytest.approx(a1, abs=1e-12)


def _ref_midranks(a):
    """Tie groups walked one at a time over the stably sorted values."""
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.shape[0])
    sorted_a = a[order]
    i = 0
    while i < a.shape[0]:
        j = i
        while j + 1 < a.shape[0] and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_midranks_match_reference():
    rng = np.random.default_rng(11)
    cases = [np.empty(0), np.array([0.0]), np.array([-0.0, 0.0, -0.0, 0.0])]
    for _ in range(300):
        n = int(rng.integers(1, 200))
        a = rng.integers(-4, 5, size=n) * rng.choice([0.5, 0.25, 1e-3])  # many ties
        a[rng.random(n) < 0.2] = -0.0
        cases.append(a if rng.random() < 0.5 else a + rng.normal(size=n) * (rng.random(n) < 0.5))
    for a in cases:
        assert np.array_equal(_midranks(a), _ref_midranks(a))


class TestMlogloss:
    def test_one_hot_correct(self):
        probs = np.eye(3)[[0, 1, 2]]
        assert mlogloss(probs, [0, 1, 2]) == pytest.approx(0.0)

    def test_uniform(self):
        probs = np.full((5, 3), 1 / 3)
        assert mlogloss(probs, [0, 1, 2, 0, 1]) == pytest.approx(math.log(3.0))

    def test_zero_probability_clamped(self):
        probs = np.array([[0.0, 1.0]])
        assert mlogloss(probs, [0]) == pytest.approx(-math.log(1e-15))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_metric_ranges_randomized(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        y = rng.integers(0, 3, n)
        y[:3] = [0, 1, 2]
        probs = rng.dirichlet(np.ones(3), size=n)
        cm = confusion(y, probs.argmax(axis=1), 3)
        assert 0.0 <= accuracy(cm) <= 1.0
        assert -1.0 <= mcc(cm) <= 1.0
        assert 0.0 <= roc_auc_ovr_macro(probs, y) <= 1.0
        assert mlogloss(probs, y) >= 0.0


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(10)
    n = 30
    x = np.vstack(
        [
            rng.normal([0, 0], 0.35, (10, 2)),
            rng.normal([2.5, 0], 0.35, (10, 2)),
            rng.normal([0, 2.5], 0.35, (10, 2)),
        ]
    )
    y = np.repeat([0, 1, 2], 10)
    return Dataset(x, y, ("a", "b"))


class TestCrossValidate:
    def test_fold_accounting(self, small_dataset):
        report = cross_validate(small_dataset, TrainConfig(n_rounds=5), k=5, seed=0)
        assert len(report.folds) == 5
        assert all(fm.n_samples == 6 for fm in report.folds)
        assert report.confusion.sum() == 30

    def test_deterministic(self, small_dataset):
        cfg = TrainConfig(n_rounds=5)
        r1 = cross_validate(small_dataset, cfg, k=5, seed=3)
        r2 = cross_validate(small_dataset, cfg, k=5, seed=3)
        assert json.dumps(report_to_dict(r1), sort_keys=True) == json.dumps(
            report_to_dict(r2), sort_keys=True
        )

    def test_learns_separable_data(self, small_dataset):
        report = cross_validate(small_dataset, TrainConfig(n_rounds=30), k=5, seed=0)
        assert report.accuracy >= 0.9
        assert report.roc_auc_macro_ovr >= 0.95

    def test_class_too_small(self):
        x = np.random.default_rng(0).normal(size=(8, 2))
        y = np.array([0, 0, 0, 0, 1, 1, 1, 2])
        with pytest.raises(DataError, match="class 2"):
            cross_validate(Dataset(x, y, ("a", "b")), TrainConfig(n_rounds=2), k=3, seed=0)


def test_round_curve_ends_on_cross_validated_mlogloss():
    fleet = synth_dataset(SynthConfig(n_samples=120, seed=0))
    cfg = TrainConfig(n_rounds=12)
    curve = round_curve(fleet, cfg, k=5, seed=0)
    assert curve.shape == (12,)
    assert curve[-1] == cross_validate(fleet, cfg, k=5, seed=0).mlogloss

