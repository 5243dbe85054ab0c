import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from evperf.data import Dataset
from evperf.gbdt import (
    HESS_EPS,
    ClassTree,
    Ensemble,
    TrainConfig,
    TreeNode,
    build_tree,
    leaf_weight,
    load_model,
    mlogloss_grad_hess,
    model_from_dict,
    model_to_dict,
    predict_margin,
    predict_margin_batch,
    predict_proba,
    predict_proba_batch,
    save_model,
    softmax,
    split_gain,
    train,
)
from evperf.metrics import mlogloss
from evperf.physics import SynthConfig, synth_dataset


def fd_grad_hess(p, label, delta=1e-3):
    """Central finite differences of the softmax log loss in score space."""
    s = np.log(p)

    def loss(scores):
        z = np.exp(scores - scores.max())
        return -math.log(z[label] / z.sum())

    k = len(p)
    g = np.empty(k)
    h = np.empty(k)
    l0 = loss(s)
    for i in range(k):
        e = np.zeros(k)
        e[i] = delta
        lp, lm = loss(s + e), loss(s - e)
        g[i] = (lp - lm) / (2 * delta)
        h[i] = (lp - 2 * l0 + lm) / (delta * delta)
    return g, h


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_hand_case(self):
        out = softmax(np.array([math.log(2.0), 0.0, 0.0]))
        assert np.allclose(out, [0.5, 0.25, 0.25], atol=1e-12)

    def test_large_scores_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6))
    def test_simplex_and_order_preserving(self, scores):
        out = softmax(np.array(scores))
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)
        order = np.argsort(scores, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-15)


class TestGradHess:
    def test_uniform_case(self):
        g, h = mlogloss_grad_hess(np.full(3, 1 / 3), 0)
        assert np.allclose(g, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_one_hot_gradient_vanishes(self):
        p = np.array([1.0 - 2e-12, 1e-12, 1e-12])
        g, _ = mlogloss_grad_hess(p, 0)
        assert np.all(np.abs(g) < 1e-11)

    def test_hessian_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            _, h = mlogloss_grad_hess(p, 0)
            assert np.all(h >= HESS_EPS)
            assert np.all(h <= 0.25 + 1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(k))
            y = int(rng.integers(0, k))
            g, h = mlogloss_grad_hess(p, y)
            g_fd, h_fd = fd_grad_hess(p, y)
            assert np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5
            assert np.linalg.norm(h_fd - h) / max(np.linalg.norm(h), 1e-12) < 1e-5


class TestSplitMath:
    def test_gain_hand_case(self):
        cfg = TrainConfig(reg_lambda=1.0)
        assert split_gain(-1.0, 1.0, 1.0, 1.0, cfg) == pytest.approx(0.5)

    def test_cancellation_always_positive(self):
        cfg = TrainConfig(reg_lambda=0.0, reg_alpha=0.0, gamma=0.0)
        g = split_gain(-2.0, 1.5, 2.0, 0.5, cfg)
        assert g == pytest.approx(0.5 * (4.0 / 1.5 + 4.0 / 0.5))
        assert g > 0

    def test_gamma_can_reject(self):
        cfg = TrainConfig(reg_lambda=1.0, gamma=10.0)
        assert split_gain(-1.0, 1.0, 1.0, 1.0, cfg) < 0

    def test_leaf_weight(self):
        assert leaf_weight(1.0, 1.0, TrainConfig(reg_lambda=1.0)) == pytest.approx(-0.5)
        assert leaf_weight(0.0, 1.0, TrainConfig()) == 0.0
        assert leaf_weight(0.5, 1.0, TrainConfig(reg_alpha=0.75)) == 0.0  # full shrinkage


class TestBuildTree:
    def test_identical_rows_single_leaf(self):
        x = np.ones((5, 2))
        g = np.arange(5.0)
        h = np.ones(5)
        root = build_tree(x, g, h, TrainConfig())
        assert root.is_leaf
        assert root.cover == pytest.approx(5.0)

    def test_two_point_split(self):
        cfg = TrainConfig(reg_lambda=0.0, max_depth=1, min_child_hessian=0.0)
        root = build_tree(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), np.ones(2), cfg)
        assert not root.is_leaf
        assert root.feature == 0
        assert root.threshold == pytest.approx(0.5)
        assert root.left.weight == pytest.approx(1.0)
        assert root.right.weight == pytest.approx(-1.0)

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated columns give identical gains; the first feature must win
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        root = build_tree(x, g, np.ones(4), TrainConfig(reg_lambda=0.0, max_depth=1))
        assert root.feature == 0
        assert root.threshold == pytest.approx(1.5)

    def _structure_ok(self, node, depth, cfg):
        assert node.cover > 0
        if node.is_leaf:
            assert depth <= cfg.max_depth
            return
        assert depth < cfg.max_depth
        assert node.gain > 0
        assert node.cover == pytest.approx(node.left.cover + node.right.cover, rel=1e-9)
        self._structure_ok(node.left, depth + 1, cfg)
        self._structure_ok(node.right, depth + 1, cfg)

    def test_structural_invariants_random(self):
        rng = np.random.default_rng(5)
        cfg = TrainConfig(max_depth=3, reg_lambda=0.5)
        for _ in range(20):
            x = rng.normal(size=(40, 3))
            g = rng.normal(size=40)
            h = rng.uniform(0.01, 0.25, size=40)
            self._structure_ok(build_tree(x, g, h, cfg), 0, cfg)


@pytest.fixture(scope="module")
def blob_dataset():
    rng = np.random.default_rng(1)
    n = 120
    x = np.vstack(
        [
            rng.normal([0, 0], 0.4, (n // 3, 2)),
            rng.normal([3, 0], 0.4, (n // 3, 2)),
            rng.normal([0, 3], 0.4, (n // 3, 2)),
        ]
    )
    y = np.repeat([0, 1, 2], n // 3)
    return Dataset(x, y, ("a", "b"))


class TestTrain:
    def test_separable_physics_data_fits_perfectly(self):
        ds = synth_dataset(SynthConfig(n_samples=120, seed=5, noise_sd=0.0))
        cfg = TrainConfig(n_rounds=50)
        model = train(ds, cfg)
        acc = (predict_proba_batch(model, ds.features).argmax(axis=1) == ds.labels).mean()
        assert acc == 1.0

    def test_training_reduces_mlogloss(self, blob_dataset):
        cfg = TrainConfig(n_rounds=30)
        model = train(blob_dataset, cfg)
        n = blob_dataset.n_samples
        base_probs = np.tile(softmax(model.base_score), (n, 1))
        final = mlogloss(predict_proba_batch(model, blob_dataset.features), blob_dataset.labels)
        initial = mlogloss(base_probs, blob_dataset.labels)
        assert final <= initial

    def test_deterministic_retraining(self, blob_dataset):
        cfg = TrainConfig(n_rounds=8)
        d1 = model_to_dict(train(blob_dataset, cfg))
        d2 = model_to_dict(train(blob_dataset, cfg))
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_missing_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int), ("a", "b"))
        with pytest.raises(ValueError, match="class 1 absent"):
            train(ds, TrainConfig(num_class=3))

    def test_base_score_is_log_prior(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=1))
        assert np.allclose(model.base_score, np.log(np.full(3, 1 / 3)))

    def test_single_round_leaf_composition(self):
        # identical rows force one leaf per class tree, so the prediction is
        # exactly softmax(base + eta * leaf weight)
        ds = Dataset(np.ones((2, 1)), np.array([0, 1]), ("a",))
        cfg = TrainConfig(n_rounds=1, num_class=2, learning_rate=0.3)
        model = train(ds, cfg)
        weights = np.array([ct.root.weight for ct in model.trees])
        assert all(ct.root.is_leaf for ct in model.trees)
        expected = softmax(model.base_score + 0.3 * weights)
        assert np.allclose(predict_proba(model, np.array([1.0])), expected, atol=1e-15)


def _single_leaf_model(weight=2.0, eta=0.3, num_class=2):
    # one tree for class 0 only; class 1 keeps its base score
    trees = [ClassTree(0, 0, TreeNode(cover=4.0, weight=weight))]
    cfg = TrainConfig(n_rounds=1, learning_rate=eta, num_class=num_class)
    return Ensemble(trees, np.array([0.1, -0.2]), num_class, ("a", "b"), cfg)


class TestPredict:
    def test_zero_tree_ensemble_returns_base(self):
        cfg = TrainConfig(num_class=2)
        model = Ensemble([], np.array([0.3, -0.3]), 2, ("a",), cfg)
        assert np.array_equal(predict_margin(model, np.array([1.0])), [0.3, -0.3])
        probs = predict_proba(model, np.array([1.0]))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_leaf_tree(self):
        model = _single_leaf_model()
        m = predict_margin(model, np.array([5.0, 5.0]))
        assert m[0] == pytest.approx(0.1 + 0.3 * 2.0)
        assert m[1] == pytest.approx(-0.2)

    def test_argmax_consistency_and_simplex(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=5))
        margins = predict_margin_batch(model, blob_dataset.features)
        probs = predict_proba_batch(model, blob_dataset.features)
        assert np.array_equal(margins.argmax(axis=1), probs.argmax(axis=1))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_one_row_equals_batch_row(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=5))
        batch = predict_margin_batch(model, blob_dataset.features)
        for x, row in zip(blob_dataset.features[::7], batch[::7]):
            assert np.array_equal(predict_margin(model, x), row)

    def test_dimension_mismatch(self):
        model = _single_leaf_model()
        with pytest.raises(ValueError):
            predict_margin(model, np.array([1.0]))
        with pytest.raises(ValueError):
            predict_margin_batch(model, np.ones((3, 5)))


class TestPersistence:
    def test_round_trip_margins_bit_identical(self, blob_dataset, tmp_path):
        model = train(blob_dataset, TrainConfig(n_rounds=6))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        a = predict_margin_batch(model, blob_dataset.features)
        b = predict_margin_batch(loaded, blob_dataset.features)
        assert np.array_equal(a, b)

    def test_save_is_byte_deterministic(self, blob_dataset, tmp_path):
        model = train(blob_dataset, TrainConfig(n_rounds=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_multiclass_equality_is_a_bool(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=3))
        assert model.num_class == 3
        loaded = model_from_dict(model_to_dict(model))
        assert (model == loaded) is True
        assert (model != loaded) is False
        shifted = model_from_dict({**model_to_dict(model), "base_score": [0.0, 0.0, 0.0]})
        assert (model == shifted) is False
        assert model != "model"

    def test_version_check(self):
        with pytest.raises(ValueError, match="format version"):
            model_from_dict({"format_version": 99})
