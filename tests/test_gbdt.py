import itertools
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evperf import gbdt
from evperf.data import DEFAULT_FEATURES, Dataset, ScalerParams
from evperf.gbdt import (
    HESS_EPS,
    Ensemble,
    TrainConfig,
    TreeNode,
    build_tree,
    leaf_weight,
    load_model,
    mlogloss_grad_hess,
    model_from_dict,
    model_to_dict,
    node_table,
    predict_margin,
    predict_margin_batch,
    predict_proba,
    predict_proba_batch,
    root_blocks,
    save_model,
    softmax,
    staged_margins,
    train,
)
from evperf.metrics import mlogloss
from evperf.physics import SynthConfig, synth_dataset
from evperf.treeshap import explain_matrix, interaction_values
from split_oracle import reference_find_best_split


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


    def test_batch_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(3), size=9)
        y = np.arange(9) % 3  # every class appears as a label
        g, h = mlogloss_grad_hess(p, y)
        assert g.shape == h.shape == (9, 3)
        for i in range(9):
            g_i, h_i = mlogloss_grad_hess(p[i], int(y[i]))
            assert g[i].tobytes() == g_i.tobytes() and h[i].tobytes() == h_i.tobytes()

def _grow(x, g, h, cfg, weights=None):
    """build_tree from the root blocks of x, as train grows each tree."""
    x = np.asarray(x, dtype=float)
    return build_tree(root_blocks(x), g, h, cfg, np.empty(len(x)) if weights is None else weights)


def _two_row_gain(g_left, h_left, g_right, h_right, cfg):
    """The gain build_tree records for one split of a left row (G_L, H_L) from a right row (G_R, H_R)."""
    root = _grow([[0.0], [1.0]], [g_left, g_right], [h_left, h_right], replace(cfg, max_depth=1))
    assert root.is_leaf or root.left.cover == h_left and root.right.cover == h_right
    return root.gain


class TestSplitMath:
    def test_gain_hand_case(self):
        cfg = TrainConfig(reg_lambda=1.0)
        assert _two_row_gain(-1.0, 1.0, 1.0, 1.0, cfg) == pytest.approx(0.5)

    def test_cancellation_always_positive(self):
        cfg = TrainConfig(reg_lambda=0.0, reg_alpha=0.0, gamma=0.0)
        g = _two_row_gain(-2.0, 1.5, 2.0, 0.5, cfg)
        assert g == pytest.approx(0.5 * (4.0 / 1.5 + 4.0 / 0.5))
        assert g > 0

    def test_gamma_can_reject(self):
        # the gain before gamma is 0.5, as in the hand case: gamma 0.25 leaves
        # 0.25, and gamma 10 leaves none, so the root stays a leaf with gain 0
        assert _two_row_gain(-1.0, 1.0, 1.0, 1.0, TrainConfig(gamma=0.25)) == pytest.approx(0.25)
        assert _two_row_gain(-1.0, 1.0, 1.0, 1.0, TrainConfig(reg_lambda=1.0, gamma=10.0)) == 0.0

    def test_leaf_weight(self):
        assert leaf_weight(1.0, 1.0, TrainConfig(reg_lambda=1.0)) == pytest.approx(-0.5)
        assert leaf_weight(0.0, 1.0, TrainConfig()) == 0.0
        assert leaf_weight(0.5, 1.0, TrainConfig(reg_alpha=0.75)) == 0.0  # full shrinkage

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("field", ["reg_lambda", "reg_alpha", "gamma", "min_child_hessian"])
    def test_regularization_must_be_finite_non_negative(self, field, value):
        with pytest.raises(ValueError, match="regularization terms must be finite"):
            TrainConfig(**{field: value})


_INT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "int"]
_FLOAT_FIELDS = [f.name for f in fields(TrainConfig) if f.type == "float"]


class TestConfigTypes:
    """TrainConfig takes only what model.json holds."""

    @pytest.mark.parametrize("value", [True, False, np.True_, 2.5, 2.0, np.float64(2.0),
                                       math.inf, -math.inf, math.nan, "2", None])
    @pytest.mark.parametrize("field", _INT_FIELDS)
    def test_int_fields_reject_what_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, np.True_, "0.5", None, 10**400])
    @pytest.mark.parametrize("field", _FLOAT_FIELDS)
    def test_float_fields_reject_what_is_not_a_float(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number"):
            TrainConfig(**{field: value})

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = TrainConfig(n_rounds=np.int64(2), max_depth=np.int32(3), num_class=np.uint8(3),
                          seed=np.int64(-4), learning_rate=np.float32(0.5),
                          reg_lambda=np.int64(2), gamma=np.float64(0.25))
        assert cfg == TrainConfig(n_rounds=2, max_depth=3, num_class=3, seed=-4,
                                  learning_rate=0.5, reg_lambda=2.0, gamma=0.25)
        for f in fields(cfg):
            assert type(getattr(cfg, f.name)) is (int if f.type == "int" else float)

    def test_python_numbers_are_kept(self):
        cfg = TrainConfig(reg_lambda=2, learning_rate=1)
        assert type(cfg.reg_lambda) is int and type(cfg.learning_rate) is int

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_config_train_accepts_round_trips(self, data, tmp_path_factory):
        # Each field is left at its default or drawn as a Python or numpy
        # number; then one field may get a value TrainConfig must refuse
        # with a ValueError, never a TypeError from within train.
        def ints(low, high):
            values = st.integers(low, high)
            return values | values.map(np.int64) | values.map(np.int32)

        def floats(low, high):
            values = st.floats(low, high)
            return (values | values.map(np.float64) | values.map(np.float32)
                    | ints(math.ceil(low), math.floor(high)))

        valid = {"n_rounds": ints(1, 3), "max_depth": ints(1, 3) | st.just(10**6),
                 "num_class": ints(2, 3), "seed": ints(-5, 5) | st.just(2**70),
                 "learning_rate": floats(0.125, 1.0)}
        valid.update({name: floats(0.0, 2.0) for name in _FLOAT_FIELDS if name not in valid})
        refused = [True, np.True_, math.inf, math.nan, "2", -1]
        kwargs = {name: data.draw(strategy, label=name) for name, strategy in valid.items()
                  if data.draw(st.booleans())}
        bad = data.draw(st.none() | st.sampled_from(list(valid)), label="refused field")
        if bad is not None:
            extra = [2.0, 2.5] if bad in _INT_FIELDS else [10**400]
            kwargs[bad] = data.draw(st.sampled_from(refused + extra), label=bad)
        try:
            cfg = TrainConfig(**kwargs)
        except ValueError:
            assert bad is not None
            return
        rng = np.random.default_rng(0)
        dataset = Dataset(rng.normal(size=(12, 2)), np.arange(12) % cfg.num_class, ("a", "b"))
        model = train(dataset, cfg)
        path = tmp_path_factory.mktemp("config") / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert np.array_equal(predict_margin_batch(loaded, dataset.features),
                              predict_margin_batch(model, dataset.features))


class TestBuildTree:
    def test_identical_rows_single_leaf(self):
        x = np.ones((5, 2))
        g = np.arange(5.0)
        h = np.ones(5)
        root = _grow(x, g, h, TrainConfig())
        assert root.is_leaf
        assert root.cover == pytest.approx(5.0)

    def test_two_point_split(self):
        cfg = TrainConfig(reg_lambda=0.0, max_depth=1, min_child_hessian=0.0)
        root = _grow(np.array([[0.0], [1.0]]), np.array([-1.0, 1.0]), np.ones(2), cfg)
        assert not root.is_leaf
        assert root.feature == 0
        assert root.threshold == pytest.approx(0.5)
        assert root.left.weight == pytest.approx(1.0)
        assert root.right.weight == pytest.approx(-1.0)

    def test_tie_breaks_to_lowest_feature(self):
        # duplicated columns give identical gains; the first feature must win
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        root = _grow(x, g, np.ones(4), TrainConfig(reg_lambda=0.0, max_depth=1))
        assert root.feature == 0
        assert root.threshold == pytest.approx(1.5)

    @staticmethod
    def _leaves_hold_their_rows(root, x, h, weights):
        # the Hessian the thresholds route to each leaf is its cover, and each
        # row's weight is the weight of the leaf it walks to
        routed = {}
        for row, hess in zip(x, h):
            node = root
            while not node.is_leaf:
                node = node.left if row[node.feature] < node.threshold else node.right
            routed[id(node)] = routed.get(id(node), 0.0) + hess
        stack, leaves = [root], []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack += [node.right, node.left]
        assert [routed.get(id(leaf), 0.0) for leaf in leaves] == [leaf.cover for leaf in leaves]
        assert np.array_equal(weights, [_walk(root, row) for row in x])

    @pytest.mark.parametrize("below, above", [
        (1.0, np.nextafter(1.0, 2.0)),  # the midpoint rounds down onto 1.0
        (-np.nextafter(1.0, 2.0), -1.0),
        (1.5e308, 1.7e308),  # the sum overflows
        (-1.7e308, -1.5e308),
    ])
    def test_threshold_separates_adjacent_values(self, below, above):
        x = np.array([[below], [above], [below], [above]])
        h = np.ones(4)
        weights = np.full(4, np.nan)
        root = _grow(x, [-1.0, 1.0, -1.0, 1.0], h, TrainConfig(max_depth=1), weights)
        assert below < root.threshold <= above
        assert root.left.cover == root.right.cover == 2.0
        assert root.left.weight == pytest.approx(2 / 3) and root.right.weight == pytest.approx(-2 / 3)
        self._leaves_hold_their_rows(root, x, h, weights)

    @pytest.mark.parametrize("g, h, name", [
        ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], "h"),  # a zero root cover
        ([1.0, 2.0, 3.0], [1.0, -1.0, 0.25], "h"),
        ([1.0, 2.0, 3.0], [0.25, 0.25, HESS_EPS / 2], "h"),
        ([1.0, 2.0, 3.0], [0.25, math.nan, 0.25], "h"),
        ([1.0, 2.0, 3.0], [0.25, math.inf, 0.25], "h"),
        ([1.0, math.nan, 3.0], [0.25, 0.25, 0.25], "g"),
        ([1.0, -math.inf, 3.0], [0.25, 0.25, 0.25], "g"),
        ([1.0, math.inf, -math.inf], [0.25, 0.25, 0.25], "g"),
    ])
    def test_rejects_bad_gradients_and_hessians(self, g, h, name):
        with pytest.raises(ValueError, match=f"^{name} must hold finite"):
            _grow(np.arange(3.0)[:, None], g, h, TrainConfig(reg_lambda=0.0))

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            _grow(np.empty((0, 2)), np.empty(0), np.empty(0), TrainConfig(reg_lambda=0.0))

    def test_hessians_at_the_floor_are_accepted(self):
        root = _grow(np.arange(3.0)[:, None], [1.0, 2.0, 3.0], [HESS_EPS] * 3, TrainConfig())
        assert root.cover == 3 * HESS_EPS

    def test_no_features_give_every_row_the_root_weight(self):
        weights = np.full(5, np.nan)
        root = _grow(np.empty((5, 0)), np.arange(5.0), np.ones(5), TrainConfig(), weights)
        assert root.is_leaf and root.cover == 5.0
        assert np.array_equal(weights, np.full(5, root.weight))

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
            self._structure_ok(_grow(x, g, h, cfg), 0, cfg)


class TestChildSums:
    """Children take their sums from the split search, not from their rows."""

    def _check_covers(self, node, x, h, rows, least):
        if node.is_leaf:
            return
        # the node's Hessians in the split feature's order, ties by row, summed left to right
        xj = x[rows, node.feature]
        prefix = np.cumsum(h[rows][np.argsort(xj, kind="stable")])
        go_left = xj < node.threshold
        assert node.left.cover == prefix[np.count_nonzero(go_left) - 1]
        assert node.right.cover == node.cover - node.left.cover
        assert node.left.cover >= least and node.right.cover >= least
        self._check_covers(node.left, x, h, rows[go_left], least)
        self._check_covers(node.right, x, h, rows[~go_left], least)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(max_depth=5),
        TrainConfig(max_depth=6, reg_lambda=0.0, min_child_hessian=0.0),
        TrainConfig(max_depth=4, reg_alpha=0.3, gamma=0.05, min_child_hessian=0.5),
    ])
    def test_child_covers_are_prefix_sums(self, cfg):
        rng = np.random.default_rng(11)
        least = max(cfg.min_child_hessian, HESS_EPS)
        for n in (2, 9, 60, 400):
            x = rng.integers(0, 6, size=(n, 3)).astype(float)
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 1.0, size=n)
            h[rng.random(n) < 0.2] = HESS_EPS
            root = _grow(x, g, h, cfg)
            assert root.cover == float(np.add.reduce(h))
            self._check_covers(root, x, h, np.arange(n), least)

    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_child_hessians_floor_at_hess_eps(self, reg_lambda, tmp_path):
        # The node's Hessian 1.0 + 1e-16 rounds to 1.0, so with no Hessian
        # minimum the right child of the last candidate holds 1.0 - 1.0 = 0.0:
        # with no L2 penalty its gain would be infinite, and with one its
        # cover would be 0, which explain refuses.
        x = np.arange(5.0)[:, None]
        g = np.array([0.3, -0.2, 0.1, 0.4, -0.5])
        h = np.array([0.25] * 4 + [HESS_EPS])
        cfg = TrainConfig(min_child_hessian=0.0, reg_lambda=reg_lambda, max_depth=1,
                          n_rounds=1, num_class=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trees = [(0, k, _grow(x, sign * g, h, cfg)) for k, sign in enumerate((1, -1))]
            model = Ensemble(trees=node_table(trees), base_score=np.zeros(2), num_class=2,
                             feature_names=("x",), config=cfg)
            table = model.trees
            assert (table.feature >= 0).any()
            assert (table.cover >= HESS_EPS).all()
            assert np.isfinite(table.gain).all() and np.isfinite(table.weight).all()
            save_model(model, tmp_path / "model.json")
            loaded = load_model(tmp_path / "model.json")
            explained = explain_matrix(loaded, x)
        margins = predict_margin_batch(loaded, x)
        np.testing.assert_allclose(explained.base_value + explained.phi.sum(axis=1), margins,
                                   rtol=0, atol=1e-12)


def _ref_soft_threshold(g, alpha):
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _ref_score(g, h, cfg):
    s = _ref_soft_threshold(g, cfg.reg_alpha)
    return s * s / (h + cfg.reg_lambda)


def _ref_find_best_split(x_cols, g, h, rows, g_sum, h_sum, cfg):
    """Per-feature exact search: argsort the node's values of each feature.

    Candidates are ranked by their children's scores; the winner's gain takes
    off the parent's score once. Returns (gain, feature, threshold, G_L, H_L).
    """
    least = max(cfg.min_child_hessian, HESS_EPS)
    best = None  # (score, feature, threshold, G_L, H_L)
    for j, col in enumerate(x_cols):
        xj = col[rows]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        if xs[0] == xs[-1]:
            continue
        cg = np.cumsum(g[rows][order])[:-1]
        ch = np.cumsum(h[rows][order])[:-1]
        distinct = xs[:-1] < xs[1:]
        h_r = h_sum - ch
        valid = distinct & (ch >= least) & (h_r >= least)
        if not np.any(valid):
            continue
        scores = np.where(valid, _ref_score(cg, ch, cfg) + _ref_score(g_sum - cg, h_r, cfg),
                          -np.inf)
        k = int(np.argmax(scores))
        if best is None or scores[k] > best[0]:
            below, above = float(xs[k]), float(xs[k + 1])
            mid = 0.5 * (below + above)  # may round onto the lower value, or overflow
            best = (scores[k], j, mid if below < mid <= above else above, float(cg[k]), float(ch[k]))
    if best is None:
        return None
    gain = float(0.5 * (best[0] - _ref_score(g_sum, h_sum, cfg)) - cfg.gamma)
    return None if gain <= 0 else (gain, *best[1:])


def _ref_build_tree(x, g, h, cfg, searched_sizes):
    """Reference grower; records the row count of every node it searches.

    The root's sums are reduced from its rows, a left child's are the
    winning prefix sums and a right child's its parent's less the left's.
    """
    x_cols = [np.ascontiguousarray(x[:, j]) for j in range(x.shape[1])]

    def grow(rows, depth, g_sum, h_sum):
        if depth < cfg.max_depth:
            searched_sizes.append(len(rows))
            found = _ref_find_best_split(x_cols, g, h, rows, g_sum, h_sum, cfg)
            if found is not None:
                gain, j, thr, g_left, h_left = found
                mask = x_cols[j][rows] < thr
                return TreeNode(cover=h_sum, feature=j, threshold=thr, gain=gain,
                                left=grow(rows[mask], depth + 1, g_left, h_left),
                                right=grow(rows[~mask], depth + 1, g_sum - g_left,
                                           h_sum - h_left))
        g_st = _ref_soft_threshold(g_sum, cfg.reg_alpha)
        return TreeNode(cover=h_sum, weight=float(-g_st / (h_sum + cfg.reg_lambda)))

    rows = np.arange(x.shape[0])
    return grow(rows, 0, float(g[rows].sum()), float(h[rows].sum()))


def _walk(node, row):
    while not node.is_leaf:
        node = node.left if row[node.feature] < node.threshold else node.right
    return node.weight


def _assert_row_weights_walked(x, g, h, cfg):
    """build_tree's row_weights hold, for every row, the weight of the leaf the row walks to."""
    weights = np.full(len(x), np.nan)
    root = _grow(x, g, h, cfg, weights)
    walked = np.array([_walk(root, row) for row in x])
    # bit for bit, so that 0.0 and -0.0 differ; NaN marks a row no leaf wrote
    assert weights.tobytes() == walked.tobytes()


def _assert_same_tree(a, b, path="root"):
    for name in ("feature", "threshold", "gain", "cover", "weight"):
        va, vb = getattr(a, name), getattr(b, name)
        # bit for bit, so that 0.0 and -0.0 differ
        assert type(va) is type(vb) and repr(va) == repr(vb), f"{path}.{name}: {va!r} != {vb!r}"
    if not a.is_leaf:
        _assert_same_tree(a.left, b.left, path + ".left")
        _assert_same_tree(a.right, b.right, path + ".right")


class TestGrowthMatchesReference:
    """build_tree equals the per-feature search it replaced, bit for bit."""

    CONFIGS = [
        TrainConfig(max_depth=4),
        TrainConfig(max_depth=8, reg_lambda=0.5, min_child_hessian=0.0),
        TrainConfig(max_depth=6, reg_alpha=0.3, gamma=0.05, min_child_hessian=0.0),
        TrainConfig(max_depth=5, reg_lambda=0.0, reg_alpha=0.1, gamma=0.2),
        # children need more Hessian than one or two rows carry: rejects the edges
        TrainConfig(max_depth=5, reg_lambda=2.0, min_child_hessian=1.5),
        # every split, or every split below the root, is on the last level and cuts nothing
        TrainConfig(max_depth=1),
        TrainConfig(max_depth=2, reg_lambda=0.5, min_child_hessian=0.0),
    ]

    # At the default tile size every node here but the large one is one tile;
    # at sizes 1 and 7 every node of more than a few rows spans several.
    @pytest.mark.parametrize("cfg, tile", [
        pytest.param(cfg, tile, id=f"cfg{i}" if tile == gbdt._TILE else f"cfg{i}-tile{tile}")
        for i, cfg in enumerate(CONFIGS) for tile in (gbdt._TILE, 1, 7)])
    def test_random_trees_bit_identical(self, cfg, tile, monkeypatch):
        monkeypatch.setattr(gbdt, "_TILE", tile)
        rng = np.random.default_rng(17)
        sizes = []
        for n in [1, 2, *rng.integers(3, 60, size=38)]:
            x = rng.integers(0, 5, size=(n, 4)).astype(float)  # many ties
            x[:, 2] = 3.0  # a constant column
            x[:, 3] += rng.choice([0.0, 0.25], size=n)
            g = rng.normal(size=n)
            h = rng.uniform(0.05, 1.0, size=n)
            expected = _ref_build_tree(x, g, h, cfg, sizes)
            _assert_same_tree(_grow(x, g, h, cfg), expected)
            _assert_row_weights_walked(x, g, h, cfg)
        assert {1, 2} <= set(sizes)
        # One node larger than the default tile: 2,000 rows of tied values.
        # Feature 4 copies feature 0, which carries the signal, so the best
        # gain ties between features that lie in different tiles.
        x = rng.integers(0, 5, size=(2000, 5)).astype(float)
        x[:, 4] = x[:, 0]
        g = x[:, 0] - 2.0 + rng.normal(size=2000)
        h = rng.uniform(0.05, 1.0, size=2000)
        shallow = replace(cfg, max_depth=2)
        tree = _grow(x, g, h, shallow)
        _assert_same_tree(tree, _ref_build_tree(x, g, h, shallow, sizes))
        assert tree.feature == 0 and x.size > gbdt._TILE
        _assert_row_weights_walked(x, g, h, shallow)

    def test_shared_order_and_row_weights(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 6, size=(80, 3)).astype(float)
        g, h = rng.normal(size=80), rng.uniform(0.05, 1.0, size=80)
        cfg = TrainConfig(max_depth=3, reg_lambda=0.5)
        weights = np.full(80, np.nan)
        blocks = root_blocks(x)
        root = build_tree(blocks, g, h, cfg, weights)
        _assert_same_tree(root, build_tree(blocks, g, h, cfg, np.empty(80)))
        walked = [_walk(root, row) for row in x]
        assert np.array_equal(weights, walked)
        with pytest.raises(ValueError, match="align row-wise"):
            build_tree(root_blocks(x[:-1]), g, h, cfg, np.empty(79))
        with pytest.raises(ValueError, match="row_weights"):
            build_tree(blocks, g, h, cfg, np.empty(79))

    def test_physics_trees_bit_identical(self):
        ds = synth_dataset(SynthConfig(n_samples=150, seed=3))
        rng = np.random.default_rng(4)
        g = rng.normal(size=ds.n_samples)
        h = rng.uniform(0.01, 0.25, size=ds.n_samples)
        for cfg in self.CONFIGS:
            expected = _ref_build_tree(ds.features, g, h, cfg, [])
            _assert_same_tree(_grow(ds.features, g, h, cfg), expected)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), m=st.integers(1, 30), spare=st.integers(0, 10),
       levels=st.integers(1, 5), kind=st.sampled_from(["random", "sorted", "all-left", "all-right"]),
       seed=st.integers(0, 2**32 - 1))
@example(d=1, m=1, spare=0, levels=1, kind="all-left", seed=0)
@example(d=1, m=1, spare=3, levels=1, kind="all-right", seed=0)
@example(d=1, m=2, spare=0, levels=2, kind="random", seed=1)
@example(d=2, m=2, spare=1, levels=1, kind="sorted", seed=2)
def test_cut_matches_boolean_masks(d, m, spare, levels, kind, seed):
    # A node of m rows of a fit of m + spare rows, held as build_tree holds it;
    # few value levels give ties. "sorted" flags are one run in their feature's order.
    rng = np.random.default_rng(seed)
    n = m + spare
    x_t = rng.integers(0, levels, size=(d, n)).astype(float)
    rows = np.sort(rng.choice(n, size=m, replace=False))
    order = rows[np.argsort(x_t[:, rows], axis=1, kind="stable")]
    xs = x_t[np.arange(d)[:, None], order]
    if kind == "random":
        go_left = rng.random(n) < rng.random()
    elif kind == "sorted":
        j = rng.integers(d)
        go_left = x_t[j] < xs[j, rng.integers(m)] + 0.5
    else:
        go_left = np.full(n, kind == "all-left")
    keep = go_left[order]
    expected = ((order[keep].reshape(d, -1), xs[keep].reshape(d, -1)),
                (order[~keep].reshape(d, -1), xs[~keep].reshape(d, -1)))
    for side, want in zip(gbdt._cut(go_left, order, xs), expected):
        for got, ref in zip(side, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)


# Node sizes m where a tile's feature-row count _TILE // (2 * m) steps down,
# where the separate-array search's _TILE // m did, and above _TILE // 2,
# where one feature row fills a tile.
_TILE_EDGES = sorted({m for half in (gbdt._TILE // 2, gbdt._TILE) for k in range(1, 8)
                      for m in (half // k, half // k + 1)} | {6316})


@settings(max_examples=400, deadline=None)
@given(d=st.integers(1, 7), m=st.one_of(st.integers(1, 40), st.sampled_from(_TILE_EDGES)),
       levels=st.sampled_from([1, 2, 3, 6, 0]), twin=st.booleans(),
       reg_lambda=st.sampled_from([0.0, 1.0, 7.5]), reg_alpha=st.sampled_from([0.0, 0.3]),
       gamma=st.sampled_from([0.0, 0.01]), min_child_hessian=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(d=7, m=585, levels=2, twin=True, reg_lambda=1.0, reg_alpha=0.0, gamma=0.0,
         min_child_hessian=1e-3, seed=0)
@example(d=7, m=586, levels=2, twin=True, reg_lambda=0.0, reg_alpha=0.3, gamma=0.01,
         min_child_hessian=0.5, seed=1)
@example(d=5, m=4097, levels=3, twin=True, reg_lambda=7.5, reg_alpha=0.0, gamma=0.0,
         min_child_hessian=2.0, seed=2)
@example(d=2, m=2, levels=1, twin=False, reg_lambda=1.0, reg_alpha=0.0, gamma=0.0,
         min_child_hessian=0.0, seed=3)
def test_packed_search_matches_separate_arrays(d, m, levels, twin, reg_lambda, reg_alpha,
                                               gamma, min_child_hessian, seed):
    # A node of m rows out of a fit of a few more, held as build_tree holds
    # it. Few value levels (0: continuous values) give tied values, a twin of
    # feature 0 tied gains in another feature and often another tile, and
    # zero, -0.0 and floor-level statistics edge cases of the sums.
    rng = np.random.default_rng(seed)
    n = m + int(rng.integers(0, 4))
    x_t = rng.normal(size=(d, n)) if levels == 0 else rng.integers(0, levels, size=(d, n)) * 1.0
    if twin:
        x_t[-1] = x_t[0]
    g, h = rng.normal(size=n), rng.uniform(0.05, 1.0, size=n)
    g[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
    h[rng.random(n) < 0.1] = HESS_EPS
    rows = np.sort(rng.choice(n, size=m, replace=False))
    order = rows[np.argsort(x_t[:, rows], axis=1, kind="stable")]
    xs = x_t[np.arange(d)[:, None], order]
    g_sum, h_sum = float(np.add.reduce(g[rows])), float(np.add.reduce(h[rows]))
    gh = np.empty(n, dtype=complex)
    gh.real, gh.imag = g, h
    cfg = TrainConfig(reg_lambda=reg_lambda, reg_alpha=reg_alpha, gamma=gamma,
                      min_child_hessian=min_child_hessian)
    # with no L2 penalty and no Hessian floor, a child's Hessian can round to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        got = gbdt._find_best_split(xs, order, gh, g_sum, h_sum, cfg)
        want = reference_find_best_split(xs, order, g, h, g_sum, h_sum, cfg)
    # repr tells every float apart bit for bit, 0.0 from -0.0 included
    assert repr(got) == repr(want)


def test_split_search_tiles_count_complex_values_twice():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    # A depth-1 tree on 3,000 x 5: the root's search gathers and sums 16-byte
    # complex values, so a 64 KiB tile holds one 3,000-value feature row and
    # the fit peaks near 0.74 MiB; tiles of _TILE // m = 2 rows peak near
    # 0.92 MiB, and the separate g and h arrays of 8-byte tiles near 0.88.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3000, 5))
    g, h = rng.normal(size=3000), rng.uniform(0.05, 1.0, size=3000)
    weights = np.empty(3000)
    tracemalloc.start()
    try:
        build_tree(root_blocks(x), g, h, TrainConfig(max_depth=1), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 2**20


def test_split_search_memory_stays_tiled():
    # numpy reports its buffers to tracemalloc, so the peak is deterministic.
    # The node's own (5, 6,600) blocks take 258 KiB each; a search holding
    # whole-block temporaries peaks well above 3 MiB, a tiled one near 1.5 MiB.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6600, 5))
    g, h = rng.normal(size=6600), rng.uniform(0.05, 1.0, size=6600)
    weights = np.empty(6600)
    tracemalloc.start()
    try:
        build_tree(root_blocks(x), g, h, TrainConfig(max_depth=1), weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_growth_memory_stays_near_one_copy_of_the_blocks():
    # A skewed depth-8 tree: every split peels 40 rows off the front of
    # feature 0 into a leaf, so the path down holds eight nodes of nearly
    # all n rows. A grower that keeps each ancestor's (d, m) order and value
    # blocks (16 bytes an entry) while it grows below peaks near 11 copies of
    # them; one that drops a node's blocks once its children's are cut holds
    # only the split node's, its children's, the pending siblings' and the
    # cut's positions, near 3.
    n, d, depth, peel = 20_000, 5, 8, 40
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, d))
    x[:, 0] = np.arange(n)
    g = np.zeros(n)
    for b in range(depth):
        g[b * peel:(b + 1) * peel] = 4.0 ** (depth - b) * (-1) ** b
    h = np.ones(n)
    blocks, weights = root_blocks(x), np.empty(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        root = build_tree(blocks, g, h, TrainConfig(max_depth=depth), weights)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    node, thresholds = root, []
    while not node.is_leaf:
        assert node.left.is_leaf and node.left.cover == peel
        thresholds.append(node.threshold)
        node = node.right
    assert thresholds == [peel * (b + 1) - 0.5 for b in range(depth)]
    assert peak < 4 * d * n * 16


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

    def test_more_classes_than_rows_rejected_before_counting(self, blob_dataset):
        with pytest.raises(ValueError, match="exceeds the 120 training rows"):
            train(blob_dataset, TrainConfig(num_class=10**400))

    def test_base_score_is_log_prior(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=1))
        assert np.allclose(model.base_score, np.log(np.full(3, 1 / 3)))

    def test_single_round_leaf_composition(self):
        # identical rows force one leaf per class tree, so the prediction is
        # exactly softmax(base + eta * leaf weight)
        ds = Dataset(np.ones((2, 1)), np.array([0, 1]), ("a",))
        cfg = TrainConfig(n_rounds=1, num_class=2, learning_rate=0.3)
        model = train(ds, cfg)
        weights = model.trees.weight[model.trees.root]
        assert np.all(model.trees.feature[model.trees.root] == -1)
        expected = softmax(model.base_score + 0.3 * weights)
        assert np.allclose(predict_proba(model, np.array([1.0])), expected, atol=1e-15)


class TestMonotoneInvariance:
    """Exact greedy search sees only the order of each feature's values."""

    TRANSFORMS = {
        "exp": lambda v: np.exp((v - v.mean()) / v.std()),
        "cube": lambda v: ((v - v.mean()) / v.std()) ** 3,
    }

    @pytest.fixture(scope="class")
    def fleet(self):
        return synth_dataset(SynthConfig(n_samples=150, seed=2))

    @pytest.mark.parametrize("transform", sorted(TRANSFORMS))
    @pytest.mark.parametrize("j", range(5))
    def test_increasing_transform_of_one_column(self, fleet, j, transform):
        ds = fleet
        x = ds.features.copy()
        x[:, j] = self.TRANSFORMS[transform](x[:, j])
        # strictly increasing on these values: same order, no two values merged
        order = np.argsort(ds.features[:, j], kind="stable")
        assert np.array_equal(np.diff(x[order, j]) > 0, np.diff(ds.features[order, j]) > 0)
        cfg = TrainConfig(n_rounds=10, max_depth=4, reg_alpha=0.1, gamma=0.01)
        a = train(ds, cfg)
        b = train(Dataset(x, ds.labels, ds.feature_names), cfg)
        assert np.any(a.trees.feature == j)
        for name in ("feature", "left", "right", "gain", "cover", "weight"):
            assert np.array_equal(getattr(a.trees, name), getattr(b.trees, name)), name
        other = (a.trees.feature >= 0) & (a.trees.feature != j)
        assert np.array_equal(a.trees.threshold[other], b.trees.threshold[other])
        assert np.array_equal(predict_margin_batch(a, ds.features), predict_margin_batch(b, x))


def _check_node_table(trees):
    n = len(trees.feature)
    node = np.arange(n)
    split = trees.feature >= 0
    left, right = trees.left[split], trees.right[split]
    assert np.all(trees.left[~split] == -1) and np.all(trees.right[~split] == -1)
    # pre-order: children after their parent, the left child first
    assert np.array_equal(left, node[split] + 1)
    assert np.all(right > left)
    np.testing.assert_allclose(trees.cover[split], trees.cover[left] + trees.cover[right],
                               rtol=1e-9, atol=0)
    # each tree's nodes lie between its root and the next tree's
    assert trees.root[0] == 0 and np.all(np.diff(trees.root) > 0)
    end = np.append(trees.root[1:], n)[np.searchsorted(trees.root, node[split], side="right") - 1]
    assert np.all(right < end)
    # every node is a root or the child of exactly one split
    assert np.array_equal(np.sort(np.concatenate([trees.root, left, right])), node)


class TestNodeTable:
    @pytest.mark.parametrize("depth", [1, 4, 6])
    def test_invariants_trained_and_reloaded(self, blob_dataset, depth):
        model = train(blob_dataset, TrainConfig(n_rounds=4, max_depth=depth, reg_lambda=0.1))
        reloaded = model_from_dict(model_to_dict(model))
        assert len(model.trees.root) == 4 * 3
        assert np.any(model.trees.feature >= 0)
        for trees in (model.trees, reloaded.trees):
            _check_node_table(trees)
        for name in ("feature", "left", "right", "threshold", "weight", "cover", "gain",
                     "root", "class_index", "round_index"):
            a, b = getattr(model.trees, name), getattr(reloaded.trees, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_invariants_physics_model(self):
        ds = synth_dataset(SynthConfig(n_samples=120, seed=5))
        model = train(ds, TrainConfig(n_rounds=3, max_depth=5))
        _check_node_table(model.trees)
        _check_node_table(model_from_dict(model_to_dict(model)).trees)
        assert np.array_equal(model.trees.round_index, np.repeat(np.arange(3), 3))
        assert np.array_equal(model.trees.class_index, np.tile(np.arange(3), 3))


_TABLE_FIELDS = ("feature", "left", "right", "threshold", "weight", "cover", "gain",
                 "root", "class_index", "round_index")


def _reference_table(tree_docs):
    """NodeTable fields of model.json tree documents by a recursive pre-order walk."""
    nodes, per_tree = [], []

    def add(node):
        i = len(nodes)
        if "feature" not in node:
            nodes.append([-1, -1, -1, 0.0, node["weight"], node["cover"], 0.0])
            return i
        nodes.append([node["feature"], -1, -1, node["threshold"], 0.0, node["cover"], node["gain"]])
        nodes[i][1] = add(node["left"])
        nodes[i][2] = add(node["right"])
        return i

    for doc in tree_docs:
        per_tree.append([add(doc["root"]), doc["class_index"], doc["round"]])
    columns = np.array(nodes, dtype=float).reshape(-1, 7).T
    per_tree = np.array(per_tree, dtype=np.intp).reshape(-1, 3).T
    return dict(zip(_TABLE_FIELDS, [*columns[:3].astype(np.intp), *columns[3:], *per_tree]))


def _assert_table_equal(trees, expected):
    for name in _TABLE_FIELDS:
        got, want = getattr(trees, name), expected[name]
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def _random_tree(rng, depth, d, leaf_p):
    """A tree of irregular shape; features repeat along paths when depth > d."""
    if depth == 0 or rng.random() < leaf_p:
        return TreeNode(cover=float(rng.uniform(1, 9)), weight=float(rng.normal()))
    return TreeNode(cover=float(rng.uniform(1, 9)), feature=int(rng.integers(0, d)),
                    threshold=float(rng.normal()), gain=float(rng.exponential()),
                    left=_random_tree(rng, depth - 1, d, leaf_p),
                    right=_random_tree(rng, depth - 1, d, leaf_p))


def _random_model(seed, leaf_p, depth=6):
    rng = np.random.default_rng(seed)
    grown = [(r, k, _random_tree(rng, depth, 3, leaf_p)) for r in range(4) for k in range(3)]
    cfg = TrainConfig(n_rounds=4, max_depth=depth, num_class=3)
    return Ensemble(node_table(grown), rng.normal(size=3), 3, ("a", "b", "c"), cfg)


class TestFlatten:
    @pytest.mark.parametrize("leaf_p", [0.0, 0.1, 0.4, 1.0],
                             ids=["full_depth_6", "depth_6", "ragged", "leaf_only"])
    def test_round_trip_equals_reference(self, leaf_p):
        model = _random_model(60 + int(10 * leaf_p), leaf_p)
        doc = model_to_dict(model)
        expected = _reference_table(doc["trees"])
        _assert_table_equal(model.trees, expected)
        _assert_table_equal(model_from_dict(doc).trees, expected)
        if leaf_p == 1.0:
            assert np.all(model.trees.feature == -1)

    def test_empty_table(self):
        trees = node_table([])
        _assert_table_equal(trees, _reference_table([]))
        assert all(getattr(trees, name).shape == (0,) for name in _TABLE_FIELDS)

    @staticmethod
    def _node(doc, path):
        """The node at path ("left"/"right" steps) in tree 9 of a document."""
        node = doc["trees"][9]["root"]
        for side in path:
            node = node[side]
        return node

    def test_missing_key_deep_in_a_later_tree_names_it(self):
        doc = model_to_dict(_random_model(7, 0.0, depth=3))
        self._node(doc, ("right", "left", "left")).pop("weight")
        with pytest.raises(ValueError, match="^model tree 9 is missing key 'weight'$"):
            model_from_dict(doc)

    # splits at depth 2 and a leaf at depth 3 of a full depth-3 tree
    @pytest.mark.parametrize("path, key, value", [
        (("left", "right"), "threshold", None), (("left", "right"), "threshold", "abc"),
        (("left", "right"), "threshold", [1.0]), (("left", "right"), "gain", None),
        (("left", "right"), "cover", None), (("left", "right"), "feature", "abc"),
        (("left", "right"), "feature", None), (("left", "left", "right"), "weight", "abc"),
    ])
    def test_malformed_value_names_the_tree(self, path, key, value):
        doc = model_to_dict(_random_model(7, 0.0, depth=3))
        self._node(doc, path)[key] = value
        with pytest.raises(ValueError, match="^model tree 9 is malformed: "):
            model_from_dict(doc)


def _single_leaf_model(weight=2.0, eta=0.3, num_class=2):
    # one tree for class 0 only; class 1 keeps its base score
    trees = node_table([(0, 0, TreeNode(cover=4.0, weight=weight))])
    cfg = TrainConfig(n_rounds=1, learning_rate=eta, num_class=num_class)
    return Ensemble(trees, np.array([0.1, -0.2]), num_class, ("a", "b"), cfg)


class TestPredict:
    def test_zero_tree_ensemble_returns_base(self):
        cfg = TrainConfig(num_class=2)
        model = Ensemble(node_table([]), np.array([0.3, -0.3]), 2, ("a",), cfg)
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

    def test_batch_equals_tree_walk(self):
        # reference: walk each hand-built tree per row, adding tree by tree
        rng = np.random.default_rng(8)

        def grow(depth):
            if depth == 0 or rng.random() < 0.2:
                return TreeNode(cover=1.0, weight=float(rng.normal()))
            return TreeNode(cover=1.0, feature=int(rng.integers(0, 3)),
                            threshold=float(rng.integers(-2, 3)), gain=1.0,
                            left=grow(depth - 1), right=grow(depth - 1))

        trees = [(r, k, grow(5)) for r in range(4) for k in range(3)]
        cfg = TrainConfig(n_rounds=4, learning_rate=0.3)
        model = Ensemble(node_table(trees), np.array([0.1, 0.2, -0.3]), 3, ("a", "b", "c"), cfg)
        x = rng.integers(-3, 4, size=(50, 3)).astype(float)  # many values on thresholds
        expected = np.tile(model.base_score, (len(x), 1))
        for i, row in enumerate(x):
            for _, k, root in trees:
                expected[i, k] += 0.3 * _walk(root, row)
        assert np.array_equal(predict_margin_batch(model, x), expected)

    def test_dimension_mismatch(self):
        model = _single_leaf_model()
        with pytest.raises(ValueError):
            predict_margin(model, np.array([1.0]))
        with pytest.raises(ValueError):
            predict_margin_batch(model, np.ones((3, 5)))


def _rounds_model(n_rounds, seed=8):
    """A 3-class model of n_rounds rounds of random depth-5 trees, eta 0.3."""
    rng = np.random.default_rng(seed)
    grown = [(r, k, _random_tree(rng, 5, 3, 0.2)) for r in range(n_rounds) for k in range(3)]
    cfg = TrainConfig(n_rounds=n_rounds, learning_rate=0.3)
    return Ensemble(node_table(grown), np.array([0.1, 0.2, -0.3]), 3, ("a", "b", "c"), cfg)


class TestPredictionBlocks:
    """Batches of several row blocks on a 30-round model: 90 trees, 91 rows a block."""

    @pytest.fixture(scope="class")
    def model(self):
        return _rounds_model(30)

    @pytest.fixture(scope="class")
    def x(self, model):
        block = gbdt._TILE // len(model.trees.root)
        n = 4 * block + 5  # four full blocks and a partial one
        return np.random.default_rng(9).normal(size=(n, 3))

    def test_batch_equals_one_row(self, model, x):
        batch = predict_margin_batch(model, x)
        assert np.array_equal(batch, [predict_margin(model, row) for row in x])

    def test_staged_rounds_equal_prefix_models(self, model, x):
        staged = staged_margins(model, x)
        assert np.array_equal(staged[:, -1], predict_margin_batch(model, x))
        prefix = _rounds_model(7)  # the same generator draws the same first 7 rounds
        assert np.array_equal(staged[:, 6], predict_margin_batch(prefix, x))

    def test_prediction_memory_stays_blocked(self, model):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic.
        # Descending every row at once holds several (20,000, 90) index and
        # flag arrays, over 70 MiB; 91-row blocks hold under 1 MiB.
        x = np.random.default_rng(10).normal(size=(20_000, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            predict_margin_batch(model, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestStagedMargins:
    """staged_margins on a 120-vehicle fleet boosted for 12 rounds."""

    @pytest.fixture(scope="class")
    def fleet(self):
        return synth_dataset(SynthConfig(n_samples=120, seed=0))

    @pytest.fixture(scope="class")
    def staged(self, fleet):
        model = train(fleet, TrainConfig(n_rounds=12))
        return model, staged_margins(model, fleet.features)

    def test_last_round_equals_batch_margins(self, fleet, staged):
        model, margins = staged
        assert margins.shape == (120, 12, 3)
        assert np.array_equal(margins[:, -1], predict_margin_batch(model, fleet.features))

    @pytest.mark.parametrize("rounds", [1, 5, 11])
    def test_prefix_equals_shorter_model(self, fleet, staged, rounds):
        shorter = train(fleet, TrainConfig(n_rounds=rounds))
        assert np.array_equal(staged[1][:, rounds - 1],
                              predict_margin_batch(shorter, fleet.features))


    def test_memory_holds_one_array_of_steps(self):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic.
        # 20,000 rows of a 30-round, 3-class model: the (n, 31, 3) result is
        # 14.2 MiB, and a cumulative sum held beside the steps it sums
        # doubles the peak to 28.4 MiB.
        model = _rounds_model(30)
        x = np.random.default_rng(10).normal(size=(20_000, 3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            staged_margins(model, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


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

    def test_save_refuses_what_load_refuses(self, tmp_path):
        # 3 trees under a 1-round, 2-class config
        leaf = TreeNode(cover=1.0, weight=0.5)
        trees = node_table([(0, 0, leaf), (0, 1, leaf), (1, 0, leaf)])
        model = Ensemble(trees, np.array([0.1, -0.1]), 2, ("a",), TrainConfig(n_rounds=1, num_class=2))
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="3 trees") as saving:
            save_model(model, path)
        assert not path.exists()
        with pytest.raises(ValueError) as loading:
            model_from_dict(model_to_dict(model))
        assert str(saving.value) == str(loading.value)

    def test_multiclass_equality_is_a_bool(self, blob_dataset):
        model = train(blob_dataset, TrainConfig(n_rounds=3))
        assert model.num_class == 3
        loaded = model_from_dict(model_to_dict(model))
        assert (model == loaded) is True
        assert (model != loaded) is False
        shifted = model_from_dict({**model_to_dict(model), "base_score": [0.0, 0.0, 0.0]})
        assert (model == shifted) is False
        assert model != "model"

    @pytest.mark.parametrize("key, value, message", [
        ("base_score", 0.5, "model base_score is float, expected a list"),
        ("base_score", [0.0, False, 0.0], "model base_score must be a number, got False"),
        ("scaler", {"mean": "0", "std": [1.0]}, "model scaler mean is str, expected a list"),
    ])
    def test_number_lists_take_json_numbers_only(self, key, value, message):
        doc = {**model_to_dict(_single_leaf_model()), key: value}
        with pytest.raises(ValueError, match=message):
            model_from_dict(doc)

    def test_version_check(self):
        with pytest.raises(ValueError, match="format version"):
            model_from_dict({"format_version": 99})

    def test_overflowing_margin_refused_by_name(self):
        # class 0's two trees, every leaf at 1.7e308, learning rate 1: its margin overflows
        doc = _margin_doc(lambda leaf: 1.7e308)
        doc["config"]["learning_rate"] = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^model class 0 has a worst-case margin of inf"):
                model_from_dict(doc)

    def test_margin_at_the_limit_predicts_and_explains_finitely(self):
        # class 0's leaves alternate between +-limit/2 in its two trees, with base score 0
        limit = sys.float_info.max / (4 * (len(DEFAULT_FEATURES) + 1))
        signs = itertools.cycle([1.0, -1.0])
        doc = _margin_doc(lambda leaf: next(signs) * limit / 2)
        doc["config"]["learning_rate"] = 1
        doc["base_score"][0] = 0.0
        x = synth_dataset(SynthConfig(n_samples=40, seed=5)).features
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = model_from_dict(doc)
            explained = explain_matrix(model, x)
            outputs = (predict_proba_batch(model, x), explained.base_value, explained.phi,
                       interaction_values(model, x[:8], explained.phi[:8]))
        assert all(np.isfinite(a).all() for a in outputs)
        assert np.abs(explained.phi[..., 0]).max() > limit / 64
        leaf = _rightmost_leaf(next(t for t in doc["trees"] if t["class_index"] == 0)["root"])
        leaf["weight"] = math.copysign(math.nextafter(limit / 2, math.inf), leaf["weight"])
        with pytest.raises(ValueError, match="^model class 0 has a worst-case margin"):
            model_from_dict(doc)


def _rightmost_leaf(node):
    while "right" in node:
        node = node["right"]
    return node


def _margin_doc(weight):
    """model.json of a 2-round, depth-2 fit on 60 vehicles; class 0's leaf weights from weight(leaf)."""
    doc = model_to_dict(train(synth_dataset(SynthConfig(n_samples=60)),
                              TrainConfig(n_rounds=2, max_depth=2)))
    stack = [t["root"] for t in doc["trees"] if t["class_index"] == 0]
    while stack:
        node = stack.pop()
        if "weight" in node:
            node["weight"] = weight(node)
        else:
            stack += node["left"], node["right"]
    return doc


def _oracle_doc(model):
    """model.json's document as a dict per node, built recursively from the node table."""
    columns = [getattr(model.trees, f.name).tolist() for f in fields(model.trees)]
    feature, left, right, threshold, weight, cover, gain = columns[:7]

    def node(i):
        if feature[i] < 0:
            return {"cover": cover[i], "weight": weight[i]}
        return {"cover": cover[i], "feature": feature[i], "threshold": threshold[i],
                "gain": gain[i], "left": node(left[i]), "right": node(right[i])}

    scaler = model.scaler
    return {
        "format_version": gbdt.MODEL_FORMAT_VERSION,
        "model_type": "evperf-gbdt",
        "num_class": model.num_class,
        "base_score": [float(b) for b in model.base_score],
        "feature_names": list(model.feature_names),
        "config": asdict(model.config),
        "scaler": None if scaler is None else {"mean": [float(m) for m in scaler.mean],
                                               "std": [float(s) for s in scaler.std]},
        "trees": [{"round": r, "class_index": k, "root": node(i)}
                  for i, k, r in zip(*columns[7:])],
    }


def _oracle_text(model):
    return json.dumps(_oracle_doc(model), indent=1, sort_keys=True)


def _with_columns(model, **columns):
    """model with some node-table columns edited by functions of (column, split mask)."""
    trees = model.trees
    split = trees.feature >= 0
    edited = {name: edit(getattr(trees, name).copy(), split) for name, edit in columns.items()}
    return replace(model, trees=replace(trees, **edited))


def _set(values, where, value):
    values[where] = value
    return values


def _writer_cases():
    ragged = _random_model(64, 0.4)
    scaler = ScalerParams(mean=np.array([1.5, -0.0, 1e300]), std=np.array([2.0, 1e-300, 0.1]))
    return {
        "full_depth": _random_model(60, 0.0),
        "ragged": ragged,
        "leaf_only": _random_model(70, 1.0),
        "nan_gain_inf_cover": _with_columns(
            ragged, gain=lambda c, split: _set(c, np.flatnonzero(split)[[0, -1]], np.nan),
            cover=lambda c, split: _set(_set(c, np.flatnonzero(split)[1], np.inf),
                                        np.flatnonzero(~split)[3], -np.inf)),
        "negative_zero": _with_columns(
            ragged, threshold=lambda c, split: _set(c, split, -0.0),
            weight=lambda c, split: _set(c, np.flatnonzero(~split)[::2], -0.0)),
        "non_ascii_names": replace(ragged, feature_names=("Zellen", "größe_°C", "トルク")),
        "scaler": replace(ragged, scaler=scaler),
    }


class TestWriter:
    """save_model and model_to_dict against a dict-per-node serializer as the oracle."""

    @pytest.mark.parametrize("case", list(_writer_cases()))
    def test_matches_the_dict_serializer(self, case, tmp_path):
        model = _writer_cases()[case]
        expected = _oracle_text(model)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == expected.encode("utf-8")
        # compared as text, since NaN is not equal to itself in a dict
        assert json.dumps(model_to_dict(model), indent=1, sort_keys=True) == expected

    def test_cases_reach_the_edges(self):
        cases = _writer_cases()
        assert np.all(cases["full_depth"].trees.feature[cases["full_depth"].trees.root] >= 0)
        assert np.all(cases["leaf_only"].trees.feature == -1)
        text = _oracle_text(cases["nan_gain_inf_cover"])
        assert text.count('"gain": NaN') == 2
        assert '"cover": Infinity' in text and '"cover": -Infinity' in text
        assert '"threshold": -0.0' in _oracle_text(cases["negative_zero"])
        assert "\\u00f6" in _oracle_text(cases["non_ascii_names"])

    def test_zero_tree_model(self):
        model = Ensemble(node_table([]), np.array([0.3, -0.3]), 2, ("a",), TrainConfig(num_class=2))
        assert json.dumps(model_to_dict(model), indent=1, sort_keys=True) == _oracle_text(model)
        assert model_to_dict(model)["trees"] == []


class TestAtomicSave:
    def test_failed_replace_keeps_the_previous_file(self, blob_dataset, tmp_path, monkeypatch):
        old, new = (train(blob_dataset, TrainConfig(n_rounds=n)) for n in (2, 3))
        path = tmp_path / "model.json"
        save_model(old, path)
        before = path.read_bytes()

        def fail(src, dst):
            assert Path(src).read_text(encoding="utf-8") == _oracle_text(new)  # fully written
            raise OSError("disk gone")

        monkeypatch.setattr(gbdt.os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            save_model(new, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_mode_matches_a_plain_file(self, blob_dataset, tmp_path):
        save_model(train(blob_dataset, TrainConfig(n_rounds=1)), tmp_path / "model.json")
        (tmp_path / "plain.json").write_text("{}")
        assert ((tmp_path / "model.json").stat().st_mode
                == (tmp_path / "plain.json").stat().st_mode)
