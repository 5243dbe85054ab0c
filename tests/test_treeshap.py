import numpy as np
import pytest

from evperf import treeshap
from evperf.data import Dataset, apply_scaler, fit_scaler
from evperf.gbdt import (
    Ensemble,
    ModelInputError,
    TrainConfig,
    TreeNode,
    model_from_dict,
    model_to_dict,
    node_table,
    predict_margin,
    predict_margin_batch,
    train,
)
from evperf.physics import SynthConfig, synth_dataset
from evperf.treeshap import (
    Explanation,
    dependence_data,
    dependence_slopes,
    explain_matrix,
    force_plot_data,
    global_importance,
    interaction_values,
    shap_values,
)

from shap_oracles import brute_force_interactions, brute_force_shapley, masked_weighted_products


def make_model(trees, base, d, eta=0.3):
    base = np.asarray(base, dtype=float)
    cfg = TrainConfig(n_rounds=1, learning_rate=eta, num_class=base.shape[0])
    return Ensemble(node_table(trees), base, base.shape[0], tuple(f"f{i}" for i in range(d)), cfg)


def random_tree(rng, depth, d, cover, leaf_p=0.25):
    """Random tree; features may repeat along a path, covers stay consistent."""
    if depth == 0 or rng.random() < leaf_p:
        return TreeNode(cover=cover, weight=float(rng.normal()))
    frac = float(rng.uniform(0.15, 0.85))
    return TreeNode(
        cover=cover,
        feature=int(rng.integers(0, d)),
        threshold=float(rng.normal()),
        gain=1.0,
        left=random_tree(rng, depth - 1, d, cover * frac, leaf_p),
        right=random_tree(rng, depth - 1, d, cover * (1 - frac), leaf_p),
    )


def random_model(rng, max_trees=5, max_depth=3, max_d=6):
    d = int(rng.integers(1, max_d + 1))
    num_class = int(rng.integers(2, 4))
    trees = [
        (0, int(rng.integers(0, num_class)), random_tree(rng, max_depth, d, float(rng.uniform(5, 50))))
        for _ in range(int(rng.integers(1, max_trees + 1)))
    ]
    return make_model(trees, rng.normal(size=num_class), d, eta=float(rng.uniform(0.05, 1.0)))


class TestShapValues:
    def test_single_leaf_tree(self):
        model = make_model([(0, 0, TreeNode(cover=3.0, weight=4.0))], [0.5, 0.0], 2)
        e = shap_values(model, np.zeros(2))
        assert np.array_equal(e.phi[0], np.zeros((2, 2)))
        assert e.base_value[0] == pytest.approx(0.5 + 0.3 * 4.0)
        assert e.base_value[1] == pytest.approx(0.0)

    def test_depth_one_hand_formula(self):
        # split on feature 0, leaves (a=2, cover 4) and (b=-1, cover 6), x routed right
        root = TreeNode(cover=10.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=4.0, weight=2.0),
                        right=TreeNode(cover=6.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 2, eta=0.5)
        e = shap_values(model, np.array([1.0, 0.0]))
        expected = 0.5 * (-1.0 - (4.0 * 2.0 + 6.0 * -1.0) / 10.0)
        assert e.phi[0][0, 0] == pytest.approx(expected, abs=1e-12)
        assert e.phi[0][1, 0] == 0.0

    def test_local_accuracy_on_trained_model(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] + x[:, 1] ** 2 > 0.5).astype(int)
        if y.min() == y.max():  # pragma: no cover - guard for exotic rng changes
            y[0] = 1 - y[0]
        model = train(Dataset(x, y, ("a", "b", "c", "d")), TrainConfig(n_rounds=20, num_class=2))
        for row in x[:10]:
            e = shap_values(model, row)
            assert np.allclose(e.base_value + e.phi[0].sum(axis=0), predict_margin(model, row), atol=1e-6)

    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            model = random_model(rng)
            x = rng.normal(size=len(model.feature_names))
            assert np.allclose(shap_values(model, x).phi[0], brute_force_shapley(model, x), atol=1e-9)

    def test_matches_brute_force_on_deep_trees_with_feature_reuse(self):
        # few features + depth 6 forces repeated splits on one path, which
        # exercises the path unwinding logic hard
        rng = np.random.default_rng(77)
        for _ in range(15):
            d = int(rng.integers(1, 5))
            trees = [(0, int(rng.integers(0, 2)), random_tree(rng, 6, d, 30.0, leaf_p=0.15))
                     for _ in range(3)]
            model = make_model(trees, rng.normal(size=2), d, eta=0.4)
            x = rng.normal(size=d)
            assert np.allclose(shap_values(model, x).phi[0], brute_force_shapley(model, x), atol=1e-9)

    def test_dummy_feature_has_exactly_zero_phi(self):
        root = TreeNode(cover=2.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=1.0, weight=1.0),
                        right=TreeNode(cover=1.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 3)
        e = shap_values(model, np.array([0.2, 9.0, -9.0]))
        assert e.phi[0][1, 0] == 0.0
        assert e.phi[0][2, 0] == 0.0

    def test_symmetry_axiom(self):
        # features 0 and 1 play interchangeable roles; x treats them the same
        def stump(f):
            return TreeNode(cover=2.0, feature=f, threshold=0.0, gain=1.0,
                            left=TreeNode(cover=1.0, weight=-1.0),
                            right=TreeNode(cover=1.0, weight=1.0))

        model = make_model([(0, 0, stump(0)), (0, 0, stump(1))], [0.0, 0.0], 2)
        e = shap_values(model, np.array([0.7, 0.7]))
        assert e.phi[0][0, 0] == pytest.approx(e.phi[0][1, 0], abs=1e-12)

    def test_input_shape_check(self):
        model = make_model([(0, 0, TreeNode(cover=1.0, weight=0.0))], [0.0, 0.0], 2)
        with pytest.raises(ValueError):
            shap_values(model, np.zeros(3))

    def test_brute_force_feature_cap(self):
        model = make_model([(0, 0, TreeNode(cover=1.0, weight=0.0))], [0.0, 0.0], 13)
        with pytest.raises(ValueError, match="12"):
            brute_force_shapley(model, np.zeros(13))


def stump(feature, threshold, left=1.0, right=-1.0, cover=(1.0, 1.0)):
    return TreeNode(cover=sum(cover), feature=feature, threshold=threshold, gain=1.0,
                    left=TreeNode(cover=cover[0], weight=left),
                    right=TreeNode(cover=cover[1], weight=right))


def assert_matches_oracles(model, x):
    e = shap_values(model, x)
    assert np.allclose(e.phi[0], brute_force_shapley(model, x), atol=1e-12)
    assert np.allclose((e.base_value + e.phi.sum(axis=1))[0], predict_margin(model, x), atol=1e-12)
    assert np.allclose(interaction_values(model, x[None])[0], brute_force_interactions(model, x),
                       atol=1e-12)


class TestEdgeCases:
    def test_threshold_value_goes_right(self):
        model = make_model([(0, 0, stump(0, 0.5, left=2.0, right=-1.0, cover=(3.0, 1.0)))],
                           [0.0, 0.0], 1, eta=0.5)
        x = np.array([0.5])
        assert predict_margin(model, x)[0] == pytest.approx(0.5 * -1.0)
        e = shap_values(model, x)
        assert e.phi[0][0, 0] == pytest.approx(0.5 * (-1.0 - (3.0 * 2.0 + 1.0 * -1.0) / 4.0))
        assert_matches_oracles(model, x)

    @pytest.mark.parametrize("x0", [0.5, -0.5, 1.5, 3.0])
    def test_feature_split_three_times_on_one_path(self, x0):
        # the path to leaf 5.0 tests feature 0 against 0, 2 and 1, merging into
        # [0, 1); a feature 1 split sits between the repeats
        inner = TreeNode(cover=6.0, feature=0, threshold=1.0, gain=1.0,
                         left=TreeNode(cover=2.0, weight=5.0),
                         right=TreeNode(cover=4.0, weight=-2.0))
        middle = TreeNode(cover=10.0, feature=1, threshold=0.0, gain=1.0,
                          left=inner, right=TreeNode(cover=4.0, weight=1.0))
        upper = TreeNode(cover=16.0, feature=0, threshold=2.0, gain=1.0,
                         left=middle, right=TreeNode(cover=6.0, weight=3.0))
        root = TreeNode(cover=20.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=4.0, weight=-4.0), right=upper)
        model = make_model([(0, 1, root)], [0.2, -0.1], 2, eta=0.7)
        assert_matches_oracles(model, np.array([x0, -1.0]))
        assert_matches_oracles(model, np.array([x0, 1.0]))

    def test_leaf_only_trees(self):
        trees = [
            (0, 0, TreeNode(cover=5.0, weight=0.8)),
            (0, 1, stump(1, 0.0, cover=(2.0, 3.0))),
            (1, 1, TreeNode(cover=5.0, weight=-0.3)),
        ]
        model = make_model(trees, [0.1, 0.2], 2, eta=0.5)
        e = shap_values(model, np.array([1.0, -1.0]))
        assert e.base_value == pytest.approx([0.1 + 0.5 * 0.8, 0.2 + 0.5 * ((2.0 - 3.0) / 5.0 - 0.3)])
        assert np.array_equal(e.phi[0][:, 0], np.zeros(2))
        assert_matches_oracles(model, np.array([1.0, -1.0]))

    def test_explain_matrix_rows_equal_shap_values(self, monkeypatch):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, 4))
        y = (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(int)
        model = train(Dataset(x, y, ("a", "b", "c", "d")), TrainConfig(n_rounds=10, num_class=2))
        whole = explain_matrix(model, x)
        # small blocks split both the rows and each group's paths
        monkeypatch.setattr(treeshap, "_BLOCK", 50)
        blocked = explain_matrix(model, x)
        for i, row in enumerate(x):
            single = shap_values(model, row)
            assert np.array_equal(blocked.phi[i], single.phi[0])
            assert np.array_equal(blocked.base_value, single.base_value)
            assert np.allclose(whole.phi[i], single.phi[0], atol=1e-12)

    def test_path_set_is_cached_and_not_persisted(self):
        model = random_model(np.random.default_rng(5))
        doc = model_to_dict(model)
        x = np.zeros(len(model.feature_names))
        shap_values(model, x)
        paths = model._shap_paths
        assert paths is not None
        interaction_values(model, x[None])
        assert model._shap_paths is paths
        assert model_to_dict(model) == doc
        assert "_shap_paths" not in repr(model)


class TestRejectedInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [
        lambda m, x: shap_values(m, x),
        lambda m, x: explain_matrix(m, np.stack([np.zeros_like(x), x])),
        lambda m, x: interaction_values(m, x[None]),
        lambda m, x: predict_margin(m, x),
        lambda m, x: predict_margin_batch(m, np.stack([np.zeros_like(x), x])),
    ], ids=["shap_values", "explain_matrix", "interaction_values", "predict_margin",
            "predict_margin_batch"])
    def test_non_finite_features(self, entry, bad):
        model = make_model([(0, 0, stump(1, 0.0))], [0.0, 0.0], 3)
        with pytest.raises(ModelInputError, match="NaN or infinite"):
            entry(model, np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("cover", [0.0, -1.0, np.nan])
    def test_non_positive_internal_cover(self, cover):
        root = TreeNode(cover=4.0, feature=0, threshold=0.0, gain=1.0,
                        left=stump(1, 0.0, cover=(0.0, 0.0)),
                        right=TreeNode(cover=4.0, weight=1.0))
        root.left.cover = cover
        model = make_model([(0, 0, root)], [0.0, 0.0], 2)
        with pytest.raises(ModelInputError, match="cover"):
            shap_values(model, np.zeros(2))

    def test_zero_leaf_cover_is_allowed(self):
        model = make_model([(0, 0, stump(0, 0.0, cover=(0.0, 2.0)))], [0.0, 0.0], 1)
        assert_matches_oracles(model, np.array([-1.0]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, what", [
        (lambda m, x: explain_matrix(m, x), "attributions"),
        (lambda m, x: interaction_values(m, x, np.zeros((1, 2, 2))), "interaction values"),
    ], ids=["attributions", "interactions"])
    def test_inflating_child_covers_named(self, entry, what):
        # zero fractions 1e200 on feature 0 and 1e-200 on feature 1 along the left
        # path: finite, as is its base term, but the weight times 1e200 is not
        inner = TreeNode(cover=1e200, feature=1, threshold=0.0, gain=1.0,
                         left=TreeNode(cover=1.0, weight=1e110),
                         right=TreeNode(cover=1.0, weight=0.0))
        root = TreeNode(cover=1.0, feature=0, threshold=0.0, gain=1.0, left=inner,
                        right=TreeNode(cover=1.0, weight=0.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 2, eta=1.0)
        assert np.isfinite(treeshap._build_paths(model).base_value).all()
        with pytest.raises(ModelInputError, match=f"model TreeSHAP {what} overflow"):
            entry(model, np.array([[-1.0, -1.0]]))

    @pytest.mark.filterwarnings("error")
    def test_inflated_base_value_named(self):
        # zero fractions 1e210 and 1e100 whose product, the path's base term, overflows
        inner = TreeNode(cover=1e200, feature=1, threshold=0.0, gain=1.0,
                         left=TreeNode(cover=1e300, weight=1.0),
                         right=TreeNode(cover=1.0, weight=0.0))
        root = TreeNode(cover=1e-10, feature=0, threshold=0.0, gain=1.0, left=inner,
                        right=TreeNode(cover=1.0, weight=0.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 2, eta=1.0)
        with pytest.raises(ModelInputError, match="model TreeSHAP base values overflow"):
            explain_matrix(model, np.zeros((1, 2)))


class TestGlobalImportance:
    def _explanation(self, phi, names=None):
        phi = np.asarray(phi, dtype=float)
        n, d, k = phi.shape
        names = names or tuple(f"f{i}" for i in range(d))
        return Explanation(np.zeros(k), phi, np.zeros((n, d)), tuple(names))

    def test_basic_ranking(self):
        ranked = global_importance(self._explanation([[[1.0], [0.0]], [[-1.0], [0.0]]]))
        assert ranked[0].name == "f0"
        assert ranked[0].overall == pytest.approx(1.0)
        assert ranked[1].overall == 0.0

    def test_all_zero_keeps_index_order(self):
        ranked = global_importance(self._explanation(np.zeros((1, 3, 2))))
        assert [fi.index for fi in ranked] == [0, 1, 2]
        assert all(fi.overall == 0.0 for fi in ranked)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(4)
        phi = rng.normal(size=(4, 3))
        r1 = global_importance(self._explanation(phi[None]))
        r2 = global_importance(self._explanation(2.0 * phi[None]))
        assert [fi.index for fi in r1] == [fi.index for fi in r2]
        for a, b in zip(r1, r2):
            assert b.overall == pytest.approx(2.0 * a.overall)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            global_importance(self._explanation(np.zeros((0, 2, 1))))


class TestDependence:
    def test_one_point_per_sample(self):
        rng = np.random.default_rng(6)
        model = random_model(rng)
        d = len(model.feature_names)
        x = rng.normal(size=(3, d))
        exps = explain_matrix(model, x)
        points = dependence_data(exps, 0, 0)
        assert len(points) == 3
        assert [p[0] for p in points] == [pytest.approx(v) for v in x[:, 0]]

    def test_unused_feature_all_zero(self):
        root = TreeNode(cover=2.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=1.0, weight=1.0),
                        right=TreeNode(cover=1.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 2)
        exps = explain_matrix(model, np.random.default_rng(0).normal(size=(5, 2)))
        assert all(phi == 0.0 for _, phi in dependence_data(exps, 1, 0))

    def test_index_errors(self):
        model = make_model([(0, 0, TreeNode(cover=1.0, weight=0.0))], [0.0, 0.0], 2)
        exps = explain_matrix(model, np.zeros((1, 2)))
        with pytest.raises(IndexError):
            dependence_data(exps, 5, 0)
        with pytest.raises(IndexError):
            dependence_data(exps, 0, 5)

    def test_raw_values_used_when_scaler_present(self):
        from evperf.data import ScalerParams

        root = TreeNode(cover=2.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=1.0, weight=1.0),
                        right=TreeNode(cover=1.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 1)
        model.scaler = ScalerParams(mean=np.array([10.0]), std=np.array([2.0]))
        exps = explain_matrix(model, np.array([[1.0], [-1.0]]))
        values = [v for v, _ in dependence_data(exps, 0, 0)]
        assert values == [pytest.approx(12.0), pytest.approx(8.0)]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_unscaling_is_refused(self):
        # a loadable scaler whose std[0] takes features * std + mean past the float range
        fleet = synth_dataset(SynthConfig(n_samples=60))
        scaler = fit_scaler(fleet.features)
        x = apply_scaler(fleet.features, scaler)
        doc = model_to_dict(train(Dataset(x, fleet.labels, fleet.feature_names, scaler=scaler),
                                  TrainConfig(n_rounds=2, max_depth=2)))
        doc["scaler"]["std"][0] = 1.7e308
        model = model_from_dict(doc)
        assert np.abs(x[:, 0]).max() > 1.1  # so that some row overflows
        with pytest.raises(ModelInputError, match="^model scaler overflows"):
            explain_matrix(model, x)

    @staticmethod
    def _curve(x, phi):
        """A one-feature, one-class Explanation with the given values and attributions."""
        x = np.asarray(x, dtype=float)
        return Explanation(np.zeros(1), np.asarray(phi, dtype=float)[:, None, None],
                           x[:, None], ("f0",))

    def test_slopes_of_a_saturating_curve(self):
        # phi = x up to 50, flat beyond: ten rows per decile bin
        x = np.arange(100.0)
        bottom, top = dependence_slopes(self._curve(x, np.minimum(x, 50.0)), 0, 0)
        assert bottom == pytest.approx(1.0) and top == pytest.approx(0.0, abs=1e-12)

    def test_slopes_are_those_of_the_decile_means(self):
        # phi = x^2, ten rows per decile bin; each end slope is a line through three bin means
        x = np.arange(100.0)
        bottom, top = dependence_slopes(self._curve(x, x * x), 0, 0)
        means_x = x.reshape(10, 10).mean(axis=1)
        means_phi = (x * x).reshape(10, 10).mean(axis=1)
        assert bottom == pytest.approx((means_phi[2] - means_phi[0]) / (means_x[2] - means_x[0]))
        assert top == pytest.approx((means_phi[9] - means_phi[7]) / (means_x[9] - means_x[7]))

    def test_empty_bin_rejected(self):
        tied = self._curve([1.0] * 50 + [2.0] * 50, np.zeros(100))
        with pytest.raises(ValueError, match="empty"):
            dependence_slopes(tied, 0, 0)


class TestInteractions:
    def test_depth_one_tree(self):
        root = TreeNode(cover=10.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=4.0, weight=2.0),
                        right=TreeNode(cover=6.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 3, eta=0.5)
        x = np.array([1.0, 0.0, 0.0])
        e = shap_values(model, x)
        inter = interaction_values(model, x[None])[0]
        off_diag = inter.copy()
        for i in range(3):
            off_diag[i, i] = 0.0
        assert np.allclose(off_diag, 0.0, atol=1e-12)
        assert inter[0, 0, 0] == pytest.approx(e.phi[0][0, 0], abs=1e-9)

    def test_symmetry_exact_and_rows_sum_to_phi(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, max_trees=4, max_d=4)
            x = rng.normal(size=len(model.feature_names))
            e = shap_values(model, x)
            inter = interaction_values(model, x[None])[0]
            assert np.array_equal(inter, inter.transpose(1, 0, 2))
            assert np.allclose(inter.sum(axis=1), e.phi[0], atol=1e-6)
            total = e.base_value + inter.sum(axis=(0, 1))
            assert np.allclose(total, predict_margin(model, x), atol=1e-6)

    def test_single_feature_model(self):
        root = TreeNode(cover=2.0, feature=0, threshold=0.0, gain=1.0,
                        left=TreeNode(cover=1.0, weight=1.0),
                        right=TreeNode(cover=1.0, weight=-1.0))
        model = make_model([(0, 0, root)], [0.0, 0.0], 1)
        inter = interaction_values(model, np.array([[0.4]]))[0]
        e = shap_values(model, np.array([0.4]))
        assert inter[0, 0, 0] == pytest.approx(e.phi[0][0, 0])


@pytest.fixture(scope="module")
def default_fleet():
    """The default fleet in model space, its labels and the default model."""
    dataset = synth_dataset(SynthConfig())
    scaler = fit_scaler(dataset.features)
    x = apply_scaler(dataset.features, scaler)
    model = train(Dataset(x, dataset.labels, dataset.feature_names, scaler=scaler), TrainConfig())
    return model, x, dataset.labels


# (case, the longest path it must reach)
TABLE_CASES = [("default", 4), ("depth_6", 5), ("random_depth_6", 6)]


@pytest.fixture(scope="module", params=TABLE_CASES, ids=[c for c, _ in TABLE_CASES])
def table_case(request, default_fleet):
    """A model and 2^L rows, L its longest path, so every group takes the table branch."""
    case, min_length = request.param
    model, x, labels = default_fleet
    if case == "depth_6":
        model = train(Dataset(x, labels, model.feature_names), TrainConfig(n_rounds=20, max_depth=6))
    elif case == "random_depth_6":
        rng = np.random.default_rng(66)
        trees = [(0, int(rng.integers(0, 3)), random_tree(rng, 6, 6, 40.0, leaf_p=0.05))
                 for _ in range(6)]
        model = make_model(trees, rng.normal(size=3), 6, eta=0.3)
        x = rng.normal(size=(1 << 6, 6))
    length = max(g.feature.shape[1] for g in treeshap._paths(model).groups)
    assert length >= min_length
    return model, x[:1 << length]


class TestTableBranch:
    def test_batch_rows_equal_one_row_calls(self, table_case):
        model, x = table_case
        for row, phi in zip(x, explain_matrix(model, x).phi):
            single = shap_values(model, row).phi[0]
            assert np.array_equal(phi, single)
            assert np.array_equal(np.signbit(phi), np.signbit(single))

    def test_batch_interactions_equal_one_row_calls(self, table_case):
        model, x = table_case
        batch = interaction_values(model, x)
        for row, phi_ij in zip(x, batch):
            assert np.array_equal(phi_ij, interaction_values(model, row[None])[0])

    def test_given_phi_equals_computed(self, table_case):
        model, x = table_case
        for row in x[:8]:
            e = shap_values(model, row)
            given = interaction_values(model, row[None], phi=e.phi[0][None])[0]
            computed = interaction_values(model, row[None])[0]
            assert np.array_equal(given, computed)
            assert np.allclose(e.base_value + given.sum(axis=(0, 1)), predict_margin(model, row),
                               atol=1e-9)

    def test_batch_rows_match_oracles(self, table_case):
        model, x = table_case
        explained, inter = explain_matrix(model, x), interaction_values(model, x)
        for i in np.linspace(0, len(x) - 1, 4).astype(int):
            assert np.allclose(explained.phi[i], brute_force_shapley(model, x[i]), atol=1e-9)
            assert np.allclose(inter[i], brute_force_interactions(model, x[i]), atol=1e-9)

    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_pattern_products_equal_weighted_products(self, length):
        # zero fractions include exact zeros, the fraction of a zero leaf cover
        rng = np.random.default_rng(length)
        zero = rng.uniform(0.0, 1.0, size=(5, length))
        zero[rng.random(zero.shape) < 0.2] = 0.0
        patterns = (np.arange(1 << length)[:, None] >> np.arange(length) & 1).astype(bool)
        one = np.broadcast_to(patterns[:, None], (1 << length, 5, length))
        first, second = np.triu_indices(length, 1)
        cases = [(treeshap._kept(length, np.arange(length)), treeshap._weights(length))]
        if length > 1:
            cases.append((treeshap._kept(length, first, second), treeshap._weights(length - 1)))
        for kept, weights in cases:
            per_row = treeshap._weighted_products(zero, one, kept, weights)
            table = treeshap._table(zero, slice(0, 5), kept, weights, lambda cols, one, s: s)
            assert np.array_equal(table, per_row)
            assert np.array_equal(np.signbit(table), np.signbit(per_row))

    @pytest.mark.parametrize("length", range(1, 7))
    def test_product_helpers_equal_masked_oracle(self, length):
        rng = np.random.default_rng(100 + length)
        zero = rng.uniform(0.0, 1.0, size=(7, length))
        zero[rng.random(zero.shape) < 0.25] = 0.0
        zero[0] = 0.0
        patterns = (np.arange(1 << length)[:, None] >> np.arange(length) & 1).astype(bool)
        one = np.broadcast_to(patterns[:, None], (1 << length, 7, length))
        eye = np.eye(length, dtype=bool)
        first, second = np.triu_indices(length, 1)
        cases = [(eye, treeshap._kept(length, np.arange(length)), treeshap._weights(length))]
        if length > 1:
            cases.append((eye[first] | eye[second], treeshap._kept(length, first, second),
                          treeshap._weights(length - 1)))
        for excluded, kept, weights in cases:
            # row m of kept lists the positions excluded[m] leaves, ascending
            assert kept.shape == (len(excluded), length - excluded[0].sum())
            for row, mask in zip(kept, excluded):
                assert np.array_equal(row, np.flatnonzero(~mask))
            expected = masked_weighted_products(zero, one, excluded, weights)
            per_row = treeshap._weighted_products(zero, one, kept, weights)
            assert np.array_equal(per_row, expected)
            assert np.array_equal(np.signbit(per_row), np.signbit(expected))
            table = treeshap._pattern_products(zero, kept, weights)
            assert table.shape == (1 << kept.shape[1], 7, len(kept))
            for m, positions in enumerate(kept):
                # pattern c of exclusion m's kept bits, as a full code
                code = (np.arange(len(table))[:, None] >> np.arange(len(positions)) & 1) @ (
                    1 << positions)
                assert np.array_equal(table[:, :, m], expected[code, :, m])
                assert np.array_equal(np.signbit(table[:, :, m]), np.signbit(expected[code, :, m]))

    def test_coefficient_tensors_stay_bounded(self, default_fleet, monkeypatch):
        # per helper: (coefficient tensor elements, paths) of every call
        sizes = {"_weighted_products": [], "_pattern_products": []}
        per_row, table = treeshap._weighted_products, treeshap._pattern_products

        def recording_per_row(zero, one, kept, weights):
            rows, paths = one.shape[:2]
            sizes["_weighted_products"].append((rows * paths * len(kept) * len(weights), paths))
            return per_row(zero, one, kept, weights)

        def recording_table(zero, kept, weights):
            paths = zero.shape[0]
            sizes["_pattern_products"].append(
                ((1 << kept.shape[1]) * paths * len(kept) * len(weights), paths))
            return table(zero, kept, weights)

        monkeypatch.setattr(treeshap, "_weighted_products", recording_per_row)
        monkeypatch.setattr(treeshap, "_pattern_products", recording_table)
        model, x, _ = default_fleet
        assert x.shape[0] == 300
        explain_matrix(model, x)
        interaction_values(model, x)
        interaction_values(model, x[:1])
        for helper, calls in sizes.items():
            assert calls, helper
            assert all(size <= treeshap._BLOCK or paths == 1 for size, paths in calls), helper

    def test_phi_shape_checked(self, default_fleet):
        model, x, _ = default_fleet
        with pytest.raises(ValueError, match="phi has shape"):
            interaction_values(model, x[:1], phi=np.zeros((3, 3)))


class TestForcePlot:
    def _explanation(self, phi, base=1.5):
        phi = np.asarray(phi, dtype=float).reshape(1, -1, 1)
        d = phi.shape[1]
        return Explanation(np.array([base]), phi, np.arange(d, dtype=float)[None],
                           tuple(f"f{i}" for i in range(d)))

    def test_all_zero_phi_empty_entries(self):
        fp = force_plot_data(self._explanation([0.0, 0.0]), 0, 0)
        assert fp.entries == ()
        assert fp.margin == pytest.approx(fp.base_value)

    def test_sorted_by_magnitude(self):
        fp = force_plot_data(self._explanation([2.0, -1.0]), 0, 0)
        assert [e.name for e in fp.entries] == ["f0", "f1"]
        assert [e.sign for e in fp.entries] == [1, -1]

    def test_sum_identity(self):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=5)
        fp = force_plot_data(self._explanation(phi), 0, 0)
        assert fp.base_value + sum(e.phi for e in fp.entries) == pytest.approx(fp.margin, abs=1e-6)

    def test_class_index_checked(self):
        with pytest.raises(IndexError):
            force_plot_data(self._explanation([1.0]), 0, 3)

