"""Acceptance gate: one test per headline criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from evperf.cli import main as cli_main
from evperf.data import Dataset, PerfClass, apply_scaler, fit_scaler
from evperf.gbdt import (
    Ensemble,
    TrainConfig,
    TreeNode,
    mlogloss_grad_hess,
    model_to_dict,
    node_table,
    predict_margin,
    save_model,
    train,
)
from evperf.metrics import (
    accuracy,
    confusion,
    cross_validate,
    mcc,
    mlogloss,
    roc_auc_ovr_macro,
)
from evperf.physics import (
    DEFAULT_SWEEP_PARALLEL,
    SPEED_EPS,
    TARGET_SPEED,
    PackConfig,
    SynthConfig,
    VehicleParams,
    accel_time_0_100,
    default_pack,
    default_vehicle,
    diminishing_returns_sweep,
    pack_voltage,
    saturation_synth_config,
    synth_dataset,
)
from evperf.treeshap import (
    dependence_slopes,
    explain_matrix,
    interaction_values,
    shap_values,
)

from shap_oracles import brute_force_interactions, brute_force_shapley


def _report(number, name, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def default_dataset():
    return synth_dataset(SynthConfig())


@pytest.fixture(scope="module")
def default_model(default_dataset):
    scaler = fit_scaler(default_dataset.features)
    scaled = apply_scaler(default_dataset.features, scaler)
    return train(
        Dataset(scaled, default_dataset.labels, default_dataset.feature_names, scaler=scaler),
        TrainConfig(),
    )


def _random_tree(rng, depth, d, cover):
    if depth == 0 or rng.random() < 0.25:
        return TreeNode(cover=cover, weight=float(rng.normal()))
    frac = float(rng.uniform(0.15, 0.85))
    return TreeNode(
        cover=cover,
        feature=int(rng.integers(0, d)),
        threshold=float(rng.normal()),
        gain=1.0,
        left=_random_tree(rng, depth - 1, d, cover * frac),
        right=_random_tree(rng, depth - 1, d, cover * (1.0 - frac)),
    )


def _random_ensemble(rng):
    d = int(rng.integers(1, 7))
    num_class = int(rng.integers(2, 4))
    if rng.random() < 0.3:
        # realistic trees from actual training on random data
        n = 24
        x = rng.normal(size=(n, d))
        y = rng.integers(0, num_class, size=n)
        y[:num_class] = np.arange(num_class)
        cfg = TrainConfig(n_rounds=1, max_depth=3, num_class=num_class,
                          learning_rate=float(rng.uniform(0.1, 1.0)))
        return train(Dataset(x, y, tuple(f"f{i}" for i in range(d))), cfg)
    trees = [
        (0, int(rng.integers(0, num_class)),
                  _random_tree(rng, 3, d, float(rng.uniform(5.0, 50.0))))
        for _ in range(int(rng.integers(1, 6)))
    ]
    cfg = TrainConfig(n_rounds=1, num_class=num_class, learning_rate=float(rng.uniform(0.05, 1.0)))
    return Ensemble(node_table(trees), rng.normal(size=num_class), num_class,
                    tuple(f"f{i}" for i in range(d)), cfg)


def test_criterion_1_shapley_oracle_equivalence():
    def body():
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(100):
            model = _random_ensemble(rng)
            x = rng.normal(size=len(model.feature_names))
            exact = shap_values(model, x).phi[0]
            oracle = brute_force_shapley(model, x)
            assert np.max(np.abs(exact - oracle)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"

    _report(1, "Shapley oracle equivalence", body)


def test_criterion_1b_interaction_oracle_equivalence():
    def body():
        rng = np.random.default_rng(2024)
        models = [_random_ensemble(rng) for _ in range(40)]
        # few features and depth 6 force repeated splits on one path
        for _ in range(15):
            d = int(rng.integers(1, 5))
            trees = [(0, int(rng.integers(0, 2)), _random_tree(rng, 6, d, 30.0))
                     for _ in range(3)]
            cfg = TrainConfig(n_rounds=1, num_class=2, learning_rate=0.4)
            models.append(Ensemble(node_table(trees), rng.normal(size=2), 2,
                                   tuple(f"f{i}" for i in range(d)), cfg))
        for model in models:
            x = rng.normal(size=len(model.feature_names))
            exact = interaction_values(model, x[None])[0]
            oracle = brute_force_interactions(model, x)
            assert np.max(np.abs(exact - oracle)) < 1e-9

    _report("1b", "interaction oracle equivalence", body)


def test_criterion_2_local_accuracy(default_dataset, default_model):
    def body():
        scaled = apply_scaler(default_dataset.features, default_model.scaler)
        explanations = explain_matrix(default_model, scaled, default_dataset.features)
        assert len(explanations) == 300
        for i, phi in enumerate(explanations.phi):
            margins = predict_margin(default_model, scaled[i])
            gap = np.abs(explanations.base_value + phi.sum(axis=0) - margins)
            assert np.max(gap) < 1e-6

    _report(2, "local accuracy (additivity)", body)


def test_criterion_3_gradient_hessian_fd():
    def body():
        rng = np.random.default_rng(0)
        delta = 1e-3
        for _ in range(1000):
            k = int(rng.integers(2, 5))
            p = rng.dirichlet(np.ones(k))
            y = int(rng.integers(0, k))
            s = np.log(p)

            def loss(scores):
                z = np.exp(scores - scores.max())
                return -math.log(z[y] / z.sum())

            g_fd = np.empty(k)
            h_fd = np.empty(k)
            l0 = loss(s)
            for j in range(k):
                e = np.zeros(k)
                e[j] = delta
                lp, lm = loss(s + e), loss(s - e)
                g_fd[j] = (lp - lm) / (2 * delta)
                h_fd[j] = (lp - 2 * l0 + lm) / (delta * delta)
            g, h = mlogloss_grad_hess(p, y)
            assert np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5
            assert np.linalg.norm(h_fd - h) / max(np.linalg.norm(h), 1e-12) < 1e-5

    _report(3, "gradient/Hessian vs finite differences", body)


def test_criterion_4_integrator_vs_closed_form():
    def body():
        mass, power = 2000.0, 300e3
        v = VehicleParams(
            base_mass=mass, c_d=1e-15, frontal_area=1e-15, c_rr=1e-15,
            wheel_radius=0.33, gear_ratio=9.0, driveline_efficiency=1.0,
            motor_torque_max=1e12, traction_limit_accel=1e12,
        )
        r_total = 400.0 * 100.0 / power
        p = PackConfig(
            n_series=100, n_parallel=1, r_cell=r_total / 100.0, v_cell_nominal=4.0,
            v_cell_min=3.0, cell_mass=1e-12,
        )
        # kinetic energy gained from SPEED_EPS equals power times time
        closed = mass * (TARGET_SPEED**2 - SPEED_EPS**2) / (2.0 * power)
        assert abs(accel_time_0_100(v, p) - closed) / closed < 1e-12

    _report(4, "sprint integrator vs constant-power closed form", body)


def test_criterion_5_diminishing_returns():
    def body():
        # curvature of the physics sweep changes sign at most once
        curve = diminishing_returns_sweep(default_vehicle(), default_pack(), DEFAULT_SWEEP_PARALLEL)
        times = np.array([t for _, t in curve])
        second = np.diff(times, 2)
        tol = 1e-9 * np.abs(times).max()
        nonzero = second[np.abs(second) > tol]
        flips = int(np.sum(np.sign(nonzero)[1:] != np.sign(nonzero)[:-1])) if nonzero.size else 0
        assert flips <= 1

        # attribution per cell flattens at high cell counts
        ds = synth_dataset(saturation_synth_config())
        scaler = fit_scaler(ds.features)
        scaled = apply_scaler(ds.features, scaler)
        model = train(Dataset(scaled, ds.labels, ds.feature_names, scaler=scaler), TrainConfig())
        explanations = explain_matrix(model, scaled, ds.features)
        cell_idx = ds.feature_names.index("number_of_cells")
        # decile bins; slopes over the bottom three and the top three
        slope_bottom, slope_top = dependence_slopes(explanations, cell_idx, int(PerfClass.HIGH))
        assert slope_top < slope_bottom, (slope_top, slope_bottom)

    _report(5, "diminishing returns (sweep curvature + dependence slopes)", body)


def test_criterion_6_end_to_end_learning(default_dataset):
    def body():
        start = time.perf_counter()
        report = cross_validate(default_dataset, TrainConfig(), k=5, seed=0)

        # brute-force nearest-centroid baseline on standardized features
        z = apply_scaler(default_dataset.features, fit_scaler(default_dataset.features))
        y = default_dataset.labels
        centroids = np.stack([z[y == k].mean(axis=0) for k in range(3)])
        sq_dist = ((z[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        baseline_acc = float((sq_dist.argmin(axis=1) == y).mean())
        scores = np.exp(-sq_dist)
        scores /= scores.sum(axis=1, keepdims=True)
        baseline_auc = roc_auc_ovr_macro(scores, y)
        elapsed = time.perf_counter() - start

        assert baseline_acc > 0.8, f"baseline accuracy {baseline_acc:.3f}"
        assert report.accuracy >= 0.85, f"pooled accuracy {report.accuracy:.3f}"
        assert report.roc_auc_macro_ovr >= 0.95, f"pooled AUC {report.roc_auc_macro_ovr:.3f}"
        assert report.accuracy > baseline_acc
        assert report.roc_auc_macro_ovr > baseline_auc
        assert elapsed < 60.0, f"end-to-end test took {elapsed:.1f}s"

    _report(6, "end-to-end learning beats nearest-centroid baseline", body)


def test_criterion_7_metric_oracles():
    def body():
        even = np.array([[1, 1], [1, 1]])
        assert accuracy(even) == pytest.approx(0.5, abs=1e-9)
        assert mcc(even) == pytest.approx(0.0, abs=1e-9)
        assert accuracy(np.diag([4, 5, 6])) == 1.0
        assert mcc(np.diag([4, 5, 6])) == pytest.approx(1.0, abs=1e-9)
        assert mcc(np.array([[3, 0], [4, 0]])) == 0.0

        scores1 = np.array([0.9, 0.8, 0.3, 0.2])
        probs = np.column_stack([1.0 - scores1, scores1])
        assert roc_auc_ovr_macro(probs, [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-9)
        flat = np.full((6, 3), 1 / 3)
        assert roc_auc_ovr_macro(flat, [0, 1, 2, 0, 1, 2]) == pytest.approx(0.5, abs=1e-9)

        assert mlogloss(np.full((5, 3), 1 / 3), [0, 1, 2, 0, 1]) == pytest.approx(math.log(3.0), abs=1e-9)
        assert mlogloss(np.eye(3)[[0, 1, 2]], [0, 1, 2]) == pytest.approx(0.0, abs=1e-9)
        assert mlogloss(np.array([[0.0, 1.0]]), [0]) == pytest.approx(-math.log(1e-15), abs=1e-9)

        cm = confusion([2, 1, 0], [1, 1, 0], num_class=3)
        assert cm[2, 1] == 1 and cm.sum() == 3

    _report(7, "metric hand-value oracles", body)


def test_criterion_8_determinism(default_dataset, tmp_path):
    def body():
        cfg = TrainConfig(n_rounds=12)
        m1 = train(default_dataset, cfg)
        m2 = train(default_dataset, cfg)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert model_to_dict(m1) == model_to_dict(m2)

        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert cli_main(["synth", "--out-dir", str(a_dir), "--seed", "3", "--n-samples", "40"]) == 0
        assert cli_main(["synth", "--out-dir", str(b_dir), "--seed", "3", "--n-samples", "40"]) == 0
        assert (a_dir / "synthetic.csv").read_bytes() == (b_dir / "synthetic.csv").read_bytes()

    _report(8, "byte-identical model JSON and dataset CSV", body)


def test_criterion_9_pack_voltage_anchors():
    def body():
        base = default_pack()
        assert pack_voltage(replace(base, n_series=96)) == pytest.approx(355.2, rel=1e-12)
        assert pack_voltage(replace(base, n_series=192)) == pytest.approx(710.4, rel=1e-12)

    _report(9, "pack voltage anchors (96s and 192s strings)", body)
