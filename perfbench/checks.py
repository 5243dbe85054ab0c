"""Output checks for the benchmark's workloads.

Every check reads the artifacts a CLI invocation wrote and compares them with
an oracle that does not use evperf: scipy's adaptive integrator for the
sprint, a tree walk and coalition enumeration over ``model.json`` for the
attributions, and class counts derived from the CSV files the benchmark wrote.
Nothing here imports evperf. A check raises ``CheckError`` on the first
disagreement it finds.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

CLASS_NAMES = ("Low", "Mid", "High")  # confusion.csv row order
HIGH = 2
HIGH_MAX_S = 4.0  # 0-100 km/h at or under this is High
MID_MAX_S = 7.0   # above High, at or under this is Mid
FEATURES = ("battery_capacity_kwh", "number_of_cells", "weight_kg", "torque_nm", "range_km")
ACCEL = "acceleration_0_100_s"

# The default vehicle and pack the sweep and the generator are documented with.
VEHICLE = dict(base_mass=1500.0, c_d=0.28, frontal_area=2.3, c_rr=0.010, wheel_radius=0.33,
               gear_ratio=9.0, eta=0.92, torque=350.0, traction=9.5, rho=1.225, g=9.81)
PACK = dict(n_series=96, r_cell=0.02, v_cell=3.7, v_min=3.0, cell_mass=0.07,
            r_inter=0.002, overhead=0.35)
SWEEP_PARALLEL = range(6, 61, 2)
SPEED_EPS = 0.1
TARGET_SPEED = 100.0 / 3.6

# SynthConfig's default sampling ranges, with its template pack.
SYNTH_RANGES = dict(n_series=(90, 180), n_parallel=(4, 26), cell_capacity=(4.4, 5.6),
                    base_mass=(1350.0, 2050.0), torque=(300.0, 1100.0),
                    consumption=(0.15, 0.19))


class CheckError(AssertionError):
    """An artifact disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def perf_class(t: float) -> int:
    """Class index of a 0-100 km/h time: 0 Low, 1 Mid, 2 High."""
    if t <= HIGH_MAX_S:
        return 2
    if t <= MID_MAX_S:
        return 1
    return 0


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- synth ------------------------------------------------------------------


def sprint_time_oracle(n_parallel: int) -> float:
    """0-100 km/h time of the default vehicle by adaptive integration."""
    from scipy.integrate import solve_ivp

    v, p = VEHICLE, PACK
    cells = p["n_series"] * n_parallel
    mass = v["base_mass"] + cells * p["cell_mass"] * (1.0 + p["overhead"])
    v_ocv = p["n_series"] * p["v_cell"]
    v_min = p["n_series"] * p["v_min"]
    resistance = p["n_series"] * p["r_cell"] / n_parallel + p["r_inter"]
    p_max = v_ocv * (v_ocv - v_min) / resistance
    force_cap = v["torque"] * v["gear_ratio"] * v["eta"] / v["wheel_radius"]
    drag = 0.5 * v["rho"] * v["c_d"] * v["frontal_area"]

    def dvdt(_t, y):
        speed = y[0]
        drive = min(force_cap, v["eta"] * p_max / max(speed, SPEED_EPS), mass * v["traction"])
        return [(drive - drag * speed * speed - v["c_rr"] * mass * v["g"]) / mass]

    def reached(_t, y):
        return y[0] - TARGET_SPEED

    reached.terminal = True
    sol = solve_ivp(dvdt, (0.0, 120.0), [SPEED_EPS], method="DOP853", events=reached,
                    rtol=1e-12, atol=1e-12)
    _require(sol.t_events[0].size == 1, f"oracle sprint for n_parallel={n_parallel} never ends")
    return float(sol.t_events[0][0])


def check_sweep(out_dir: Path, tol: float = 1e-6) -> None:
    """sweep.csv against the oracle within ``tol`` relative, and its curvature."""
    header, rows = read_csv(out_dir / "sweep.csv")
    _require(header == ["cell_count", ACCEL], f"sweep.csv header {header}")
    _require(len(rows) == len(SWEEP_PARALLEL), f"sweep.csv has {len(rows)} points")
    times = []
    for (cells, t), n_par in zip(rows, SWEEP_PARALLEL):
        _require(int(cells) == PACK["n_series"] * n_par, f"sweep cell count {cells}")
        t = float(t)
        ref = sprint_time_oracle(n_par)
        err = abs(t - ref) / ref
        _require(err <= tol, f"sweep time {t} for {cells} cells is off the oracle {ref} by {err:.3g}")
        times.append(t)
    second = np.diff(np.asarray(times), 2)
    signs = np.sign(second[np.abs(second) > 1e-9 * max(times)])
    changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
    _require(changes <= 1, f"sweep curvature changes sign {changes} times")


def check_synthetic_csv(out_dir: Path, n_samples: int) -> None:
    """Every value finite and inside what the SynthConfig ranges allow."""
    header, rows = read_csv(out_dir / "synthetic.csv")
    _require(header == list(FEATURES) + [ACCEL], f"synthetic.csv header {header}")
    _require(len(rows) == n_samples, f"synthetic.csv has {len(rows)} rows, expected {n_samples}")
    r, p = SYNTH_RANGES, PACK
    per_cell_mass = p["cell_mass"] * (1.0 + p["overhead"])
    for i, row in enumerate(rows):
        _require(len(row) == len(header), f"synthetic.csv row {i} has {len(row)} cells")
        cap, cells, weight, torque, range_km, accel = (float(c) for c in row)
        _require(all(math.isfinite(v) for v in (cap, cells, weight, torque, range_km, accel)),
                 f"synthetic.csv row {i} has a non-finite value")
        n_cells = int(cells)
        _require(n_cells == cells and any(
            n_cells % ns == 0 and r["n_parallel"][0] <= n_cells // ns <= r["n_parallel"][1]
            for ns in range(r["n_series"][0], r["n_series"][1] + 1)),
            f"synthetic.csv row {i}: {cells} cells is no allowed series x parallel layout")
        tol = 1e-9
        base_mass = weight - cells * per_cell_mass
        cell_ah = cap * 1000.0 / (cells * p["v_cell"])
        consumption = cap / range_km
        for name, value in (("base_mass", base_mass), ("torque", torque),
                            ("cell_capacity", cell_ah), ("consumption", consumption)):
            lo, hi = r[name]
            _require(lo * (1 - tol) <= value <= hi * (1 + tol),
                     f"synthetic.csv row {i}: {name} {value} outside [{lo}, {hi}]")
        _require(0.0 < accel < 60.0, f"synthetic.csv row {i}: 0-100 time {accel}")


def check_prefix(out_dir: Path, small_dir: Path, m: int) -> None:
    """The first m rows equal, byte for byte, an m-vehicle fleet of the same seed."""
    big = (out_dir / "synthetic.csv").read_bytes().split(b"\n")
    small = (small_dir / "synthetic.csv").read_bytes().split(b"\n")
    _require(small[-1] == b"" and len(small) == m + 2, "small fleet has the wrong row count")
    _require(big[: m + 1] == small[: m + 1],
             f"first {m} rows differ from the {m}-vehicle fleet of the same seed")


# --- train ------------------------------------------------------------------


def class_counts(times: list[float]) -> list[int]:
    counts = [0, 0, 0]
    for t in times:
        counts[perf_class(t)] += 1
    return counts


def read_confusion(out_dir: Path) -> np.ndarray:
    header, rows = read_csv(out_dir / "confusion.csv")
    _require(header[1:] == list(CLASS_NAMES), f"confusion.csv header {header}")
    _require([r[0] for r in rows] == list(CLASS_NAMES), "confusion.csv row labels")
    return np.asarray([[int(v) for v in r[1:]] for r in rows], dtype=np.int64)


def check_train(out_dir: Path, times: list[float]) -> dict:
    """Confusion rows against class counts; accuracy and MCC recomputed.

    ``times`` are the 0-100 times of the rows the program should train on.
    Returns metrics.json.
    """
    cm = read_confusion(out_dir)
    expected = class_counts(times)
    _require(cm.sum(axis=1).tolist() == expected,
             f"confusion row sums {cm.sum(axis=1).tolist()} != class counts {expected}")
    report = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    _require(report["confusion"] == cm.tolist(), "metrics.json confusion differs from confusion.csv")
    s = float(cm.sum())
    acc = float(np.trace(cm)) / s
    rows_, cols = cm.sum(axis=1).astype(float), cm.sum(axis=0).astype(float)
    denom = (s * s - cols @ cols) * (s * s - rows_ @ rows_)
    mcc = 0.0 if denom <= 0 else (np.trace(cm) * s - cols @ rows_) / math.sqrt(denom)
    _require(abs(acc - report["accuracy"]) <= 1e-12,
             f"accuracy {report['accuracy']} != {acc} from confusion.csv")
    _require(abs(mcc - report["mcc"]) <= 1e-12, f"mcc {report['mcc']} != {mcc} from confusion.csv")
    loss = float(report["mlogloss"])
    _require(math.isfinite(loss) and loss > 0, f"metrics.json mlogloss {loss}")
    return report


def check_floors(reports: list[dict], min_accuracy: float = 0.85, min_auc: float = 0.95) -> None:
    """Acceptance criterion 6's floors on the mean over equally sized fleets.

    A single 300-vehicle fleet can miss the accuracy floor even at the
    default config, so the floors hold for the workload's fleets together.
    """
    _require(bool(reports), "no cross-validation report to check")
    accuracy = sum(r["accuracy"] for r in reports) / len(reports)
    auc = sum(r["roc_auc_macro_ovr"] for r in reports) / len(reports)
    _require(accuracy >= min_accuracy, f"mean pooled accuracy {accuracy} below {min_accuracy}")
    _require(auc >= min_auc, f"mean pooled AUC {auc} below {min_auc}")


def _depth(node: dict) -> int:
    if "feature" not in node:
        return 0
    return 1 + max(_depth(node["left"]), _depth(node["right"]))


def check_model_shape(out_dir: Path, rounds: int, depth: int) -> None:
    doc = json.loads((out_dir / "model.json").read_text(encoding="utf-8"))
    n = len(doc["trees"])
    _require(n == rounds * 3, f"model.json has {n} trees, expected {rounds} x 3")
    deepest = max(_depth(t["root"]) for t in doc["trees"])
    _require(deepest <= depth, f"a tree in model.json is {deepest} deep, limit {depth}")


# --- explain ----------------------------------------------------------------


class ModelOracle:
    """model.json read without evperf: walks, expectations and coalitions."""

    def __init__(self, path: Path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        self.num_class = int(doc["num_class"])
        self.eta = float(doc["config"]["learning_rate"])
        self.base_score = np.asarray(doc["base_score"], dtype=float)
        self.features = list(doc["feature_names"])
        scaler = doc.get("scaler")
        self.mean = None if scaler is None else np.asarray(scaler["mean"], dtype=float)
        self.std = None if scaler is None else np.asarray(scaler["std"], dtype=float)
        self.trees = [(int(t["class_index"]), t["root"]) for t in doc["trees"]]

    def model_space(self, raw: np.ndarray) -> np.ndarray:
        if self.mean is None:
            return raw
        z = (raw - self.mean) / np.where(self.std == 0, 1.0, self.std)
        z[..., self.std == 0] = 0.0
        return z

    def margin(self, x: np.ndarray) -> np.ndarray:
        out = self.base_score.copy()
        for k, node in self.trees:
            while "feature" in node:
                node = node["left"] if x[node["feature"]] < node["threshold"] else node["right"]
            out[k] += self.eta * node["weight"]
        return out

    def base_value(self) -> np.ndarray:
        def expect(node: dict) -> float:
            if "feature" not in node:
                return node["weight"]
            l, r = node["left"], node["right"]
            return (l["cover"] * expect(l) + r["cover"] * expect(r)) / node["cover"]

        out = self.base_score.copy()
        for k, root in self.trees:
            out[k] += self.eta * expect(root)
        return out

    def coalition_values(self, x: np.ndarray) -> np.ndarray:
        """v[mask, k]: class-k output with features in mask fixed to x."""
        d = len(self.features)
        masks = np.arange(1 << d)
        known = [(masks >> j) & 1 == 1 for j in range(d)]

        def walk(node: dict) -> np.ndarray:
            if "feature" not in node:
                return np.full(masks.size, float(node["weight"]))
            f = node["feature"]
            l, r = node["left"], node["right"]
            lv, rv = walk(l), walk(r)
            hot = lv if x[f] < node["threshold"] else rv
            mixed = (l["cover"] * lv + r["cover"] * rv) / node["cover"]
            return np.where(known[f], hot, mixed)

        v = np.zeros((masks.size, self.num_class))
        for k, root in self.trees:
            v[:, k] += self.eta * walk(root)
        return v

    def shapley(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Shapley values (d, K) and interaction indices (d, d, K) by enumeration."""
        d = len(self.features)
        v = self.coalition_values(x)
        fact = [math.factorial(i) for i in range(d + 1)]
        phi = np.zeros((d, self.num_class))
        inter = np.zeros((d, d, self.num_class))
        for mask in range(1 << d):
            size = bin(mask).count("1")
            for i in range(d):
                if mask >> i & 1:
                    continue
                phi[i] += fact[size] * fact[d - size - 1] / fact[d] * (v[mask | 1 << i] - v[mask])
            for i, j in combinations(range(d), 2):
                if mask >> i & 1 or mask >> j & 1:
                    continue
                w = fact[size] * fact[d - size - 2] / (2 * fact[d - 1])
                delta = v[mask | 1 << i | 1 << j] - v[mask | 1 << i] - v[mask | 1 << j] + v[mask]
                inter[i, j] += w * delta
                inter[j, i] += w * delta
        return phi, inter


def read_shap_values(out_dir: Path, d: int, num_class: int) -> np.ndarray:
    """shap_values.csv as phi[row, feature, class]."""
    header, rows = read_csv(out_dir / "shap_values.csv")
    _require(header == ["sample_id", "feature", "class", "value", "phi"],
             f"shap_values.csv header {header}")
    per_row = d * num_class
    _require(len(rows) % per_row == 0, "shap_values.csv row count is not rows x features x classes")
    n = len(rows) // per_row
    phi = np.empty((n, d, num_class))
    for idx, row in enumerate(rows):
        s, rest = divmod(idx, per_row)
        i, k = divmod(rest, num_class)
        _require(int(row[0]) == s, f"shap_values.csv line {idx + 2}: sample id {row[0]}")
        phi[s, i, k] = float(row[4])
    return phi


def check_explain(out_dir: Path, model_path: Path, raw: np.ndarray, oracle_rows: int,
                  swarm_rows: int, tol: float = 1e-9) -> None:
    """Local accuracy on every row; phi and interactions by enumeration on a few.

    ``raw`` holds the explained rows' raw feature values, in the model's
    feature order.
    """
    model = ModelOracle(model_path)
    d = len(model.features)
    phi = read_shap_values(out_dir, d, model.num_class)
    _require(phi.shape[0] == raw.shape[0],
             f"shap_values.csv explains {phi.shape[0]} rows, input has {raw.shape[0]}")
    x = model.model_space(raw)
    base = model.base_value()
    for s in range(raw.shape[0]):
        err = float(np.max(np.abs(base + phi[s].sum(axis=0) - model.margin(x[s]))))
        _require(err <= tol, f"row {s}: base + sum(phi) is {err:.3g} off the margin")

    header, rows = read_csv(out_dir / "shap_swarm.csv")
    _require(header == ["sample_id", "feature_i", "feature_j", "value_i", "interaction_phi"],
             f"shap_swarm.csv header {header}")
    pairs = list(combinations(range(d), 2))
    _require(len(rows) == swarm_rows * len(pairs), f"shap_swarm.csv has {len(rows)} rows")
    for s in range(min(oracle_rows, raw.shape[0])):
        ref_phi, ref_inter = model.shapley(x[s])
        err = float(np.max(np.abs(phi[s] - ref_phi)))
        _require(err <= tol, f"row {s}: phi is {err:.3g} off coalition enumeration")
        if s >= swarm_rows:
            continue
        for p, (i, j) in enumerate(pairs):
            row = rows[s * len(pairs) + p]
            _require(row[:3] == [str(s), model.features[i], model.features[j]],
                     f"shap_swarm.csv row {row[:3]}")
            _require(float(row[3]) == raw[s, i], f"shap_swarm.csv value_i {row[3]}")
            err = abs(float(row[4]) - ref_inter[i, j, HIGH])
            _require(err <= tol, f"row {s}: interaction ({i}, {j}) is {err:.3g} off enumeration")
