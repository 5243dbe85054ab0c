"""Multiclass gradient-boosted decision trees with second-order split search.

Trees are grown by exact greedy enumeration of every midpoint between
consecutive distinct feature values, scoring splits with the regularized
second-order gain (L2 on leaf weights, L1 via soft thresholding of the
gradient sum, and a flat per-split penalty). One tree per class per round is
fit to the softmax cross-entropy gradients and Hessians.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, ScalerParams

HESS_EPS = 1e-16  # floor on per-sample Hessians; keeps covers positive

MODEL_FORMAT_VERSION = 1


class ModelInputError(ValueError):
    """Input a model cannot be applied to: non-finite features or a node cover <= 0."""


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters.

    reg_lambda/reg_alpha are the L2/L1 penalties on leaf weights; gamma is
    the minimum gain a split must clear; min_child_hessian rejects splits
    whose children carry too little Hessian mass.
    """

    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    gamma: float = 0.0
    min_child_hessian: float = 1e-3
    num_class: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min(self.reg_lambda, self.reg_alpha, self.gamma, self.min_child_hessian) < 0:
            raise ValueError("regularization terms must be non-negative")
        if self.num_class < 2:
            raise ValueError("num_class must be at least 2")


@dataclass
class TreeNode:
    """One node of a regression tree.

    Internal nodes route on ``feature``/``threshold`` (left iff value is
    strictly below the threshold); leaves carry the fitted ``weight``.
    ``cover`` is the Hessian mass routed through the node and doubles as the
    marginalization weight for explanation code.
    """

    cover: float
    feature: int = -1
    threshold: float = 0.0
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class ClassTree:
    round_index: int
    class_index: int
    root: TreeNode


@dataclass(eq=False)
class Ensemble:
    """A trained boosted-tree classifier: num_class trees per round.

    Leaf weights are stored unscaled; the learning rate is applied at
    prediction time. Immutable in practice and safe to share across threads.
    Two models are equal iff their model_to_dict documents are equal.
    """

    trees: list[ClassTree]
    base_score: np.ndarray
    num_class: int
    feature_names: tuple[str, ...]
    config: TrainConfig
    scaler: ScalerParams | None = None
    # Root-to-leaf path arrays built by evperf.treeshap on first use; derived
    # from the trees, so never persisted or compared. Two threads racing to
    # build it store equal values.
    _shap_paths: object = field(default=None, init=False, repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ensemble):
            return NotImplemented
        return model_to_dict(self) == model_to_dict(other)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a score vector."""
    s = np.asarray(scores, dtype=float)
    z = np.exp(s - s.max())
    return z / z.sum()


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = np.exp(scores - scores.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def mlogloss_grad_hess(probs: np.ndarray, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class gradient and Hessian of the softmax log loss in score space.

    g_k = p_k - [k == label]; h_k = p_k (1 - p_k), floored at HESS_EPS. The
    Hessian is the diagonal approximation of the full softmax Hessian.
    """
    p = np.asarray(probs, dtype=float)
    g = p.copy()
    g[label] -= 1.0
    h = np.maximum(p * (1.0 - p), HESS_EPS)
    return g, h


def _soft_threshold(g, alpha):
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _gain_formula(g_left, h_left, g_right, h_right, cfg: TrainConfig):
    """Vectorized split gain; operands may be scalars or arrays."""
    sl = _soft_threshold(g_left, cfg.reg_alpha)
    sr = _soft_threshold(g_right, cfg.reg_alpha)
    sp = _soft_threshold(g_left + g_right, cfg.reg_alpha)
    return 0.5 * (
        sl * sl / (h_left + cfg.reg_lambda)
        + sr * sr / (h_right + cfg.reg_lambda)
        - sp * sp / (h_left + h_right + cfg.reg_lambda)
    ) - cfg.gamma


def split_gain(g_left: float, h_left: float, g_right: float, h_right: float, cfg: TrainConfig) -> float:
    """Regularized gain of splitting a node with the given child statistics."""
    return float(_gain_formula(g_left, h_left, g_right, h_right, cfg))


def leaf_weight(g_sum: float, h_sum: float, cfg: TrainConfig) -> float:
    """Optimal regularized leaf weight -S(G)/(H + lambda)."""
    return float(-_soft_threshold(g_sum, cfg.reg_alpha) / (h_sum + cfg.reg_lambda))


def _find_best_split(x_cols, g, h, rows, g_sum, h_sum, cfg):
    """Best (feature, threshold, gain) over all exact candidates, or None.

    Candidates are midpoints between consecutive distinct sorted values. Ties
    resolve to the lowest feature index, then the lowest threshold (argmax
    picks the first maximum and thresholds ascend within a feature).
    """
    best = None  # (gain, feature, threshold)
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
        valid = distinct & (ch >= cfg.min_child_hessian) & (h_r >= cfg.min_child_hessian)
        if not np.any(valid):
            continue
        gains = np.where(valid, _gain_formula(cg, ch, g_sum - cg, h_r, cfg), -np.inf)
        k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:
            best = (float(gains[k]), j, float(0.5 * (xs[k] + xs[k + 1])))
    if best is None or best[0] <= 0:
        return None
    return best


def build_tree(features: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: TrainConfig) -> TreeNode:
    """Grow one regression tree by exact greedy search.

    Growth stops at max_depth, when no candidate split has positive gain, or
    when every candidate leaves a child below min_child_hessian.
    """
    x = np.asarray(features, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.shape[0] or g.shape != h.shape:
        raise ValueError("features, gradients and Hessians must align row-wise")
    x_cols = [np.ascontiguousarray(x[:, j]) for j in range(x.shape[1])]

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        if depth < cfg.max_depth:
            found = _find_best_split(x_cols, g, h, rows, g_sum, h_sum, cfg)
            if found is not None:
                gain, j, thr = found
                mask = x_cols[j][rows] < thr
                return TreeNode(
                    cover=h_sum,
                    feature=j,
                    threshold=thr,
                    gain=gain,
                    left=grow(rows[mask], depth + 1),
                    right=grow(rows[~mask], depth + 1),
                )
        return TreeNode(cover=h_sum, weight=leaf_weight(g_sum, h_sum, cfg))

    return grow(np.arange(x.shape[0]), 0)


def train(dataset: Dataset, cfg: TrainConfig) -> Ensemble:
    """Fit a softmax-boosted ensemble on a complete dataset.

    Base scores are the log class priors. Each round recomputes class
    probabilities from the current margins, derives per-class gradients and
    Hessians, grows one tree per class, and advances the margins by the
    learning rate times the new leaf weights. Fully deterministic.
    """
    x = dataset.features
    y = dataset.labels
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if y.max() >= cfg.num_class:
        raise ValueError(f"label {int(y.max())} out of range for num_class={cfg.num_class}")
    counts = np.bincount(y, minlength=cfg.num_class)
    absent = np.flatnonzero(counts == 0)
    if absent.size:
        raise ValueError(f"class {int(absent[0])} absent from training data")
    base_score = np.log(counts / n)

    margins = np.tile(base_score, (n, 1))
    onehot = np.zeros((n, cfg.num_class))
    onehot[np.arange(n), y] = 1.0
    trees: list[ClassTree] = []
    for r in range(cfg.n_rounds):
        probs = _softmax_rows(margins)
        grad = probs - onehot
        hess = np.maximum(probs * (1.0 - probs), HESS_EPS)
        for k in range(cfg.num_class):
            root = build_tree(x, grad[:, k], hess[:, k], cfg)
            trees.append(ClassTree(round_index=r, class_index=k, root=root))
            margins[:, k] += cfg.learning_rate * _tree_predict_batch(root, x)
    return Ensemble(
        trees=trees,
        base_score=base_score,
        num_class=cfg.num_class,
        feature_names=dataset.feature_names,
        config=cfg,
        scaler=dataset.scaler,
    )


def _tree_predict_batch(root: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.weight
        else:
            mask = x[rows, node.feature] < node.threshold
            stack.append((node.left, rows[mask]))
            stack.append((node.right, rows[~mask]))
    return out


def check_features(model: Ensemble, x: np.ndarray, ndim: int) -> np.ndarray:
    """``x`` as floats: one sample (ndim 1) or a sample matrix (ndim 2).

    Raises ValueError when the shape does not match the model's inputs and
    ModelInputError on NaN or infinite values, which every split would send
    right and every explanation would silently misattribute.
    """
    x = np.asarray(x, dtype=float)
    d = len(model.feature_names)
    if x.ndim != ndim or x.shape[-1] != d:
        expects = f"({d},)" if ndim == 1 else f"(n, {d})"
        raise ValueError(f"input has shape {x.shape}, model expects {expects}")
    if not np.isfinite(x).all():
        raise ModelInputError("input has NaN or infinite feature values")
    return x


def predict_margin(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class margins (log-odds scores) for one sample: a one-row batch."""
    return predict_margin_batch(model, check_features(model, x, 1)[None, :])[0]


def predict_proba(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class probabilities for one sample (softmax of the margins)."""
    return softmax(predict_margin(model, x))


def predict_margin_batch(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class margins for a sample matrix, shape (n, num_class)."""
    x = check_features(model, x, 2)
    margins = np.tile(model.base_score.astype(float), (x.shape[0], 1))
    eta = model.config.learning_rate
    for ct in model.trees:
        margins[:, ct.class_index] += eta * _tree_predict_batch(ct.root, x)
    return margins


def predict_proba_batch(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class probabilities for a sample matrix."""
    return _softmax_rows(predict_margin_batch(model, x))


def gain_importance(model: Ensemble) -> np.ndarray:
    """Total realized split gain per feature across the whole ensemble."""
    totals = np.zeros(len(model.feature_names))

    def walk(node: TreeNode) -> None:
        if not node.is_leaf:
            totals[node.feature] += node.gain
            walk(node.left)
            walk(node.right)

    for ct in model.trees:
        walk(ct.root)
    return totals


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"cover": node.cover, "weight": node.weight}
    return {
        "cover": node.cover,
        "feature": node.feature,
        "threshold": node.threshold,
        "gain": node.gain,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: dict) -> TreeNode:
    if "feature" not in d:
        return TreeNode(cover=float(d["cover"]), weight=float(d["weight"]))
    return TreeNode(
        cover=float(d["cover"]),
        feature=int(d["feature"]),
        threshold=float(d["threshold"]),
        gain=float(d.get("gain", 0.0)),
        left=_node_from_dict(d["left"]),
        right=_node_from_dict(d["right"]),
    )


def model_to_dict(model: Ensemble) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": "evperf-gbdt",
        "num_class": model.num_class,
        "base_score": [float(b) for b in model.base_score],
        "feature_names": list(model.feature_names),
        "config": {
            "n_rounds": model.config.n_rounds,
            "learning_rate": model.config.learning_rate,
            "max_depth": model.config.max_depth,
            "reg_lambda": model.config.reg_lambda,
            "reg_alpha": model.config.reg_alpha,
            "gamma": model.config.gamma,
            "min_child_hessian": model.config.min_child_hessian,
            "num_class": model.config.num_class,
            "seed": model.config.seed,
        },
        "scaler": (
            None
            if model.scaler is None
            else {
                "mean": [float(m) for m in model.scaler.mean],
                "std": [float(s) for s in model.scaler.std],
            }
        ),
        "trees": [
            {"round": ct.round_index, "class_index": ct.class_index, "root": _node_to_dict(ct.root)}
            for ct in model.trees
        ],
    }


def model_from_dict(doc: dict) -> Ensemble:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    cfg = TrainConfig(**doc["config"])
    scaler = None
    if doc.get("scaler") is not None:
        scaler = ScalerParams(
            mean=np.asarray(doc["scaler"]["mean"], dtype=float),
            std=np.asarray(doc["scaler"]["std"], dtype=float),
        )
    trees = [
        ClassTree(
            round_index=int(t["round"]),
            class_index=int(t["class_index"]),
            root=_node_from_dict(t["root"]),
        )
        for t in doc["trees"]
    ]
    if any(not 0 <= ct.class_index < int(doc["num_class"]) for ct in trees):
        raise ValueError("model document has a tree with an out-of-range class index")
    return Ensemble(
        trees=trees,
        base_score=np.asarray(doc["base_score"], dtype=float),
        num_class=int(doc["num_class"]),
        feature_names=tuple(doc["feature_names"]),
        config=cfg,
        scaler=scaler,
    )


def save_model(model: Ensemble, path: str | Path) -> None:
    """Serialize to versioned JSON; floats round-trip exactly via repr."""
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load_model(path: str | Path) -> Ensemble:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
