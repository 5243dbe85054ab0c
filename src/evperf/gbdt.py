"""Multiclass gradient-boosted decision trees with second-order split search.

Trees are grown by exact greedy enumeration of every midpoint between
consecutive distinct feature values, scoring splits with the regularized
second-order gain (L2 on leaf weights, L1 via soft thresholding of the
gradient sum, and a flat per-split penalty). One tree per class per round is
fit to the softmax cross-entropy gradients and Hessians.

Split search follows XGBoost's presorted column blocks (Chen & Guestrin
2016): each feature column is sorted once per fit, and a node keeps its rows
as (d, m) blocks in each feature's value order. A split filters the blocks
into its children's, keeping the order, so a node is scored by cumulative
sums, gain matrices and argmaxes over its blocks, with no sorting. The rows
each leaf receives give the margin update directly.

The blocks are scored in tiles of whole feature rows holding at most
``_TILE`` (8,192) values, as XGBoost sizes its column blocks to the cache
(Chen & Guestrin 2016, section 4.2). Each of a tile's temporaries is then at
most 64 KiB: it stays in cache, and it stays below glibc malloc's 128 KiB
threshold, above which every temporary is a fresh mmap whose pages fault in
again at every node. A node with at most ``_TILE`` values is one tile. The
tie-break does not depend on the tiling: a tile's argmax returns its first
maximum in row-major order, and a later tile replaces the best only with a
strictly greater gain, so ties still go to the lowest feature, then the
lowest threshold, as in one argmax over the whole gain matrix.

Trees are grown as ``TreeNode`` graphs and then stored, once, in the
ensemble's node table: flat arrays over every node of every tree, in
pre-order, tree after tree, as in XGBoost's ``RegTree`` (Chen & Guestrin
2016). Prediction, training's margin updates, gain importance, TreeSHAP and
``model.json`` all read that table.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, ScalerParams

HESS_EPS = 1e-16  # floor on per-sample Hessians; keeps covers positive

MODEL_FORMAT_VERSION = 1

_TILE = 8192  # values per split-search temporary: 64 KiB of float64


class ModelInputError(ValueError):
    """Input a model cannot be applied to: non-finite features or a bad node cover."""


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
        bad = [f"{name}={getattr(self, name)}"
               for name in ("reg_lambda", "reg_alpha", "gamma", "min_child_hessian")
               if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0)]
        if bad:
            raise ValueError(f"regularization terms must be finite and non-negative: {', '.join(bad)}")
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


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Every node of every tree as flat arrays, in pre-order, tree after tree.

    Per node: ``feature`` and child indices ``left``/``right`` (all -1 at
    leaves), ``threshold``, leaf ``weight`` (0 at splits), ``cover`` and split
    ``gain`` (0 at leaves). Per tree: the index of its ``root`` node, its
    ``class_index`` and its ``round_index``. A tree's nodes lie between its
    root and the next tree's, children after their parent.
    """

    feature: np.ndarray
    left: np.ndarray
    right: np.ndarray
    threshold: np.ndarray
    weight: np.ndarray
    cover: np.ndarray
    gain: np.ndarray
    root: np.ndarray
    class_index: np.ndarray
    round_index: np.ndarray


@dataclass(eq=False)
class Ensemble:
    """A trained boosted-tree classifier: num_class trees per round.

    Leaf weights are stored unscaled; the learning rate is applied at
    prediction time. Immutable in practice and safe to share across threads.
    Two models are equal iff their model_to_dict documents are equal.
    """

    trees: NodeTable
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
    """Numerically stable softmax over the last axis."""
    s = np.asarray(scores, dtype=float)
    z = np.exp(s - s.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def mlogloss_grad_hess(probs: np.ndarray, labels: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class gradient and Hessian of the softmax log loss in score space.

    ``probs`` is one ``(K,)`` row with an int label or ``(n, K)`` rows with
    ``n`` labels. g_k = p_k - [k == label]; h_k = p_k (1 - p_k), floored at
    HESS_EPS. The Hessian is the diagonal approximation of the full softmax
    Hessian.
    """
    p = np.asarray(probs, dtype=float)
    g = p - (np.arange(p.shape[-1]) == np.asarray(labels)[..., None])
    h = np.maximum(p * (1.0 - p), HESS_EPS)
    return g, h


def _soft_threshold(g, alpha):
    if alpha == 0:
        return g  # sign(g) * max(|g|, 0) is g itself
    return np.sign(g) * np.maximum(np.abs(g) - alpha, 0.0)


def _gain_formula(g_left, h_left, g_right, h_right, cfg: TrainConfig):
    """Vectorized split gain; operands may be scalars or arrays.

    0.5 * (S(GL)^2/(HL+lambda) + S(GR)^2/(HR+lambda) - S(GL+GR)^2/(HL+HR+lambda)) - gamma,
    with S the L1 soft-threshold, evaluated term by term into one result array.
    """
    sl = _soft_threshold(g_left, cfg.reg_alpha)
    sr = _soft_threshold(g_right, cfg.reg_alpha)
    sp = _soft_threshold(g_left + g_right, cfg.reg_alpha)
    gain = sl * sl
    gain /= h_left + cfg.reg_lambda
    right = sr * sr
    right /= h_right + cfg.reg_lambda
    gain += right
    parent = sp * sp
    parent /= h_left + h_right + cfg.reg_lambda
    gain -= parent
    gain *= 0.5
    if cfg.gamma:
        gain -= cfg.gamma
    return gain


def split_gain(g_left: float, h_left: float, g_right: float, h_right: float, cfg: TrainConfig) -> float:
    """Regularized gain of splitting a node with the given child statistics."""
    return float(_gain_formula(g_left, h_left, g_right, h_right, cfg))


def leaf_weight(g_sum: float, h_sum: float, cfg: TrainConfig) -> float:
    """Optimal regularized leaf weight -S(G)/(H + lambda)."""
    return float(-_soft_threshold(g_sum, cfg.reg_alpha) / (h_sum + cfg.reg_lambda))


def _find_best_split(xs, order, g, h, g_sum, h_sum, cfg):
    """Best (gain, feature, threshold) of a node over all exact candidates, or None.

    ``xs`` is the node's (d, m) value block: row j holds the node's values of
    feature j in ascending order, and ``order`` row j the rows they belong
    to, whose gradients and Hessians are gathered from the full ``g``/``h``.
    Candidates are midpoints between consecutive distinct values, scored
    from one cumulative sum per statistic, ``_TILE // m`` feature rows (at
    least one) at a time. Ties resolve to the lowest feature, then the
    lowest threshold: argmax scans a tile's gains row by row and returns the
    first maximum, and a later tile wins only with a strictly greater gain.
    """
    d, m = xs.shape
    if d == 0 or m < 2:
        return None
    step = max(1, _TILE // m)
    best = None  # (gain, feature, position)
    for lo in range(0, d, step):
        rows = order[lo:lo + step]
        x = xs[lo:lo + step]
        cg = np.cumsum(g[rows], axis=1)[:, :-1]
        ch = np.cumsum(h[rows], axis=1)[:, :-1]
        h_r = h_sum - ch
        valid = (x[:, :-1] < x[:, 1:]) & (ch >= cfg.min_child_hessian) & (h_r >= cfg.min_child_hessian)
        gains = np.where(valid, _gain_formula(cg, ch, g_sum - cg, h_r, cfg), -np.inf)
        j, k = divmod(int(np.argmax(gains)), m - 1)
        if best is None or gains[j, k] > best[0]:
            best = (gains[j, k], lo + j, k)
    gain, j, k = best
    if gain <= 0:
        return None
    return float(gain), j, float(0.5 * (xs[j, k] + xs[j, k + 1]))


def column_order(features: np.ndarray) -> np.ndarray:
    """Row indices of each feature column in ascending value order, shape (d, n).

    The sort is stable, so tied values keep their row order. ``build_tree``
    takes it to share one sort between the trees grown on the same features.
    """
    return np.argsort(np.asarray(features, dtype=float).T, axis=1, kind="stable")


def build_tree(features: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: TrainConfig,
               order: np.ndarray | None = None,
               row_weights: np.ndarray | None = None) -> TreeNode:
    """Grow one regression tree by exact greedy search.

    Growth stops at max_depth, when no candidate split has positive gain, or
    when every candidate leaves a child below min_child_hessian. ``order`` is
    ``column_order(features)``, computed here when not given. When
    ``row_weights`` is given, each of its n entries receives the weight of the
    leaf that row reached.
    """
    x = np.asarray(features, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.shape[0] or g.shape != h.shape:
        raise ValueError("features, gradients and Hessians must align row-wise")
    n, d = x.shape
    if order is None:
        order = column_order(x)
    elif order.shape != (d, n):
        raise ValueError(f"column order has shape {order.shape}, expected {(d, n)}")
    if row_weights is not None and row_weights.shape != (n,):
        raise ValueError(f"row_weights has shape {row_weights.shape}, expected {(n,)}")
    x_t = np.ascontiguousarray(x.T)
    grower = _Grower(x_t, g, h, cfg, row_weights)
    return grower.grow(np.arange(n), order, np.take_along_axis(x_t, order, axis=1), 0)


class _Grower:
    """Exact greedy growth of one tree over presorted column blocks.

    A node's blocks are (d, m): ``order`` row j lists the node's rows in
    ascending order of feature j, and ``xs`` row j their values. A child's
    blocks are its parent's, filtered by the split; the filter keeps the
    order, ties included, so each child is sorted without sorting.
    """

    def __init__(self, x_t, g, h, cfg, row_weights):
        self.x_t, self.g, self.h, self.cfg, self.row_weights = x_t, g, h, cfg, row_weights

    def grow(self, rows, order, xs, depth) -> TreeNode:
        """The subtree over ``rows``, in ascending index order, with their blocks."""
        g, h, cfg = self.g, self.h, self.cfg
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        if depth < cfg.max_depth:
            found = _find_best_split(xs, order, g, h, g_sum, h_sum, cfg)
            if found is not None:
                gain, j, thr = found
                go_left = self.x_t[j] < thr
                # each block row holds the node's rows, so each keeps the same count
                keep = go_left[order]
                drop = ~keep
                in_left = go_left[rows]
                d = len(order)
                return TreeNode(
                    cover=h_sum,
                    feature=j,
                    threshold=thr,
                    gain=gain,
                    left=self.grow(rows[in_left], order[keep].reshape(d, -1),
                                   xs[keep].reshape(d, -1), depth + 1),
                    right=self.grow(rows[~in_left], order[drop].reshape(d, -1),
                                    xs[drop].reshape(d, -1), depth + 1),
                )
        weight = leaf_weight(g_sum, h_sum, cfg)
        if self.row_weights is not None:
            self.row_weights[rows] = weight
        return TreeNode(cover=h_sum, weight=weight)


def node_table(trees: Sequence[tuple[int, int, TreeNode]]) -> NodeTable:
    """Node table of (round, class, root) trees, kept in the order given."""
    return _flatten([{"round": r, "class_index": k, "root": _node_to_dict(root)}
                     for r, k, root in trees])


def _flatten(tree_docs: Iterable[dict]) -> NodeTable:
    """Node table of model.json tree documents; the one conversion into it.

    Reads the documents one level at a time: each level's nodes, across all
    trees, are converted column by column, and their children, left then
    right, make the next level. Subtree sizes, summed bottom-up, then give
    every node its pre-order position top-down. Raises ValueError naming
    the tree when a document lacks a key or holds a value that is not a
    number, or not an integer where one is due.
    """
    docs = list(tree_docs)
    tree_of = np.arange(len(docs))  # the tree of each node of the level
    level, class_index, round_index = _named(
        lambda ds: ([d["root"] for d in ds],
                    _integers("class_index", [d["class_index"] for d in ds]),
                    _integers("round", [d["round"] for d in ds])), docs, tree_of)
    # is_split, feature, threshold, gain, weight, cover of every node, in
    # level order
    columns: tuple[list, ...] = ([], [], [], [], [], [])
    levels = []  # is_split per level
    while level:
        *values, level = _named(_level, level, tree_of)
        for column, v in zip(columns, values):
            column.extend(v)
        levels.append(np.array(values[0], dtype=bool))
        tree_of = np.repeat(tree_of[levels[-1]], 2)

    empty = np.zeros(0, dtype=np.intp)
    sizes = [empty]  # subtree sizes per level, deepest level first
    for split in reversed(levels):
        size = np.ones(len(split), dtype=np.intp)
        size[split] += sizes[-1][0::2] + sizes[-1][1::2]
        sizes.append(size)
    sizes.reverse()
    root = position = np.cumsum(sizes[0]) - sizes[0]  # pre-order positions of a level
    places, lefts, rights = [empty], [empty], [empty]
    for split, below in zip(levels, sizes[1:]):
        left = position[split] + 1
        right = left + below[0::2]
        places.append(position)
        lefts.append(left)
        rights.append(right)
        position = np.stack([left, right], axis=1).ravel()
    place, left, right = (np.concatenate(p) for p in (places, lefts, rights))
    split = np.array(columns[0], dtype=bool)
    at, leaf_at = place[split], place[~split]

    def scatter(where, values, fill):
        out = np.full(len(place), fill)
        out[where] = values
        return out

    feature, threshold, gain, weight, cover = (np.array(c, dtype=float) for c in columns[1:])
    return NodeTable(scatter(at, feature, -1.0).astype(np.intp), scatter(at, left, -1),
                     scatter(at, right, -1), scatter(at, threshold, 0.0),
                     scatter(leaf_at, weight, 0.0), scatter(place, cover, 0.0),
                     scatter(at, gain, 0.0), root, np.array(class_index, dtype=np.intp),
                     np.array(round_index, dtype=np.intp))


def _level(nodes: list) -> tuple[list, ...]:
    """One tree level's nodes as columns, in node order, and the next level.

    The columns are is_split, the feature, threshold and gain of the splits,
    the weight of the leaves and the cover of every node; the next level
    holds each split's left then right child.
    """
    split = ["feature" in node for node in nodes]
    splits = [node for node, s in zip(nodes, split) if s]
    leaves = [node for node, s in zip(nodes, split) if not s]
    return (split, _integers("feature", [node["feature"] for node in splits]),
            [float(node["threshold"]) for node in splits],
            [float(node.get("gain", 0.0)) for node in splits],
            [float(node["weight"]) for node in leaves],
            [float(node["cover"]) for node in nodes],
            [child for node in splits for child in (node["left"], node["right"])])


def _integers(name: str, values: list) -> list:
    """values if each is a JSON integer, else ValueError: no float, string or bool is rounded."""
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ValueError(f"{name} must be an integer, got {bad[0]!r}")
    return values


def _named(convert, items: list, tree_of: np.ndarray):
    """convert(items), else a ValueError naming the tree of the first bad item.

    items[i] belongs to tree tree_of[i]. Only a failure looks for the
    culprit: the first item that convert fails on alone.
    """
    try:
        return convert(items)
    except (KeyError, TypeError, ValueError):
        for item, tree in zip(items, tree_of):
            try:
                convert([item])
            except KeyError as exc:
                raise ValueError(f"model tree {tree} is missing key {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"model tree {tree} is malformed: {exc}") from None
        raise


def _leaves(trees: NodeTable, x: np.ndarray) -> np.ndarray:
    """Index of the leaf each row of x reaches in each tree, shape (n, n_trees).

    Descends one level per step over every row and tree at once; a value
    strictly below a split's threshold goes left, and leaves stay put.
    """
    node = np.tile(trees.root, (x.shape[0], 1))
    while (trees.feature[node] >= 0).any():
        f = trees.feature[node]
        go_left = np.take_along_axis(x, f, axis=1) < trees.threshold[node]
        node = np.where(f < 0, node, np.where(go_left, trees.left[node], trees.right[node]))
    return node


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
    grown: list[tuple[int, int, TreeNode]] = []
    order = column_order(x)
    row_weights = np.empty(n)  # each row's leaf weight in the tree just grown
    for r in range(cfg.n_rounds):
        grad, hess = mlogloss_grad_hess(softmax(margins), y)
        for k in range(cfg.num_class):
            grown.append((r, k, build_tree(x, grad[:, k], hess[:, k], cfg, order, row_weights)))
            margins[:, k] += cfg.learning_rate * row_weights
    return Ensemble(
        trees=node_table(grown),
        base_score=base_score,
        num_class=cfg.num_class,
        feature_names=dataset.feature_names,
        config=cfg,
        scaler=dataset.scaler,
    )


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
    """Per-class probabilities for one sample: a one-row batch."""
    return predict_proba_batch(model, check_features(model, x, 1)[None, :])[0]


def predict_margin_batch(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class margins for a sample matrix, shape (n, num_class)."""
    x = check_features(model, x, 2)
    trees = model.trees
    outputs = model.config.learning_rate * trees.weight[_leaves(trees, x)]
    margins = np.tile(model.base_score.astype(float), (x.shape[0], 1))
    # adds tree by tree, in order, so each margin is the same sum in any batch
    np.add.at(margins, (slice(None), trees.class_index), outputs)
    return margins


def predict_proba_batch(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class probabilities for a sample matrix."""
    return softmax(predict_margin_batch(model, x))


def gain_importance(model: Ensemble) -> np.ndarray:
    """Total realized split gain per feature across the whole ensemble."""
    trees = model.trees
    split = trees.feature >= 0
    return np.bincount(trees.feature[split], trees.gain[split],
                       minlength=len(model.feature_names))


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


def _tree_dicts(trees: NodeTable) -> list[dict]:
    """The model.json documents of every tree in a node table."""
    columns = [getattr(trees, f.name).tolist() for f in fields(trees)]
    return [{"round": r, "class_index": k, "root": _node_doc(columns, i)}
            for i, k, r in zip(*columns[7:])]


def _node_doc(columns: list[list], i: int) -> dict:
    """The model.json document of the subtree at node i; columns in NodeTable order."""
    feature, left, right, threshold, weight, cover, gain = columns[:7]
    if feature[i] < 0:
        return {"cover": cover[i], "weight": weight[i]}
    return {"cover": cover[i], "feature": feature[i], "threshold": threshold[i],
            "gain": gain[i], "left": _node_doc(columns, left[i]), "right": _node_doc(columns, right[i])}


def _check_table(trees: NodeTable, n_features: int, num_class: int) -> None:
    """Raise ValueError naming the first tree the model cannot be applied with.

    Split features must lie in [0, n_features), thresholds and leaf weights
    must be finite, and class indices must lie in [0, num_class). Covers are
    checked when explaining, so that a zero-cover model still predicts.
    """
    bad_class = (trees.class_index < 0) | (trees.class_index >= num_class)
    if bad_class.any():
        raise ValueError(f"model tree {np.argmax(bad_class)} has a class index outside [0, {num_class})")
    split = trees.left >= 0
    bad = np.where(split, (trees.feature < 0) | (trees.feature >= n_features)
                   | ~np.isfinite(trees.threshold), ~np.isfinite(trees.weight))
    if bad.any():
        i = int(np.argmax(bad))
        tree = int(np.searchsorted(trees.root, i, side="right")) - 1
        what = (f"a split on feature {trees.feature[i]} at threshold {trees.threshold[i]!r}"
                if split[i] else f"a leaf weight {trees.weight[i]!r}")
        raise ValueError(f"model tree {tree} has {what}; split features must lie in "
                         f"[0, {n_features}) and thresholds and weights must be finite")


def model_to_dict(model: Ensemble) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": "evperf-gbdt",
        "num_class": model.num_class,
        "base_score": [float(b) for b in model.base_score],
        "feature_names": list(model.feature_names),
        "config": asdict(model.config),
        "scaler": (None if model.scaler is None else
                   {"mean": [float(m) for m in model.scaler.mean],
                    "std": [float(s) for s in model.scaler.std]}),
        "trees": _tree_dicts(model.trees),
    }


def _check_model(model: Ensemble) -> None:
    """Raise ValueError naming the first part of the model that model.json cannot hold.

    num_class must equal the config's, base_score must hold num_class finite
    values, feature_names must be unique, the scaler must hold one mean and
    std per feature, the tree count must be n_rounds x num_class, and every
    tree must be applicable (see ``_check_table``). The loader and
    ``save_model`` both run it, so that any model that can be written can
    be read.
    """
    num_class, n_features = model.num_class, len(model.feature_names)
    if num_class != model.config.num_class:
        raise ValueError(f"model num_class {num_class} differs from its config's "
                         f"num_class {model.config.num_class}")
    if np.shape(model.base_score) != (num_class,):
        raise ValueError(f"model base_score has shape {np.shape(model.base_score)}, "
                         f"expected ({num_class},) for num_class {num_class}")
    if not np.isfinite(model.base_score).all():
        raise ValueError(f"model base_score {list(map(float, model.base_score))} "
                         "must be finite")
    repeated = [name for i, name in enumerate(model.feature_names)
                if name in model.feature_names[:i]]
    if repeated:
        raise ValueError(f"model feature_names repeat {repeated[0]!r}; names must be unique")
    scaler = model.scaler
    if scaler is not None and (np.shape(scaler.mean) != (n_features,)
                               or np.shape(scaler.std) != (n_features,)):
        raise ValueError(f"model scaler has mean shape {np.shape(scaler.mean)} and std shape "
                         f"{np.shape(scaler.std)}, expected ({n_features},) for {n_features} features")
    n_trees, n_rounds = len(model.trees.root), model.config.n_rounds
    if n_trees != n_rounds * num_class:
        raise ValueError(f"model has {n_trees} trees, expected n_rounds x num_class = "
                         f"{n_rounds} x {num_class}")
    _check_table(model.trees, n_features, num_class)


def model_from_dict(doc: dict) -> Ensemble:
    """The model a model.json document describes.

    Raises ValueError naming what is wrong when a key is missing, num_class
    is not an integer, trees or feature_names is not a list, the config is
    not a TrainConfig, or ``_check_model`` rejects the model.
    """
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    missing = [k for k in ("num_class", "base_score", "feature_names", "config", "trees")
               if k not in doc]
    if missing:
        raise ValueError(f"model is missing key {missing[0]!r}")
    for key in ("trees", "feature_names"):
        if not isinstance(doc[key], list):
            raise ValueError(f"model {key} is {type(doc[key]).__name__}, expected a list")
    try:
        cfg = TrainConfig(**doc["config"])
    except TypeError as exc:
        raise ValueError(f"model config is malformed: {exc}") from None
    scaler = None
    if doc.get("scaler") is not None:
        scaler = ScalerParams(  # a missing mean or std reads as empty
            mean=np.asarray(doc["scaler"].get("mean", ()), dtype=float),
            std=np.asarray(doc["scaler"].get("std", ()), dtype=float),
        )
    model = Ensemble(
        trees=_flatten(doc["trees"]),
        base_score=np.asarray(doc["base_score"], dtype=float),
        num_class=_integers("model num_class", [doc["num_class"]])[0],
        feature_names=tuple(doc["feature_names"]),
        config=cfg,
        scaler=scaler,
    )
    _check_model(model)
    return model


def save_model(model: Ensemble, path: str | Path) -> None:
    """Serialize to versioned JSON; floats round-trip exactly via repr.

    Raises ValueError, before the file is opened, if ``_check_model`` rejects
    the model, so that every saved model loads.
    """
    _check_model(model)
    Path(path).write_text(
        json.dumps(model_to_dict(model), indent=1, sort_keys=True), encoding="utf-8"
    )


def load_model(path: str | Path) -> Ensemble:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
