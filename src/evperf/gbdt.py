"""Multiclass gradient-boosted decision trees with second-order split search.

Trees are grown by exact greedy enumeration of every midpoint between
consecutive distinct feature values, scoring splits with the regularized
second-order gain (L2 on leaf weights, L1 via soft thresholding of the
gradient sum, and a flat per-split penalty). One tree per class per round is
fit to the softmax cross-entropy gradients and Hessians.

Split search follows XGBoost's presorted column blocks (Chen & Guestrin
2016): each feature column is sorted once per fit, and a node keeps its rows
as (d, m) blocks in each feature's value order and nothing else. ``train``
builds the root's blocks once per fit and every tree starts from them. A
split cuts the blocks into its children's, keeping the order, so a node is
scored by cumulative sums, gain matrices and argmaxes over its blocks, with
no sorting. Any block row lists a node's rows, so a leaf gives the margin
update of its rows directly. A split on the last level cuts nothing: in the
split feature's block row, the rows it sends left are a prefix, which is all
its two leaves need.

The cut is by index: the split's go-left flags are gathered in block order,
one ``nonzero`` per side gives that side's positions, and ``take`` copies the
children's blocks. A boolean mask would select the same
elements in the same order, but numpy's mask indexing copies one run at a
time, and a split seen in another feature's order has short runs. For the
whole cut of a 5 x m node split at a median, the mask path against the index
path took 18.5 against 12.1 us at m = 240, 219 against 53 us at 2,000 and
766 against 246 us at 6,316, and 5.1 against 5.4 us at m = 8 (medians of
15; 2-core x86-64 VM, Python 3.11, numpy 2.4).

The blocks are scored in tiles of whole feature rows holding at most
``_TILE`` (8,192) float64 values, as XGBoost sizes its column blocks to the
cache (Chen & Guestrin 2016, section 4.2). Each of a tile's temporaries is
then at most 64 KiB: it stays in cache, and it stays below glibc malloc's
128 KiB threshold, above which every temporary is a fresh mmap whose pages
fault in again at every node. The tie-break does not depend on the tiling:
a tile's argmax returns its first maximum in row-major order, and a later
tile replaces the best only with a strictly greater gain, so ties still go
to the lowest feature, then the lowest threshold, as in one argmax over the
whole gain matrix. Batch prediction keeps to the same budget: rows descend
the trees ``_TILE // n_trees`` at a time, so its (rows, trees) temporaries
do not grow with the batch.

Split search gathers and sums the gradients and Hessians as one complex
array: ``build_tree`` fills it once per tree with the gradients as real
parts and the Hessians as imaginary parts, by assignment, since
``g + 1j * h`` would turn a -0.0 gradient into +0.0. Each tile then makes
one gather and one ``np.add.accumulate`` where it made two of each; a
complex sum adds the real parts and the imaginary parts separately, left
to right, so each prefix sum has the bits of its statistic's own cumulative
sum. The two parts are then copied out into contiguous arrays, because the
validity mask, the score and the argmax run slower on the strided
``.real``/``.imag`` views, by about as much as the complex sum saves. A
complex value counts as two of ``_TILE``, so a tile holds
``_TILE // (2 * m)`` feature rows of an m-row node (at least one), and its
complex temporaries stay within 64 KiB.

Node sums are kept as XGBoost keeps them (Chen & Guestrin 2016, Alg. 1).
Only the root's gradient and Hessian sums are reduced from rows, by two
float64 ``np.add.reduce`` calls. A split's left child takes the winning
candidate's prefix sums and its right child the parent's sums less those, so
no node gathers or reduces its rows again, and a child's cover is exactly the
Hessian that passed the min-child check. Candidates are ranked by their
children's score S(G_L)^2/(H_L+lambda) + S(G_R)^2/(H_R+lambda) alone: the
parent's S(G)^2/(H+lambda) is the same for every candidate of a node, so it
is taken off once, for the winner's gain.

Trees are grown as ``TreeNode`` graphs and then stored, once, in the
ensemble's node table: flat arrays over every node of every tree, in
pre-order, tree after tree, as in XGBoost's ``RegTree`` (Chen & Guestrin
2016). Prediction, training's margin updates, gain importance, TreeSHAP and
``model.json`` all read that table. ``save_model`` writes ``model.json`` in
one pre-order pass over the table's columns, byte for byte the text of
``json.dumps(indent=1, sort_keys=True)``, into a temporary file that then
replaces the target, so an interrupted save leaves the previous file whole.

Split search calls numpy's ufunc methods (``np.add.accumulate``,
``np.add.reduce``, ``ndarray.argmax``) rather than the Python wrappers
around them: the same C loops, so the same bits, without a wrapper's
microseconds on each of a node's few dozen calls. The cut likewise calls
``ndarray.nonzero`` and ``ndarray.take``, not ``np.flatnonzero`` or
``np.compress``: most cut nodes hold a few dozen rows.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .data import DataError, Dataset, ScalerParams

HESS_EPS = 1e-16  # floor on per-sample Hessians; keeps covers positive

MODEL_FORMAT_VERSION = 1

_TILE = 8192  # values per split-search or prediction temporary: 64 KiB of float64


class ModelInputError(ValueError):
    """Input a model cannot be applied to: non-finite features or a bad node cover."""


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters.

    reg_lambda/reg_alpha are the L2/L1 penalties on leaf weights; gamma is
    the minimum gain a split must clear; min_child_hessian rejects splits
    whose children carry too little Hessian mass. Each field takes only what
    model.json holds, so that every config ``train`` accepts can be saved
    and loaded: the int fields a Python int or a numpy integer, stored as an
    int, and the float fields a number within the float range, a numpy one
    stored as a float. A bool, a float in an int field (integral or not) or
    a string raises a ValueError naming the field.
    """

    # near the lowest pooled held-out mlogloss of default fleets; see tools/round_curves.py
    n_rounds: int = 30
    learning_rate: float = 0.1
    max_depth: int = 4
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    gamma: float = 0.0
    min_child_hessian: float = 1e-3
    num_class: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                kind, types = "an integer", (int, np.integer)
            else:
                kind, types = "a number", (int, float, np.integer, np.floating)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            if type(value) is int and f.type == "float":
                _json_array(f.name, [value])  # refuses an int beyond the float range
            elif type(value) not in (int, float):
                object.__setattr__(self, f.name, int(value) if f.type == "int" else float(value))
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


def _score(g, h, cfg: TrainConfig):
    """S(G)^2/(H+lambda), with S the L1 soft-threshold; operands may be scalars or arrays.

    Twice the objective reduction of a leaf whose rows sum to G and H. A
    split's gain is half its children's scores less its parent's, less gamma.
    """
    s = _soft_threshold(g, cfg.reg_alpha)
    score = s * s
    score /= h + cfg.reg_lambda
    return score


def leaf_weight(g_sum: float, h_sum: float, cfg: TrainConfig) -> float:
    """Optimal regularized leaf weight -S(G)/(H + lambda)."""
    return float(-_soft_threshold(g_sum, cfg.reg_alpha) / (h_sum + cfg.reg_lambda))


def _find_best_split(xs, order, gh, g_sum, h_sum, cfg):
    """Best (gain, feature, threshold, G_L, H_L) of a node over all exact candidates, or None.

    ``xs`` is the node's (d, m) value block: row j holds the node's values of
    feature j in ascending order, and ``order`` row j the rows they belong
    to, whose gradients and Hessians are gathered from ``gh``, the fit's
    gradients as real parts and Hessians as imaginary parts. Candidates are
    midpoints between consecutive distinct values, scored from one complex
    cumulative sum, which adds the real and the imaginary parts separately
    and in order, so each is the cumulative sum of its statistic bit for
    bit. The two parts are then copied out into contiguous arrays, which the
    score runs faster on than on strided ``.real``/``.imag`` views. A
    complex value counts as two of ``_TILE``, so a tile holds
    ``_TILE // (2 * m)`` feature rows (at least one).

    As in XGBoost (Chen & Guestrin 2016, Alg. 1), candidates are ranked by
    their children's score S(G_L)^2/(H_L+lambda) + S(G_R)^2/(H_R+lambda)
    alone, with G_R = G - G_L and H_R = H - H_L from the node's sums
    ``g_sum``/``h_sum``, and the parent's score is taken off once, from those
    sums, for the winner's gain. A candidate is valid when both children's
    Hessians reach ``min_child_hessian``, floored at ``HESS_EPS`` so that no
    child's Hessian is zero; a dropped candidate's score may divide by zero,
    so callers ignore numpy's divide and invalid warnings. The winner's
    prefix sums G_L, H_L are returned as its left child's sums. Ties resolve
    to the lowest feature, then the lowest threshold: argmax scans a tile's
    scores row by row and returns the first maximum, and a later tile wins
    only with a strictly greater score.
    """
    d, m = xs.shape
    if d == 0 or m < 2:
        return None
    least = max(cfg.min_child_hessian, HESS_EPS)
    step = max(1, _TILE // (2 * m))
    best = None  # (score, feature, position, G_L, H_L)
    for lo in range(0, d, step):
        x = xs[lo:lo + step]
        sums = np.add.accumulate(gh[order[lo:lo + step]], axis=1)[:, :-1]
        cg, ch = sums.real.copy(), sums.imag.copy()
        del sums  # frees the complex buffer before the score's temporaries
        h_r = h_sum - ch
        valid = (x[:, :-1] < x[:, 1:]) & (ch >= least) & (h_r >= least)
        scores = _score(cg, ch, cfg)
        scores += _score(g_sum - cg, h_r, cfg)
        scores[~valid] = -np.inf
        j, k = divmod(int(scores.argmax()), m - 1)
        if best is None or scores[j, k] > best[0]:
            best = (scores[j, k], lo + j, k, cg[j, k], ch[j, k])
    score, j, k, g_left, h_left = best
    gain = 0.5 * (score - _score(g_sum, h_sum, cfg)) - cfg.gamma
    if gain <= 0:
        return None
    below, above = float(xs[j, k]), float(xs[j, k + 1])
    # The midpoint of adjacent doubles can round down onto the lower one, and
    # that of two near the float maximum overflows; either way the upper value
    # is the threshold that separates them.
    mid = 0.5 * (below + above)
    return float(gain), j, mid if below < mid <= above else above, float(g_left), float(h_left)


def column_order(features: np.ndarray) -> np.ndarray:
    """Row indices of each feature column in ascending value order, shape (d, n).

    The sort is stable, so tied values keep their row order. ``build_tree``
    takes it to share one sort between the trees grown on the same features.
    """
    return np.argsort(np.asarray(features, dtype=float).T, axis=1, kind="stable")


def _root_blocks(x: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The features by column, (d, n), and the root's value blocks: row j is x[order[j], j]."""
    x_t = np.ascontiguousarray(x.T)
    return x_t, x_t[np.arange(x_t.shape[0])[:, None], order]


def build_tree(features: np.ndarray, g: np.ndarray, h: np.ndarray, cfg: TrainConfig,
               order: np.ndarray | None = None,
               row_weights: np.ndarray | None = None,
               blocks: tuple[np.ndarray, np.ndarray] | None = None) -> TreeNode:
    """Grow one regression tree by exact greedy search.

    Growth stops at max_depth, when no candidate split has positive gain, or
    when every candidate leaves a child's Hessian below min_child_hessian,
    floored at HESS_EPS. ``order`` is ``column_order(features)`` and
    ``blocks`` is ``_root_blocks(features, order)``, each computed here when
    not given; ``train`` computes both once per fit and shares them between
    its trees. When ``row_weights`` is given, each of its n entries receives
    the weight of the leaf that row reached. Every gradient must be finite,
    and every Hessian finite and at least HESS_EPS, as
    ``mlogloss_grad_hess`` makes them; otherwise a ValueError names ``g`` or
    ``h``.
    """
    x = np.asarray(features, dtype=float)
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.ndim != 2 or x.shape[0] != g.shape[0] or g.shape != h.shape:
        raise ValueError("features, gradients and Hessians must align row-wise")
    n, d = x.shape
    if n == 0:  # a leaf of no rows has cover 0
        raise ValueError("cannot grow a tree on no rows")
    if order is None:
        order = column_order(x)
    elif order.shape != (d, n):
        raise ValueError(f"column order has shape {order.shape}, expected {(d, n)}")
    if row_weights is not None and row_weights.shape != (n,):
        raise ValueError(f"row_weights has shape {row_weights.shape}, expected {(n,)}")
    x_t, xs = _root_blocks(x, order) if blocks is None else blocks
    # Split search gathers and sums both statistics as one complex array. The
    # parts are assigned, not computed as g + 1j * h, which would turn a -0.0
    # gradient into +0.0.
    gh = np.empty(n, dtype=complex)
    gh.real, gh.imag = g, h
    # A candidate the search drops may have a child Hessian of 0, and its
    # score then divides by zero; the errstate is set once per tree, not per
    # node. It also quiets the NaN sum of +inf and -inf, which is refused.
    with np.errstate(divide="ignore", invalid="ignore"):
        # Only the root's sums are reduced from rows (see the module
        # docstring). A NaN or an infinity makes its sum non-finite, so the
        # sums check every value.
        g_sum, h_sum = float(np.add.reduce(g)), float(np.add.reduce(h))
        if not math.isfinite(g_sum):
            raise ValueError("g must hold finite gradients with a finite sum")
        if not math.isfinite(h_sum) or np.minimum.reduce(h) < HESS_EPS:
            raise ValueError(f"h must hold finite Hessians of at least HESS_EPS={HESS_EPS:g} "
                             "with a finite sum")
        # Pending nodes, each with its gradient sum (its Hessian sum is its
        # cover) and its (d, m) blocks: ``order`` row j lists the node's rows
        # in ascending order of feature j, and ``xs`` row j their values, so
        # every block row holds the node's rows and a leaf reads them from
        # ``order[0]``. A child's blocks are cut from its parent's by the
        # split; the cut keeps the order, ties included, so each child is
        # sorted without sorting. A split pushes its right child, then its
        # left, so nodes are grown in pre-order; once its children's blocks
        # are cut, its own are dropped, and the blocks alive are those of
        # pending right siblings, which hold disjoint rows. A split on the
        # last level cuts nothing: its children are leaves, and the rows it
        # sends left are a prefix of the split feature's block row. With no
        # feature, the root is the one leaf and holds every row.
        root = TreeNode(cover=h_sum)
        pending = [(root, g_sum, order, xs, 0)]
        last = cfg.max_depth - 1
        while pending:
            node, g_sum, order, xs, depth = pending.pop()
            found = _find_best_split(xs, order, gh, g_sum, node.cover, cfg)
            if found is None:
                node.weight = leaf_weight(g_sum, node.cover, cfg)
                if row_weights is not None:
                    row_weights[order[0] if d else slice(None)] = node.weight
                continue
            node.gain, f, node.threshold, g_left, h_left = found
            node.feature = f
            node.left, node.right = TreeNode(cover=h_left), TreeNode(cover=node.cover - h_left)
            if depth == last:
                node.left.weight = leaf_weight(g_left, h_left, cfg)
                node.right.weight = leaf_weight(g_sum - g_left, node.right.cover, cfg)
                if row_weights is not None:
                    c = xs[f].searchsorted(node.threshold)
                    row_weights[order[f, :c]] = node.left.weight
                    row_weights[order[f, c:]] = node.right.weight
                continue
            left, right = _cut(x_t[f] < node.threshold, order, xs)
            pending.append((node.right, g_sum - g_left, *right, depth + 1))
            pending.append((node.left, g_left, *left, depth + 1))
    return root


def _cut(go_left, order, xs):
    """The left and right children's (order, xs) blocks of a split node.

    ``go_left`` flags each row of the fit that the split sends left, and the
    (d, m) ``order`` and ``xs`` blocks are the node's. Each child gets the
    elements that boolean masks would select, in the same order, so its
    blocks stay sorted; they are cut by index, as the module docstring
    explains. Each block row holds the node's rows, so each keeps the same
    count and a side's flat positions reshape to (d, -1). The flags in block
    order are dropped before the takes, and the right side's positions once
    its takes are done, so that growth holds little beyond the parent's and
    the children's blocks.
    """
    d = order.shape[0]
    keep = go_left.take(order).ravel()
    at_left, at_right = keep.nonzero()[0].reshape(d, -1), (~keep).nonzero()[0].reshape(d, -1)
    del keep
    right = order.take(at_right), xs.take(at_right)
    del at_right
    return (order.take(at_left), xs.take(at_left)), right


def node_table(trees: Sequence[tuple[int, int, TreeNode]]) -> NodeTable:
    """Node table of (round, class, root) trees, kept in the order given."""
    return _flatten([{"round": r, "class_index": k, "root": _node_to_dict(root)}
                     for r, k, root in trees])


def _flatten(tree_docs: Iterable[dict]) -> NodeTable:
    """Node table of model.json tree documents; the one conversion into it.

    Walks each tree once in pre-order with a stack, appending each popped
    node's row. A split pushes its right child, tagged with the split's row,
    then its left child, so the left child is the next row and the right
    child fills in its parent's ``right`` when popped. Each column is then
    checked and converted once over all trees. A missing key or a node that
    is not an object names the tree being walked; a value that is not a
    number, or not an integer within the int64 range where one is due, names
    the tree its row lies in, found from the roots. Raises ValueError.
    """
    root, class_index, round_index = [], [], []
    feature, threshold, gain, weight, cover, right = [], [], [], [], [], []
    for tree, doc in enumerate(tree_docs):
        try:
            class_index.append(doc["class_index"])
            round_index.append(doc["round"])
            root.append(len(cover))
            stack = [(doc["root"], -1)]
            while stack:
                node, parent = stack.pop()
                if parent >= 0:
                    right[parent] = len(cover)
                cover.append(node["cover"])
                right.append(-1)
                split = "feature" in node
                if split:
                    stack += (node["right"], len(cover) - 1), (node["left"], -1)
                feature.append(node["feature"] if split else -1)
                threshold.append(node["threshold"] if split else 0.0)
                gain.append(node.get("gain", 0.0) if split else 0.0)
                weight.append(0.0 if split else node["weight"])
        except KeyError as exc:
            raise ValueError(f"model tree {tree} is missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"model tree {tree} is malformed: {exc}") from None
    root = np.array(root, dtype=np.intp)
    trees = np.arange(len(root))
    columns = []
    for name, values, starts, dtype in (
            ("class_index", class_index, trees, np.intp), ("round", round_index, trees, np.intp),
            ("feature", feature, root, np.intp), ("threshold", threshold, root, float),
            ("gain", gain, root, float), ("weight", weight, root, float),
            ("cover", cover, root, float)):
        try:
            columns.append(_json_array(name, values, dtype))
        except _BadValue as exc:
            tree = int(np.searchsorted(starts, exc.index, side="right")) - 1
            raise ValueError(f"model tree {tree} is malformed: {exc}") from None
    class_index, round_index, feature, threshold, gain, weight, cover = columns
    right = np.array(right, dtype=np.intp)
    left = np.where(right >= 0, np.arange(1, len(right) + 1), -1)
    return NodeTable(feature, left, right, threshold, weight, cover, gain, root, class_index,
                     round_index)


class _BadValue(ValueError):
    """A value a column of JSON values cannot hold, at position ``index`` of the column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _json_array(name: str, values: list, dtype=float) -> np.ndarray:
    """values as an array of dtype, float or np.intp, if dtype holds each.

    A float array takes JSON numbers within the float range, an intp array
    JSON integers within the int64 range. Else raises _BadValue at the first
    value that does not fit: no string or bool is converted, no float is
    rounded to an integer, and no integer wraps around or overflows later.
    """
    kind, types, bounds = (("an integer", {int}, "int64") if dtype is np.intp
                           else ("a number", {int, float}, "float"))
    if set(map(type, values)) <= types:
        try:
            return np.array(values, dtype=dtype)
        except OverflowError:
            pass
    for i, v in enumerate(values):
        if type(v) not in types:
            raise _BadValue(f"{name} must be {kind}, got {v!r}", i)
        try:
            dtype(v)
        except OverflowError:
            raise _BadValue(f"{name} must be {kind} within the {bounds} range, "
                            f"got an integer of {_digit_count(v)} digits", i) from None


def _digit_count(v: int) -> int:
    """The decimal digits of abs(v), counted without ``str``, which refuses more than 4,300.

    A lower bound from the bit length, since log10(2) > 0.301029995, is raised
    while v still reaches the next power of ten: at most twice below 10**9 bits.
    """
    v = abs(v)
    digits = (v.bit_length() - 1) * 301029995 // 10**9 + 1
    while v >= 10**digits:
        digits += 1
    return digits


def _number_array(name: str, values) -> np.ndarray:
    """A model document's list of JSON numbers as floats, else ValueError naming it."""
    if not isinstance(values, list):
        raise ValueError(f"{name} is {type(values).__name__}, expected a list")
    return _json_array(name, values)


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
    if cfg.num_class > n:  # before bincount allocates num_class counts
        raise ValueError(f"num_class={cfg.num_class} exceeds the {n} training rows, "
                         "so some class is absent from training data")
    counts = np.bincount(y, minlength=cfg.num_class)
    absent = np.flatnonzero(counts == 0)
    if absent.size:
        raise ValueError(f"class {int(absent[0])} absent from training data")
    base_score = np.log(counts / n)

    margins = np.tile(base_score, (n, 1))
    grown: list[tuple[int, int, TreeNode]] = []
    order = column_order(x)
    blocks = _root_blocks(x, order)
    row_weights = np.empty(n)  # each row's leaf weight in the tree just grown
    for r in range(cfg.n_rounds):
        grad, hess = mlogloss_grad_hess(softmax(margins), y)
        for k in range(cfg.num_class):
            grown.append((r, k, build_tree(x, grad[:, k], hess[:, k], cfg, order, row_weights,
                                              blocks)))
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


def _row_blocks(trees: NodeTable, n: int) -> Iterator[slice]:
    """Slices of n rows whose (rows, n_trees) descent temporaries hold at most _TILE values."""
    step = max(1, _TILE // max(1, len(trees.root)))
    return (slice(lo, lo + step) for lo in range(0, n, step))


def predict_margin_batch(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class margins for a sample matrix, shape (n, num_class).

    Rows descend and add their leaf outputs a block at a time, so each
    (rows, trees) temporary holds at most ``_TILE`` values however many rows
    x has. A row adds its trees in table order, so each margin is the same
    sum in any batch and in any block.
    """
    x = check_features(model, x, 2)
    trees = model.trees
    margins = np.tile(model.base_score.astype(float), (x.shape[0], 1))
    for block in _row_blocks(trees, x.shape[0]):
        outputs = model.config.learning_rate * trees.weight[_leaves(trees, x[block])]
        np.add.at(margins[block], (slice(None), trees.class_index), outputs)
    return margins


def staged_margins(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Per-class margins after each boosting round, shape (n, n_rounds, num_class).

    base_score comes first and a running sum over the rounds adds each
    round's steps to the sum before it, in place, so each margin is
    predict_margin_batch's sum of the same trees in the same order: the
    prefix at round r equals the margins of the model's first r rounds, and
    the last round equals predict_margin_batch(model, x) bit for bit. Rows
    descend in predict_margin_batch's blocks; only the
    (n, n_rounds + 1, num_class) array of steps, which becomes the result,
    grows with n.
    """
    x = check_features(model, x, 2)
    trees = model.trees
    steps = np.zeros((x.shape[0], model.config.n_rounds + 1, model.num_class))
    steps[:, 0] = model.base_score
    for block in _row_blocks(trees, x.shape[0]):
        np.add.at(steps[block], (slice(None), trees.round_index + 1, trees.class_index),
                  model.config.learning_rate * trees.weight[_leaves(trees, x[block])])
    for r in range(1, steps.shape[1]):
        steps[:, r] += steps[:, r - 1]
    return steps[:, 1:]


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
        what = (f"a split on feature {trees.feature[i]} at threshold {float(trees.threshold[i])!r}"
                if split[i] else f"a leaf weight {float(trees.weight[i])!r}")
        raise ValueError(f"model tree {tree} has {what}; split features must lie in "
                         f"[0, {n_features}) and thresholds and weights must be finite")


def _float_texts(values: np.ndarray) -> list[str]:
    """Each value as json.dumps writes a float: its repr, or NaN, Infinity, -Infinity."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = json.dumps(float(values[i]))
    return texts


def _trees_text(trees: NodeTable) -> str:
    """model.json's "trees" list, as json.dumps(indent=1, sort_keys=True) writes it
    as the value of a top-level key.

    One pass over the node table in index order, which is each tree's
    pre-order: a node's keys are indented by its depth, the count of splits
    still open above it. A leaf closes every split whose right subtree it
    ends, and then opens the right side of the split whose left subtree it
    ends. Each float column is read in index order over the nodes that carry
    it, so only those values are formatted.
    """
    if not len(trees.root):
        return "[]"
    feature, right = trees.feature.tolist(), trees.right.tolist()
    split = trees.feature >= 0
    covers = iter(_float_texts(trees.cover))
    gains, thresholds = (iter(_float_texts(c[split])) for c in (trees.gain, trees.threshold))
    weights = iter(_float_texts(trees.weight[~split]))
    roots = trees.root.tolist()
    out = ["[\n"]
    for start, end, k, r in zip(roots, [*roots[1:], len(feature)], trees.class_index.tolist(),
                                trees.round_index.tolist()):
        out.append(f'  {{\n   "class_index": {k},\n   "root": ')
        open_splits: list[tuple[int, str]] = []  # (right child, threshold text)
        for i in range(start, end):
            pad = " " * (len(open_splits) + 4)
            if feature[i] >= 0:
                out.append(f'{{\n{pad}"cover": {next(covers)},\n{pad}"feature": {feature[i]},\n'
                           f'{pad}"gain": {next(gains)},\n{pad}"left": ')
                open_splits.append((right[i], next(thresholds)))
                continue
            out.append(f'{{\n{pad}"cover": {next(covers)},\n{pad}"weight": {next(weights)}\n'
                       f'{pad[1:]}}}')
            while open_splits:
                pad = " " * (len(open_splits) + 3)
                right_child, threshold = open_splits[-1]
                if right_child == i + 1:
                    out.append(f',\n{pad}"right": ')
                    break
                open_splits.pop()
                out.append(f',\n{pad}"threshold": {threshold}\n{pad[1:]}}}')
        out.append(f',\n   "round": {r}\n  }},\n')
    out[-1] = out[-1][:-2]  # no comma after the last tree
    out.append("\n ]")
    return "".join(out)


def _model_text(model: Ensemble) -> str:
    """model.json's text: exactly json.dumps(doc, indent=1, sort_keys=True).

    Every key but "trees" goes through json.dumps; "trees" sorts last, so its
    text, written from the node table, closes the document.
    """
    head = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "model_type": "evperf-gbdt",
        "num_class": model.num_class,
        "base_score": [float(b) for b in model.base_score],
        "feature_names": list(model.feature_names),
        "config": asdict(model.config),
        "scaler": (None if model.scaler is None else
                   {"mean": [float(m) for m in model.scaler.mean],
                    "std": [float(s) for s in model.scaler.std]}),
    }, indent=1, sort_keys=True)
    return f'{head[:-2]},\n "trees": {_trees_text(model.trees)}\n}}'


def model_to_dict(model: Ensemble) -> dict:
    """The model's model.json document, parsed from the text save_model writes."""
    return json.loads(_model_text(model))


def _check_model(model: Ensemble) -> None:
    """Raise ValueError naming the first part of the model that model.json cannot hold.

    num_class must equal the config's, base_score must hold num_class finite
    values, feature_names must be unique, the scaler must hold one mean and
    std per feature, the tree count must be n_rounds x num_class, every
    tree's round must lie in [0, n_rounds), and every tree must be
    applicable (see ``_check_table``). The loader and
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
    rounds = model.trees.round_index
    bad_round = (rounds < 0) | (rounds >= n_rounds)
    if bad_round.any():
        tree = int(np.argmax(bad_round))
        raise ValueError(f"model tree {tree} has round {rounds[tree]} outside [0, {n_rounds})")
    _check_table(model.trees, n_features, num_class)


def _config_from_doc(doc) -> TrainConfig:
    """The TrainConfig of a model document's config.

    TrainConfig checks each field's type and range. Raises ValueError naming
    the field, or naming the config when it is not an object or has unknown
    keys.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model config is {type(doc).__name__}, expected an object")
    try:
        return TrainConfig(**doc)
    except TypeError as exc:
        raise ValueError(f"model config is malformed: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"model config {exc}") from None


def model_from_dict(doc: dict) -> Ensemble:
    """The model a model.json document describes.

    Raises ValueError naming what is wrong when the document or its scaler
    is not an object, a key is missing, num_class is not an integer, trees
    is not a list, feature_names is not a list of strings, base_score or the
    scaler's mean or std is not a list of numbers, the config is not a
    TrainConfig, or ``_check_model`` rejects the model.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"model document is {type(doc).__name__}, expected an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"model format version {version!r} is not supported; "
                         f"expected {MODEL_FORMAT_VERSION}")
    missing = [k for k in ("num_class", "base_score", "feature_names", "config", "trees")
               if k not in doc]
    if missing:
        raise ValueError(f"model is missing key {missing[0]!r}")
    for key in ("trees", "feature_names"):
        if not isinstance(doc[key], list):
            raise ValueError(f"model {key} is {type(doc[key]).__name__}, expected a list")
    not_names = [name for name in doc["feature_names"] if type(name) is not str]
    if not_names:
        raise ValueError(f"model feature_names must be strings, got {not_names[0]!r}")
    cfg = _config_from_doc(doc["config"])
    scaler = doc.get("scaler")
    if scaler is not None:
        if not isinstance(scaler, dict):
            raise ValueError(f"model scaler is {type(scaler).__name__}, expected an object or null")
        try:
            scaler = ScalerParams(  # a missing mean or std reads as empty
                mean=_number_array("model scaler mean", scaler.get("mean", [])),
                std=_number_array("model scaler std", scaler.get("std", [])),
            )
        except DataError as exc:
            raise ValueError(f"model {exc}") from None
    model = Ensemble(
        trees=_flatten(doc["trees"]),
        base_score=_number_array("model base_score", doc["base_score"]),
        num_class=int(_json_array("model num_class", [doc["num_class"]], np.intp)[0]),
        feature_names=tuple(doc["feature_names"]),
        config=cfg,
        scaler=scaler,
    )
    _check_model(model)
    return model


@contextmanager
def atomic_open(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """Open a UTF-8 text file that replaces ``path`` in one step once written.

    The text goes to a temporary file beside ``path``, opened as a plain
    ``open`` would, which ``os.replace`` moves over ``path`` when the block
    ends without error. On any error the temporary file is removed instead,
    so an interrupted write leaves the previous file as it was. Every file
    the CLI writes goes through it.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_model(model: Ensemble, path: str | Path) -> None:
    """Write model.json; floats round-trip exactly via repr.

    Raises ValueError, before any file is opened, if ``_check_model``
    rejects the model, so that every saved model loads. It is written
    through ``atomic_open``: an interrupted save leaves the previous file as
    it was.
    """
    _check_model(model)
    text = _model_text(model)
    with atomic_open(path) as fh:
        fh.write(text)


def load_model(path: str | Path) -> Ensemble:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
