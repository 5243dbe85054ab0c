"""Exact additive Shapley attributions for boosted-tree ensembles.

Implements path-dependent TreeSHAP: node covers act as the marginalization
distribution, so each tree's attributions decompose its own output exactly
(local accuracy) without any background dataset. The ensemble's node table is
split once, with numpy, one tree level at a time, into root-to-leaf paths with
repeated features merged; each path's attributions and pairwise interaction
values are closed-form polynomials in its features' cover fractions and
in-interval bits, evaluated for a batch of rows with numpy. A path depends on
a row only through its L bits, so a batch of at least 2^L rows evaluates the
path once per bit pattern and each row gathers its pattern's entry. The
coefficients of the feature left out of an attribution (or the pair left
out of an interaction) do not depend on its bits, so each exclusion's
coefficients are built over the bits it keeps only, by doubling, bit after
bit: O(2^(L-1) L^2) per path for attributions. Smaller batches, such as
one-row calls, evaluate the path per row, in O(L^3) per row. Both give the
same bits. Attributions, interactions and base values all come from that one
path set, which is built on first use and kept on the Ensemble. ``explain_matrix`` and
``interaction_values`` take a batch of rows; one sample is a one-row batch
(``shap_values(model, x).phi[0]`` and ``interaction_values(model,
x[None])[0]``).

A batch's attributions are one ``Explanation``: the base value, the
(n, d, K) attributions and the (n, d) feature values in input units. The
derived analyses read its arrays: global importance ranking, dependence
data and its binned slopes, and force-plot decompositions. The brute-force
Shapley oracles that check the path set live with the tests.

Attributions live in margin (pre-softmax) space, where additivity is exact;
downstream figure labels should say so.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .gbdt import Ensemble, ModelInputError, check_features


@dataclass(frozen=True)
class Explanation:
    """Per-class additive decomposition of a batch of predictions.

    For row r and class k, base_value[k] + sum_i phi[r, i, k] equals the
    predicted margin. ``values`` holds the rows' feature values in input
    units, unscaled when the model was trained on standardized data.
    """

    base_value: np.ndarray            # (num_class,)
    phi: np.ndarray                   # (n, n_features, num_class)
    values: np.ndarray                # (n, n_features)
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.phi)


# --- merged root-to-leaf paths ------------------------------------------------
#
# Path-dependent TreeSHAP decomposes each tree into its root-to-leaf paths
# (GPUTreeShap, Mitchell et al. 2022). A feature split several times on one
# path is merged into one interval [lo, hi) and one zero fraction z, the
# product of child/parent covers over its splits. With leaf value v and the
# bits o_j = [lo_j <= x_j < hi_j] of the path's L unique features, the path's
# share of the tree's expected output given a coalition S is
# v * prod_{j in S} o_j * prod_{j not in S} z_j. That product game has closed
# forms (Lundberg et al. 2018) in the coefficients e_k of t^k in the product
# of (z_m + o_m t) over the path's other features:
#
#   phi_i  = v (o_i - z_i) sum_k k!(L-1-k)!/L! e_k
#   phi_ij = v/2 (o_i - z_i)(o_j - z_j) sum_k k!(L-2-k)!/(L-1)! e_k
#
# Every path of the ensemble is stored once, grouped by L, so a batch of rows
# is explained with array operations over (rows, paths, features).


@dataclass(frozen=True)
class _PathGroup:
    """The ensemble's paths with L unique features each, as (P, L) arrays."""

    feature: np.ndarray      # (P, L) feature indices
    lo: np.ndarray           # (P, L) merged interval, lo <= x < hi
    hi: np.ndarray           # (P, L)
    zero: np.ndarray         # (P, L) zero fractions
    value: np.ndarray        # (P,) learning rate times leaf weight
    class_index: np.ndarray  # (P,)


@dataclass(frozen=True)
class _PathSet:
    groups: tuple[_PathGroup, ...]  # L >= 1; leaf-only trees only shift the base
    base_value: np.ndarray          # (num_class,) base score + sum of v * prod(z)


def _build_paths(model: Ensemble) -> _PathSet:
    """Every root-to-leaf path of the node table, built one tree level at a time.

    ``path[i]`` is the merged path above node i: a (W, 4) block of (feature,
    lo, hi, zero) for the path's unique features in order of first use, with
    ``length[i]`` of them filled. Each level gains a column; every split on
    it merges its feature into that feature's slot (the next free one if
    new) and hands the result to both children.
    """
    t = model.trees
    n = len(t.feature)
    # a zero leaf cover is a path that no training row reached; it still
    # explains. A cover with its sign bit set (negative, or -0.0) would give a
    # zero fraction below +0, so it is rejected: the pattern tables rely on
    # coefficients that are all >= +0
    bad = ~np.isfinite(t.cover) | np.signbit(t.cover) | ((t.feature >= 0) & ~(t.cover > 0))
    if bad.any():
        i = int(np.argmax(bad))
        tree = int(np.searchsorted(t.root, i, side="right")) - 1
        raise ModelInputError(
            f"model tree {tree} has a node cover {float(t.cover[i])!r}; node covers must be "
            "finite and non-negative, and positive at splits"
        )
    path = np.zeros((n, 0, 4))
    length = np.zeros(n, dtype=np.intp)
    node = t.root[t.feature[t.root] >= 0]
    while node.size:
        cover = t.cover[node]
        fresh = np.broadcast_to([-1.0, -math.inf, math.inf, 1.0], (n, 1, 4))
        path = np.concatenate([path, fresh], axis=1)
        f, thr, above, rows = t.feature[node], t.threshold[node], path[node], np.arange(len(node))
        seen = above[:, :, 0] == f[:, None]
        slot = np.where(seen.any(axis=1), seen.argmax(axis=1), length[node])
        above[rows, slot, 0] = f
        for child, bound, clip in ((t.left[node], 2, np.minimum), (t.right[node], 1, np.maximum)):
            merged = above.copy()
            merged[rows, slot, bound] = clip(above[rows, slot, bound], thr)
            with np.errstate(over="ignore", invalid="ignore"):  # rejected below, by name
                merged[rows, slot, 3] *= t.cover[child] / cover
            path[child], length[child] = merged, length[node] + ~seen.any(axis=1)
        node = np.concatenate([t.left[node], t.right[node]])
        node = node[t.feature[node] >= 0]

    leaf = np.flatnonzero(t.feature < 0)  # in pre-order, tree after tree
    tree_of = np.searchsorted(t.root, leaf, side="right") - 1
    # child over parent covers can overflow even when every cover is finite
    overflow = ~np.isfinite(path[leaf, :, 3]).all(axis=1)
    if overflow.any():
        raise ModelInputError(f"model tree {int(tree_of[np.argmax(overflow)])} has a path whose "
                              "zero fraction, a product of child over parent covers, is not finite")
    cls = t.class_index[tree_of]
    base = model.base_score.astype(float).copy()
    groups = []
    for size in np.unique(length[leaf]):
        member = length[leaf] == size
        feature, lo, hi, zero = (np.ascontiguousarray(path[leaf[member], :size, j])
                                 for j in range(4))
        group = _PathGroup(feature=feature.astype(np.intp), lo=lo, hi=hi, zero=zero,
                           value=model.config.learning_rate * t.weight[leaf[member]],
                           class_index=cls[member])
        base += np.bincount(group.class_index, group.value * group.zero.prod(axis=1),
                            minlength=model.num_class)
        if size:
            groups.append(group)
    return _PathSet(groups=tuple(groups), base_value=base)


def _paths(model: Ensemble) -> _PathSet:
    """The model's path set, built on first use and kept on the model."""
    if model._shap_paths is None:
        model._shap_paths = _build_paths(model)
    return model._shap_paths


def _weights(m: int) -> np.ndarray:
    """Shapley permutation weights k!(m-1-k)!/m! for coalition sizes k < m."""
    return np.array([math.factorial(k) * math.factorial(m - 1 - k) / math.factorial(m)
                     for k in range(m)])


def _kept(length: int, *dropped: np.ndarray) -> np.ndarray:
    """The path positions each exclusion keeps, shape (M, length - r).

    Row m lists 0 .. length - 1 in ascending order, less the r positions
    dropped[0][m] < dropped[1][m] < ...
    """
    kept = np.arange(length - len(dropped))
    for position in dropped:
        kept = kept + (kept >= position[:, None])
    return kept


def _weighted_products(zero, one, kept, weights) -> np.ndarray:
    """sum_k weights[k] e_k, e_k the t^k coefficients of prod (zero_j + one_j t).

    Exclusion m's product runs over the path positions j in row m of
    ``kept`` (M, L - r), in that order. zero (P, L), one (n, P, L) bool;
    returns (n, P, M). No product has more than len(weights) - 1 factors.
    Running an excluded position too, as a factor 1.0 and a carried +0.0,
    would give the same bits: both leave a coefficient >= +0 unchanged, and
    no coefficient is below +0, as _build_paths admits no zero fraction
    below +0.
    """
    zero, one = zero[:, kept], one[:, :, kept]
    coef = np.zeros(one.shape[:3] + (len(weights),))
    coef[..., 0] = 1.0
    for j in range(kept.shape[1]):
        carried = coef[..., :-1] * one[..., j, None]
        coef *= zero[..., j, None]
        coef[..., 1:] += carried
    return (coef * weights).sum(axis=-1)


# Elements of one block's coefficient tensor; bounds per-call temporaries.
_BLOCK = 1 << 14


def _bits(group: _PathGroup, x: np.ndarray, cols: slice, per_row: int):
    """Row offset and in-interval bits (rows, paths, L) per block of rows.

    Blocks hold about _BLOCK // (paths x per_row) rows, a row's elements per
    path being per_row.
    """
    height = max(1, _BLOCK // ((cols.stop - cols.start) * per_row))
    for r0 in range(0, x.shape[0], height):
        xv = x[r0:r0 + height][:, group.feature[cols]]
        yield r0, (group.lo[cols] <= xv) & (xv < group.hi[cols])


def _scatter(out: np.ndarray, r0: int, index: np.ndarray, values: np.ndarray) -> None:
    """Add values into out[r0 + row].flat[index], where index is per row."""
    rows = values.shape[0]
    size = out[0].size
    flat = (np.arange(rows).reshape((rows,) + (1,) * index.ndim) * size + index).ravel()
    out[r0:r0 + rows] += np.bincount(flat, values.ravel(), minlength=rows * size).reshape(
        (rows,) + out.shape[1:]
    )


def _pattern_products(zero, kept, weights) -> np.ndarray:
    """_weighted_products on all 2^(L-r) patterns of the kept bits, shape (2^(L-r), P, M).

    Pattern c sets the bit at position kept[m, j] to bit j of c. Patterns
    that agree on bits below j share their coefficients until step j, so
    step j scales the 2^j states in place and writes the half with bit j set
    as those states plus the carried term: 2^(L-r+1) state updates where
    _weighted_products makes (L - r) 2^(L-r). Each pattern goes through
    _weighted_products' float operations in the same order, less the
    bit-clear half's additions of a carried +0.0, which leave its
    coefficients unchanged.
    """
    zero = zero[:, kept]
    n_kept = kept.shape[1]
    coef = np.empty((1 << n_kept,) + zero.shape[:2] + (len(weights),))
    coef[0] = 0.0
    coef[0, ..., 0] = 1.0
    for j in range(n_kept):
        state, half = coef[:1 << j], coef[1 << j:2 << j]
        carried = state[..., :-1].copy()
        state *= zero[..., j, None]
        half[...] = state
        half[..., 1:] += carried
    return (coef * weights).sum(axis=-1)


def _table(zero, cols: slice, kept, weights, values) -> np.ndarray:
    """values(cols, one, s) on all 2^L bit patterns, shape (2^L, paths, ...).

    s gathers each pattern's entry of _pattern_products by the code of its
    kept bits. It is evaluated in path slices small enough that no
    coefficient tensor exceeds _BLOCK elements (but for one path at least).
    """
    length, n_kept = zero.shape[1], kept.shape[1]
    n = 1 << length
    codes = np.arange(n)
    patterns = (codes[:, None] >> np.arange(length) & 1).astype(bool)
    # packed[c, m]: the code of full code c's kept bits for exclusion m
    packed = ((codes[:, None, None] >> kept & 1) << np.arange(n_kept)).sum(axis=-1)
    m = len(kept)
    step = max(1, _BLOCK // ((1 << n_kept) * m * len(weights)))
    parts = []
    for p0 in range(cols.start, cols.stop, step):
        sub = slice(p0, min(p0 + step, cols.stop))
        n_sub = sub.stop - p0
        one = np.broadcast_to(patterns[:, None], (n, n_sub, length))
        # flat[c, p, m]: the offset of entry (packed[c, m], p, m) of the products
        flat = (packed * n_sub * m + np.arange(m))[:, None] + np.arange(n_sub)[:, None] * m
        parts.append(values(sub, one, np.take(_pattern_products(zero[sub], kept, weights), flat)))
    return np.concatenate(parts, axis=1)


def _accumulate(out, group: _PathGroup, x: np.ndarray, kept, weights, index, values) -> None:
    """Add every path's contributions for the rows of x into out.

    values(cols, one, s) gives the contributions of the paths in cols, from
    their in-interval bits one and s = _weighted_products(zero, one, kept,
    weights); index (P, M) holds their flat positions in a row of out. A
    batch of at least 2^L rows evaluates them once per bit pattern
    (``_table``) and gathers each row's entry by its code sum_j o_j 2^j; a
    smaller one evaluates them per row.
    """
    length, n_paths = group.feature.shape[1], len(group.value)
    per_pair = len(kept) * len(weights)
    # path slices depend only on the group, so every row sums its paths in the
    # same order whatever the batch and branch, and one-row calls repeat batch
    # rows exactly
    width = max(1, _BLOCK // per_pair)
    for cols in (slice(p0, min(p0 + width, n_paths)) for p0 in range(0, n_paths, width)):
        if x.shape[0] < 1 << length:
            for r0, one in _bits(group, x, cols, per_pair):
                s = _weighted_products(group.zero[cols], one, kept, weights)
                _scatter(out, r0, index[cols], values(cols, one, s))
            continue
        table = _table(group.zero, cols, kept, weights, values)
        n_cols, m = table.shape[1:]
        # row c * n_cols + p of the flat table is path p's entry for code c
        table = table.reshape(-1, m)
        paths, stride = np.arange(n_cols), n_cols << np.arange(length)
        for r0, one in _bits(group, x, cols, 1):
            _scatter(out, r0, index[cols], np.take(table, one @ stride + paths, axis=0))


def _phi(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Attributions for the rows of x, shape (n, n_features, num_class)."""
    d, k = len(model.feature_names), model.num_class
    out = np.zeros((x.shape[0], d, k))
    for g in _paths(model).groups:
        length = g.feature.shape[1]
        _accumulate(out, g, x, _kept(length, np.arange(length)), _weights(length),
                    g.feature * k + g.class_index[:, None],
                    lambda cols, one, s: g.value[cols, None] * (one - g.zero[cols]) * s)
    return out


def shap_values(model: Ensemble, x: np.ndarray) -> Explanation:
    """Exact per-feature, per-class attributions for one sample.

    A one-row explain_matrix; the result satisfies
    base_value + phi[0].sum(axis=0) == predict_margin(model, x).
    """
    return explain_matrix(model, check_features(model, x, 1)[None])


def explain_matrix(
    model: Ensemble, features: np.ndarray, raw_features: np.ndarray | None = None
) -> Explanation:
    """The Explanation of every row of a feature matrix.

    Its values are raw_features, by default the features unscaled when the
    model carries a scaler. For a path with L unique features
    (L <= max_depth), a batch of at least 2^L rows costs O(2^(L-1) L^2) per
    path once, for a table over its bit patterns, plus a gather of L values
    per row and path; a smaller batch costs O(L^3) per row and path. Either way
    the work is done in blocks of rows and paths whose temporaries stay
    bounded, and the path set is built once per model.
    """
    features = check_features(model, features, 2)
    if raw_features is None and model.scaler is not None:
        raw_features = features * model.scaler.std + model.scaler.mean
    return Explanation(
        base_value=_paths(model).base_value.copy(),
        phi=_phi(model, features),
        values=features if raw_features is None else np.asarray(raw_features, dtype=float),
        feature_names=model.feature_names,
    )


def interaction_values(model: Ensemble, x: np.ndarray, phi: np.ndarray | None = None) -> np.ndarray:
    """Pairwise Shapley interaction values for the rows of x, shape (n, d, d, num_class).

    Off-diagonal entries are the Shapley interaction index split evenly
    between (i, j) and (j, i), so each row's tensor is exactly symmetric.
    Diagonals absorb the remainder, making every row sum equal the rows'
    attributions ``phi`` (n, d, num_class), which are computed when not
    given; the base value is explain_matrix's. For a path with L
    unique features, a batch of at least 2^L rows costs O(2^(L-2) L^3) per
    path once, for a table over the bit patterns, plus a gather per row; a
    smaller batch costs O(L^4) per row and path. One sample is a one-row
    batch: ``interaction_values(model, x[None])[0]``.
    """
    x = check_features(model, x, 2)
    d, k = len(model.feature_names), model.num_class
    if phi is None:
        phi = _phi(model, x)
    elif np.shape(phi) != (x.shape[0], d, k):
        raise ValueError(f"phi has shape {np.shape(phi)}, expected {(x.shape[0], d, k)}")
    upper = np.zeros((x.shape[0], d, d, k))
    for g in _paths(model).groups:
        length = g.feature.shape[1]
        if length < 2:
            continue
        first, second = np.triu_indices(length, 1)

        def values(cols, one, s):
            delta = one - g.zero[cols]
            return 0.5 * g.value[cols, None] * delta[..., first] * delta[..., second] * s

        _accumulate(upper, g, x, _kept(length, first, second), _weights(length - 1),
                    (g.feature[:, first] * d + g.feature[:, second]) * k + g.class_index[:, None],
                    values)
    # paths list their features in any order, so each pair may land on either
    # side; adding the transpose makes the tensor exactly symmetric
    phi_ij = upper + upper.transpose(0, 2, 1, 3)
    diag = np.arange(d)
    phi_ij[:, diag, diag] = phi - phi_ij.sum(axis=2)
    return phi_ij


@dataclass(frozen=True)
class FeatureImportance:
    index: int
    name: str
    overall: float
    per_class: np.ndarray


def global_importance(explained: Explanation) -> list[FeatureImportance]:
    """Features ranked by mean absolute attribution.

    The overall score averages |phi| over samples and classes; ties keep
    feature-index order.
    """
    if not len(explained):
        raise ValueError("global_importance needs at least one explained row")
    names = explained.feature_names
    per_class = np.abs(explained.phi).mean(axis=0)  # (d, K)
    overall = per_class.mean(axis=1)                # (d,)
    order = sorted(range(len(names)), key=lambda i: (-overall[i], i))
    return [
        FeatureImportance(index=i, name=names[i], overall=float(overall[i]), per_class=per_class[i])
        for i in order
    ]


def dependence_data(
    explained: Explanation, feature_index: int, class_index: int
) -> list[tuple[float, float]]:
    """(feature value, attribution) pairs, one per explained row."""
    if not len(explained):
        raise ValueError("dependence_data needs at least one explained row")
    _, d, k = explained.phi.shape
    if not 0 <= feature_index < d:
        raise IndexError(f"feature index {feature_index} out of range for {d} features")
    if not 0 <= class_index < k:
        raise IndexError(f"class index {class_index} out of range for {k} classes")
    return list(zip(explained.values[:, feature_index].tolist(),
                    explained.phi[:, feature_index, class_index].tolist()))


def _least_squares_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float((xc * y).sum() / (xc * xc).sum())


def dependence_slopes(
    explained: Explanation, feature_index: int, class_index: int
) -> tuple[float, float]:
    """Slopes of the binned dependence curve at its bottom and its top.

    The rows are split at the deciles of the feature's value into ten bins,
    each closed below and open above except the last, which is closed. Each
    bin's mean value and mean attribution make one point, and the
    least-squares slopes over the first three points and over the last three
    are returned as (bottom, top). A top slope below the bottom one says
    each unit of the feature buys less attribution at high values: the
    diminishing returns the source paper reports for cell count. Raises
    ValueError if a bin is empty, which ties at a decile can cause.
    """
    points = np.array(dependence_data(explained, feature_index, class_index))
    values, phis = points[:, 0], points[:, 1]
    edges = np.percentile(values, np.arange(0, 101, 10))
    mean_x, mean_phi = np.empty(10), np.empty(10)
    for i in range(10):
        upper = values <= edges[i + 1] if i == 9 else values < edges[i + 1]
        in_bin = (values >= edges[i]) & upper
        if not in_bin.any():
            raise ValueError(f"dependence bin {i} of 10 is empty: too few distinct values")
        mean_x[i] = values[in_bin].mean()
        mean_phi[i] = phis[in_bin].mean()
    return (_least_squares_slope(mean_x[:3], mean_phi[:3]),
            _least_squares_slope(mean_x[-3:], mean_phi[-3:]))


@dataclass(frozen=True)
class ForceEntry:
    name: str
    value: float
    phi: float
    sign: int


@dataclass(frozen=True)
class ForcePlot:
    base_value: float
    margin: float
    entries: tuple[ForceEntry, ...]


def force_plot_data(explained: Explanation, row: int, class_index: int) -> ForcePlot:
    """Ordered push/pull decomposition of one row's prediction for one class.

    Features with exactly zero attribution are omitted; the rest are sorted
    by |phi| descending. base_value plus the entry sum reproduces the margin.
    """
    k = explained.phi.shape[2]
    if not 0 <= class_index < k:
        raise IndexError(f"class index {class_index} out of range for {k} classes")
    phi, values = explained.phi[row, :, class_index], explained.values[row]
    order = sorted(
        (i for i in range(len(phi)) if phi[i] != 0.0),
        key=lambda i: (-abs(phi[i]), i),
    )
    entries = tuple(
        ForceEntry(
            name=explained.feature_names[i],
            value=float(values[i]),
            phi=float(phi[i]),
            sign=1 if phi[i] > 0 else -1,
        )
        for i in order
    )
    base = float(explained.base_value[class_index])
    return ForcePlot(base_value=base, margin=base + float(phi.sum()), entries=entries)


def explanations_to_csv(
    explained: Explanation,
    out: IO[str],
    class_names: Sequence[str],
) -> None:
    """Write one row per sample x feature x class: row index, feature, class name, value, phi."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["sample_id", "feature", "class", "value", "phi"])
    labels = [class_names[k] for k in range(explained.phi.shape[2])]
    for sid, (values, phi) in enumerate(zip(explained.values.tolist(), explained.phi.tolist())):
        for name, value, per_class in zip(explained.feature_names, values, phi):
            for label, p in zip(labels, per_class):
                writer.writerow([sid, name, label, repr(value), repr(p)])
