"""Brute-force Shapley oracles for the TreeSHAP tests.

Direct exponential-time evaluations of the Shapley value and Shapley
interaction definitions, by recursion over an ensemble's node table. They
share no code with evperf.treeshap's path set, so agreement with them checks
that code independently. ``masked_weighted_products`` is the reference for
the path-polynomial helpers: it runs every path position and masks the
excluded ones.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from evperf.gbdt import Ensemble, check_features


def _coalition_expectation(nodes: tuple[list, ...], i: int, x: Sequence[float],
                           in_coalition: Sequence[bool]) -> float:
    """Expectation of the subtree at node i with coalition features fixed to x.

    ``nodes`` holds the node table's feature, threshold, left, right, weight
    and cover columns as lists; other features are marginalized by cover.
    """
    feature, threshold, left, right, weight, cover = nodes
    f = feature[i]
    if f < 0:
        return weight[i]
    if in_coalition[f]:
        return _coalition_expectation(
            nodes, left[i] if x[f] < threshold[i] else right[i], x, in_coalition
        )
    return (
        cover[left[i]] * _coalition_expectation(nodes, left[i], x, in_coalition)
        + cover[right[i]] * _coalition_expectation(nodes, right[i], x, in_coalition)
    ) / cover[i]


MAX_BRUTE_FORCE_FEATURES = 12


def _coalition_values(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Margin contribution of the trees for every coalition, shape (2^d, num_class).

    Row ``mask`` fixes the features whose bits are set in ``mask`` to x.
    """
    d = len(model.feature_names)
    if d > MAX_BRUTE_FORCE_FEATURES:
        raise ValueError(f"brute force is limited to {MAX_BRUTE_FORCE_FEATURES} features, got {d}")
    eta = model.config.learning_rate
    t = model.trees
    nodes = tuple(a.tolist() for a in (t.feature, t.threshold, t.left, t.right, t.weight, t.cover))
    xs = x.tolist()
    v = np.zeros((1 << d, model.num_class))
    for mask in range(1 << d):
        members = [bool(mask >> j & 1) for j in range(d)]
        for root, k in zip(t.root.tolist(), t.class_index.tolist()):
            v[mask, k] += eta * _coalition_expectation(nodes, root, xs, members)
    return v


def brute_force_shapley(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Shapley values straight from the definition; exponential, test-only.

    Enumerates every coalition, evaluates the cover-weighted conditional
    expectation, and combines marginal contributions with the factorial
    permutation weights. Shape (n_features, num_class).
    """
    x = check_features(model, x, 1)
    v = _coalition_values(model, x)
    d = len(model.feature_names)
    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros((d, model.num_class))
    for i in range(d):
        bit = 1 << i
        for mask in range(1 << d):
            if mask & bit:
                continue
            size = bin(mask).count("1")
            phi[i] += fact[size] * fact[d - size - 1] / fact[d] * (v[mask | bit] - v[mask])
    return phi


def brute_force_interactions(model: Ensemble, x: np.ndarray) -> np.ndarray:
    """Shapley interaction values straight from the definition; test-only.

    Off-diagonal (i, j) sums, over every coalition S without i and j, the
    weight |S|!(d-|S|-2)!/(2(d-1)!) times v(S+i+j) - v(S+i) - v(S+j) + v(S);
    the diagonal is the brute-force phi_i minus the off-diagonal row sum.
    Shape (n_features, n_features, num_class).
    """
    x = check_features(model, x, 1)
    v = _coalition_values(model, x)
    d = len(model.feature_names)
    fact = [math.factorial(i) for i in range(d + 1)]
    phi_ij = np.zeros((d, d, model.num_class))
    for i in range(d):
        for j in range(i + 1, d):
            bi, bj = 1 << i, 1 << j
            for mask in range(1 << d):
                if mask & (bi | bj):
                    continue
                size = bin(mask).count("1")
                weight = fact[size] * fact[d - size - 2] / (2 * fact[d - 1])
                phi_ij[i, j] += weight * (v[mask | bi | bj] - v[mask | bi] - v[mask | bj] + v[mask])
            phi_ij[j, i] = phi_ij[i, j]
    phi = brute_force_shapley(model, x)
    for i in range(d):
        phi_ij[i, i] = phi[i] - phi_ij[i].sum(axis=0)
    return phi_ij


def masked_weighted_products(zero, one, excluded, weights) -> np.ndarray:
    """sum_k weights[k] e_k, e_k the t^k coefficients of prod (zero_j + one_j t).

    The product runs over the features j of each path not marked in a row of
    ``excluded``: an excluded step multiplies by 1.0 and carries +0.0.
    zero (P, L), one (n, P, L) bool, excluded (M, L) bool; returns (n, P, M).
    """
    coef = np.zeros(one.shape[:2] + (len(excluded), len(weights)))
    coef[..., 0] = 1.0
    for j in range(zero.shape[1]):
        keep = ~excluded[:, j]
        carried = coef[..., :-1] * (one[:, :, j, None] & keep)[..., None]
        coef *= np.where(keep, zero[:, j, None], 1.0)[..., None]
        coef[..., 1:] += carried
    return (coef * weights).sum(axis=-1)
