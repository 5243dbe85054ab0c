"""Reference split search for ``evperf.gbdt._find_best_split``: one array per statistic.

``reference_find_best_split`` is the search ``_find_best_split`` once was,
kept as an independent oracle: it gathers the gradients and the Hessians of
each tile separately and runs one cumulative sum on each, where the library
gathers and sums both as one complex array. The gain formula is the
library's, so the oracle pins how the statistics are gathered, summed and
tiled, not the formula.
"""

from __future__ import annotations

import numpy as np

from evperf.gbdt import _TILE, _gain_formula


def reference_find_best_split(xs, order, g, h, g_sum, h_sum, cfg):
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
        cg = np.add.accumulate(g[rows], axis=1)[:, :-1]
        ch = np.add.accumulate(h[rows], axis=1)[:, :-1]
        h_r = h_sum - ch
        valid = (x[:, :-1] < x[:, 1:]) & (ch >= cfg.min_child_hessian) & (h_r >= cfg.min_child_hessian)
        gains = np.where(valid, _gain_formula(cg, ch, g_sum - cg, h_r, cfg), -np.inf)
        j, k = divmod(int(gains.argmax()), m - 1)
        if best is None or gains[j, k] > best[0]:
            best = (gains[j, k], lo + j, k)
    gain, j, k = best
    if gain <= 0:
        return None
    return float(gain), j, float(0.5 * (xs[j, k] + xs[j, k + 1]))
