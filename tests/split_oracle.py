"""Reference split search for ``evperf.gbdt._find_best_split``: one array per statistic.

``reference_find_best_split`` is the search ``_find_best_split`` once was,
kept as an independent oracle: it gathers the gradients and the Hessians of
each tile separately and runs one cumulative sum on each, where the library
gathers and sums both as one complex array. The leaf score S(G)^2/(H+lambda)
is the library's, so the oracle pins how the statistics are gathered, summed,
tiled and ranked, not the formula.
"""

from __future__ import annotations

import numpy as np

from evperf import gbdt
from evperf.gbdt import _TILE, _score


def reference_find_best_split(xs, order, g, h, g_sum, h_sum, cfg):
    """Best (gain, feature, threshold, G_L, H_L) of a node over all exact candidates, or None.

    ``xs`` is the node's (d, m) value block: row j holds the node's values of
    feature j in ascending order, and ``order`` row j the rows they belong
    to, whose gradients and Hessians are gathered from the full ``g``/``h``.
    Candidates are midpoints between consecutive distinct values whose
    children's Hessians both reach ``gbdt.MIN_CHILD_HESSIAN``, read at each
    call, so that a test may patch it. They are ranked by their children's
    scores, from one cumulative sum per statistic, ``_TILE // m`` feature
    rows (at least one) at a time; the winner's gain takes off the parent's
    score from ``g_sum``/``h_sum``. Ties resolve to the lowest feature, then
    the lowest threshold: argmax scans a tile's scores row by row and returns
    the first maximum, and a later tile wins only with a strictly greater
    score.
    """
    d, m = xs.shape
    if d == 0 or m < 2:
        return None
    least = gbdt.MIN_CHILD_HESSIAN
    step = max(1, _TILE // m)
    best = None  # (score, feature, position, G_L, H_L)
    for lo in range(0, d, step):
        rows = order[lo:lo + step]
        x = xs[lo:lo + step]
        cg = np.add.accumulate(g[rows], axis=1)[:, :-1]
        ch = np.add.accumulate(h[rows], axis=1)[:, :-1]
        h_r = h_sum - ch
        valid = (x[:, :-1] < x[:, 1:]) & (ch >= least) & (h_r >= least)
        scores = np.where(valid, _score(cg, ch, cfg) + _score(g_sum - cg, h_r, cfg), -np.inf)
        j, k = divmod(int(scores.argmax()), m - 1)
        if best is None or scores[j, k] > best[0]:
            best = (scores[j, k], lo + j, k, cg[j, k], ch[j, k])
    score, j, k, g_left, h_left = best
    gain = 0.5 * (score - _score(g_sum, h_sum, cfg)) - cfg.gamma
    if gain <= 0:
        return None
    below, above = float(xs[j, k]), float(xs[j, k + 1])
    threshold = 0.5 * (below + above)
    if not below < threshold <= above:  # rounded onto the lower value, or overflowed
        threshold = above
    return float(gain), j, threshold, float(g_left), float(h_left)
