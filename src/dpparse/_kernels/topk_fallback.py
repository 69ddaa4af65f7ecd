"""Pure-numpy top-k selection, exact under the (distance, index) order.

All rows are selected at once: ``argpartition`` picks k smallest
entries per row and they are sorted by distance.  That order is already
the strict (distance, index) order unless a row has two equal distances
among its selected entries (their index order is then arbitrary) or more
than k entries at or below its k-th distance (``argpartition`` then keeps
an arbitrary subset of the ties at the cut).  Only such rows are selected
again, with a stable sort of the whole row.
"""

import numpy as np


def select_topk(dists, out_idx, out_dist, k, num_threads=1):
    if not 1 <= k <= dists.shape[1]:
        raise ValueError("k must be in [1, n_columns]")
    sel = np.argpartition(dists, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(dists, sel, axis=1)
    order = np.argsort(vals, axis=1)
    sel = np.take_along_axis(sel, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    redo = (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    redo |= np.count_nonzero(dists <= vals[:, -1:], axis=1) > k
    rows = np.flatnonzero(redo)
    if rows.size:
        sub = dists[rows]
        sel[rows] = np.argsort(sub, axis=1, kind="stable")[:, :k]
        vals[rows] = np.take_along_axis(sub, sel[rows], axis=1)
    out_idx[...] = sel
    out_dist[...] = vals
