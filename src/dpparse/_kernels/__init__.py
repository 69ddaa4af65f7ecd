"""Exact top-k selection under the strict (distance, index) order.

All rows are selected at once: ``argpartition`` picks k smallest entries
per row and they are sorted by distance.  That is already the strict
order unless a row has two equal distances among its selected entries
(their index order is then arbitrary) or more than k entries at or below
its k-th distance (``argpartition`` then keeps an arbitrary subset of the
ties at the cut).  Only such rows are selected again, with a stable sort.
"""

import numpy as np

BACKEND = "numpy"  # the one selection path; perfbench records it


def topk_select(dists: np.ndarray, k: int):
    """Return (indices, values) of the ``k`` smallest entries of each row.

    Rows are sorted ascending by (value, column index).  ``dists`` is left
    unmodified; both outputs are freshly allocated.
    """
    dists = np.ascontiguousarray(dists, dtype=np.float64)
    if not 1 <= k <= dists.shape[1]:
        raise ValueError(f"k={k} outside [1, {dists.shape[1]}]")
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
    return sel, vals
