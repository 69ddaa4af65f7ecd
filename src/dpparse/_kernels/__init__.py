"""Exact top-k selection under the strict (distance, index) order.

All rows of a tile are selected at once.  A partition of a copy finds
each row's k-th smallest value; one mask ``dists <= kth`` then marks, in
index order, every entry at or below it.  A row holds at least k such
entries, so when the tile holds exactly ``m * k`` of them every row holds
exactly k and no row has a tie at its cut.  The selected values are
sorted per row.  That is already the strict order unless a row has two
equal values inside its selection (their index order is then arbitrary)
or more than k entries at its cut (some must be left out by index).
Only such rows are selected again, with a stable sort of the whole row.
"""

import numpy as np

BACKEND = "numpy"  # the one selection path; perfbench records it


def topk_select(dists: np.ndarray, k: int):
    """Return (indices, values) of the ``k`` smallest entries of each row.

    Rows are sorted ascending by (value, column index).  ``dists`` must
    hold no NaN; it is left unmodified and both outputs are freshly
    allocated.
    """
    dists = np.ascontiguousarray(dists, dtype=np.float64)
    m, n = dists.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    part = np.partition(dists, k - 1, axis=1)
    kth = part[:, k - 1 : k].copy()
    del part
    keep = dists <= kth
    flat = np.flatnonzero(keep)
    redo = np.zeros(m, dtype=bool)
    if flat.size != m * k:
        # Rows with ties at the cut are redone below; until then they
        # hold their first k columns.
        redo = np.count_nonzero(keep, axis=1) > k
        keep[redo] = False
        keep[redo, :k] = True
        flat = np.flatnonzero(keep)
    del keep
    vals = dists.ravel()[flat].reshape(m, k)
    order = np.argsort(vals, axis=1)
    order += np.arange(0, m * k, k)[:, None]
    order = order.ravel()
    vals = vals.ravel()[order].reshape(m, k)
    sel = flat[order].reshape(m, k)
    sel -= np.arange(0, m * n, n)[:, None]
    redo |= (vals[:, 1:] == vals[:, :-1]).any(axis=1)
    rows = np.flatnonzero(redo)
    if rows.size:
        sub = dists[rows]
        sel[rows] = np.argsort(sub, axis=1, kind="stable")[:, :k]
        vals[rows] = np.take_along_axis(sub, sel[rows], axis=1)
    return sel, vals
