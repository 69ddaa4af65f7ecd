"""Exact top-k selection under the strict (distance, index) order.

Distances must be non-negative and hold no NaN; -0.0 counts as 0.0 and
+inf is allowed.  ``InstanceIndex.query``, the one caller, clamps its
distances at 0.

All rows of a tile are selected at once on packed int64 keys.  The bits
of a non-negative double order like its value, so a key is the distance's
bits with the sign cleared and the low ``b = (n - 1).bit_length()`` bits
replaced by the column: keys order by (truncated value, column), and no
two keys of a row are equal.  One in-place partition at k and a sort of
each row's first k + 1 keys give its k smallest keys in order; the
columns are read from their low bits and the values gathered from the
untouched tile.  Truncation keeps order between values whose truncated
parts differ, so the result is the strict order unless two adjacent keys
among the first k + 1 share their truncated part (an exact tie, or values
within 2**b ulps).  Only such rows are selected again, with a stable sort
of the whole row.
"""

import numpy as np

BACKEND = "numpy"  # the one selection path; perfbench records it


def topk_select(dists: np.ndarray, k: int):
    """Return (indices, values) of the ``k`` smallest entries of each row.

    Rows are sorted ascending by (value, column index).  ``dists`` must
    be non-negative and hold no NaN (-0.0 counts as 0.0); it is left
    unmodified and both outputs are freshly allocated.
    """
    dists = np.ascontiguousarray(dists, dtype=np.float64)
    m, n = dists.shape
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    keys = dists.view(np.int64) & np.int64((1 << 63) - 1 - low)
    keys |= np.arange(n, dtype=np.int64)
    if k + 1 < n:
        keys.partition(k, axis=1)
    keys = np.sort(keys[:, : k + 1], axis=1)
    # Two sorted keys share their truncated part iff they differ only in
    # the column bits.
    redo = ((keys[:, 1:] ^ keys[:, :-1]) <= low).any(axis=1)
    sel = keys[:, :k] & low
    vals = dists.ravel()[sel + np.arange(0, m * n, n)[:, None]]
    rows = np.flatnonzero(redo)
    if rows.size:
        sub = dists[rows]
        sel[rows] = np.argsort(sub, axis=1, kind="stable")[:, :k]
        vals[rows] = np.take_along_axis(sub, sel[rows], axis=1)
    return sel, vals
