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
parts differ, so keys that share one (an exact tie, or values within
2**b ulps) form runs, and only two cases need more than the key sort.  A
run that crosses the cut (positions k - 1 and k) may hold the wrong
members: the row's keys with the cut's truncated part are gathered by one
compare over the row, and only those are sorted by (value, column) to
fill the selection from the run's first position.  A row whose
selection holds a run with falling values has its k entries resorted by
(value, column), which moves entries only within their runs.  Exact ties
need neither: within a run they are already in column order.
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
    head = np.sort(keys[:, : k + 1], axis=1)
    # Two sorted keys share their truncated part iff they differ only in
    # the column bits.
    same = (head[:, 1:] ^ head[:, :-1]) <= low
    sel = head[:, :k] & low
    vals = dists.ravel()[sel + np.arange(0, m * n, n)[:, None]]
    if k < n:
        cut = np.flatnonzero(same[:, k - 1])
        if cut.size:
            _refill_cut_runs(dists, keys[cut], head[cut, :k], cut, low, sel, vals)
    inner = np.flatnonzero(same[:, : k - 1].any(axis=1))
    if inner.size:
        falls = same[inner, : k - 1] & (vals[inner, 1:] < vals[inner, :-1])
        rows = inner[falls.any(axis=1)]
        order = np.lexsort((sel[rows], vals[rows]))
        sel[rows] = np.take_along_axis(sel[rows], order, axis=1)
        vals[rows] = np.take_along_axis(vals[rows], order, axis=1)
    return sel, vals


def _refill_cut_runs(dists, keys, head, rows, low, sel, vals):
    """Refill ``sel`` and ``vals`` of ``rows`` from their run at the cut.

    ``keys`` are the rows' partitioned keys and ``head`` their k smallest
    keys in order.  A run's keys, wherever the partition left them, are
    the row's keys that share the truncated part of the key at k - 1;
    those before it stay, and the run's best by (value, column) follow
    them, in order, up to k.
    """
    k = head.shape[1]
    trunc = head[:, k - 1] & ~np.int64(low)
    first = np.count_nonzero(head < trunc[:, None], axis=1)
    need = k - first
    # np.nonzero scans row by row, so ``r`` is sorted.
    r, pos = np.nonzero((keys ^ trunc[:, None]) <= low)
    cols = keys[r, pos] & low
    values = dists[rows[r], cols]
    order = np.lexsort((cols, values, r))
    starts = np.searchsorted(r, np.arange(len(rows)))
    offsets = np.arange(need.sum()) - np.repeat(np.cumsum(need) - need, need)
    pick = order[np.repeat(starts, need) + offsets]
    at = (np.repeat(rows, need), np.repeat(first, need) + offsets)
    sel[at] = cols[pick]
    vals[at] = values[pick]
