import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpparse._kernels import topk_select

from oracles import linear_scan_knn


def _assert_strict_topk(d, k):
    """topk_select of ``d`` equals a per-row lexsort on (value, column)."""
    idx, dist = topk_select(d, k)
    columns = np.arange(d.shape[1])
    for r, row in enumerate(d):
        order = np.lexsort((columns, row))[:k]
        assert np.array_equal(idx[r], order), f"row {r}"
        assert np.array_equal(dist[r], row[order]), f"row {r}"


def _mixed_tile(rng, m, n, k):
    """Rows of five kinds in turn: distinct values, ties at the k-th value,
    ties inside the selection, all values equal, and four values only."""
    d = rng.random((m, n))
    for r in range(m):
        rank = np.argsort(d[r])
        kind = r % 5
        if kind == 1:
            d[r, rank[k : k + 3]] = d[r, rank[k - 1]]
        elif kind == 2:
            d[r, rank[k // 2]] = d[r, rank[k // 2 - 1]]
        elif kind == 3:
            d[r] = 0.5
        elif kind == 4:
            d[r] = rng.integers(0, 4, size=n) * 0.25
    return d


@pytest.mark.parametrize("m, n", [(131, 2000), (1310, 200)])
def test_workload_shapes_with_tied_rows_match_lexsort(m, n):
    # The tile shapes of a 2,000-entry and a 200-entry index with k = 100;
    # rows that need the stable redo sit between rows that do not.
    _assert_strict_topk(_mixed_tile(np.random.default_rng(m), m, n, 100), 100)


def test_one_row_with_k_plus_one_entries_at_the_cut():
    # Every value distinct except that row 3 holds its k-th value twice:
    # the tile has one entry more than m * k at its cuts.
    rng = np.random.default_rng(21)
    k, n = 100, 200
    d = rng.permutation(np.arange(8 * n, dtype=np.float64)).reshape(8, n)
    rank = np.argsort(d[3])
    d[3, rank[k]] = d[3, rank[k - 1]]
    assert np.count_nonzero(d <= np.sort(d, axis=1)[:, k - 1 : k]) == 8 * k + 1
    _assert_strict_topk(d, k)


@pytest.mark.parametrize("k", [1, 200])
def test_k_of_one_and_of_all_columns(k):
    _assert_strict_topk(_mixed_tile(np.random.default_rng(k), 40, 200, 100), k)


def _near_pair(row, rank, b, kind):
    """Give the entries at sorted ranks ``rank`` and ``rank + 1`` of ``row``
    values a few ulps apart, the larger one in the smaller column, so that
    column order disagrees with value order.

    ``low-bits``: equal in all but their low b bits (2**b - 1 ulps apart);
    ``ulp``: 1 ulp apart, sharing the truncated part when b >= 1;
    ``ulp-across``: 1 ulp apart across a 2**b-ulp boundary, so that the
    truncated parts differ.  The values stay within a few 2**b ulps of the
    one at ``rank``, so no other entry changes rank.
    """
    order = np.argsort(row, kind="stable")
    first, second = sorted(order[rank : rank + 2])
    h = int(row[order[rank]].view(np.int64)) >> b << b
    small, large = {
        "low-bits": (h, h | ((1 << b) - 1)),
        "ulp": (h, h + 1),
        "ulp-across": (h + (1 << b) - 1, h + (1 << b)),
    }[kind]
    row[first] = np.int64(large).view(np.float64)
    row[second] = np.int64(small).view(np.float64)


def _packed_edge_tile(rng, n, k):
    """Rows that stress the packed (truncated distance, column) keys of an
    n-column tile selected at k: near pairs at the cut and inside the
    selection, -0.0 beside 0.0, and +inf entries."""
    b = (n - 1).bit_length()
    rows = [rng.random(n)]
    for kind in ("low-bits", "ulp", "ulp-across"):
        if k < n:  # ranks k - 1 and k straddle the cut
            rows.append(rng.random(n))
            _near_pair(rows[-1], k - 1, b, kind)
        if k >= 2:  # both inside the selection
            rows.append(rng.random(n))
            _near_pair(rows[-1], k // 2 - 1, b, kind)
    zeros = rng.random(n)
    # 0.0 in the smaller column: -0.0 ties it and must come after it.
    cols = np.sort(rng.choice(n, size=min(n, 2), replace=False))
    zeros[cols[0]] = 0.0
    zeros[cols[-1]] = -0.0
    rows.append(zeros)
    with_inf = rng.random(n)
    with_inf[rng.choice(n, size=max(1, n // 3), replace=False)] = np.inf
    rows.append(with_inf)
    rows.append(np.full(n, np.inf))
    return np.array(rows)


@pytest.mark.parametrize("k_of", ["one", "half", "all"])
@pytest.mark.parametrize("n", [1, 2, 128, 129, 2048, 2049])
def test_packed_key_edge_cases_match_lexsort(n, k_of):
    # n = 128 and 2048 fill exactly b column bits, 129 and 2049 one more.
    k = {"one": 1, "half": max(1, n // 2), "all": n}[k_of]
    _assert_strict_topk(_packed_edge_tile(np.random.default_rng(n), n, k), k)


def test_negative_zero_keys_as_zero_and_keeps_its_sign():
    # Values come from the tile, not from the keys.
    idx, dist = topk_select(np.array([[0.5, -0.0, 0.25]]), 2)
    assert list(idx[0]) == [1, 2]
    assert np.signbit(dist[0, 0])


def test_backends_match_lexsort():
    _assert_strict_topk(np.random.default_rng(7).random((40, 300)), 12)


def test_duplicate_distances_tie_break_on_index():
    d = np.array([[1.0, 0.5, 0.5, 0.5, 2.0, 0.5]])
    idx, dist = topk_select(d, 3)
    assert list(idx[0]) == [1, 2, 3]
    assert list(dist[0]) == [0.5, 0.5, 0.5]


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 30)),
        elements=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
)
@settings(max_examples=100, deadline=None)
def test_ties_at_every_k_match_lexsort(d):
    # Few distinct values make ties at the cut and inside the selection common.
    n = d.shape[1]
    oracle = [np.lexsort((np.arange(n), row)) for row in d]
    for k in range(1, n + 1):
        idx, dist = topk_select(d, k)
        for r, order in enumerate(oracle):
            assert np.array_equal(idx[r], order[:k])
            assert np.array_equal(dist[r], d[r][order[:k]])


def test_k_equals_n():
    d = np.array([[3.0, 1.0, 2.0]])
    idx, dist = topk_select(d, 3)
    assert list(idx[0]) == [1, 2, 0]


@pytest.mark.parametrize("k", [0, 4])
def test_k_outside_range_rejected(k):
    with pytest.raises(ValueError, match=f"k={k}"):
        topk_select(np.array([[3.0, 1.0, 2.0]]), k)


def test_float32_fortran_input_matches_float64_and_is_unmodified():
    rng = np.random.default_rng(5)
    d = np.asfortranarray(rng.integers(0, 6, size=(30, 50)).astype(np.float32))
    before = d.copy(order="F")
    idx, dist = topk_select(d, 7)
    idx64, dist64 = topk_select(np.ascontiguousarray(d, dtype=np.float64), 7)
    assert np.array_equal(idx, idx64)
    assert np.array_equal(dist, dist64)
    assert idx.dtype == np.int64 and dist.dtype == np.float64
    assert np.array_equal(d, before) and d.flags.f_contiguous


def test_dispatch_wrapper_matches_oracle():
    rng = np.random.default_rng(13)
    base = rng.normal(size=(500, 8))
    queries = rng.normal(size=(20, 8))
    # distances as produced by the index path (norm trick, clamped)
    d = (
        np.einsum("ij,ij->i", queries, queries)[:, None]
        - 2.0 * (queries @ base.T)
        + np.einsum("ij,ij->i", base, base)[None, :]
    )
    np.maximum(d, 0.0, out=d)
    idx, dist = topk_select(d, 9)
    for r in range(20):
        oracle_idx, _oracle_d = linear_scan_knn(base, queries[r], 9)
        assert np.array_equal(idx[r], oracle_idx)
