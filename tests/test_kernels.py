import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpparse._kernels import topk_select

from oracles import linear_scan_knn


def test_backends_match_lexsort():
    rng = np.random.default_rng(7)
    d = rng.random((40, 300))
    idx, dist = topk_select(d, 12)
    for r in range(40):
        order = np.lexsort((np.arange(300), d[r]))[:12]
        assert np.array_equal(idx[r], order)
        assert np.array_equal(dist[r], d[r][order])


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
