from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpparse import _kernels
from dpparse._kernels import BACKEND, topk_select
from dpparse._kernels.topk_fallback import select_topk as fallback_select

from oracles import linear_scan_knn


def _native_select():
    if BACKEND != "native":
        pytest.skip("compiled kernel not available")
    from dpparse._kernels._topk import select_topk

    return select_topk


def _run(select, dists, k, threads=2):
    m = dists.shape[0]
    out_idx = np.empty((m, k), dtype=np.int64)
    out_dist = np.empty((m, k), dtype=np.float64)
    select(np.ascontiguousarray(dists, dtype=np.float64), out_idx, out_dist, k, threads)
    return out_idx, out_dist


@pytest.mark.parametrize("select_name", ["native", "fallback"])
def test_backends_match_lexsort(select_name):
    select = _native_select() if select_name == "native" else fallback_select
    rng = np.random.default_rng(7)
    d = rng.random((40, 300))
    idx, dist = _run(select, d, 12)
    for r in range(40):
        order = np.lexsort((np.arange(300), d[r]))[:12]
        assert np.array_equal(idx[r], order)
        assert np.array_equal(dist[r], d[r][order])


@pytest.mark.parametrize("select_name", ["native", "fallback"])
def test_duplicate_distances_tie_break_on_index(select_name):
    select = _native_select() if select_name == "native" else fallback_select
    d = np.array([[1.0, 0.5, 0.5, 0.5, 2.0, 0.5]])
    idx, dist = _run(select, d, 3)
    assert list(idx[0]) == [1, 2, 3]
    assert list(dist[0]) == [0.5, 0.5, 0.5]


@pytest.mark.parametrize("select_name", ["native", "fallback"])
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 30)),
        elements=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
)
@settings(max_examples=100, deadline=None)
def test_ties_at_every_k_match_lexsort(select_name, d):
    # Few distinct values make ties at the cut and inside the selection common.
    select = _native_select() if select_name == "native" else fallback_select
    n = d.shape[1]
    oracle = [np.lexsort((np.arange(n), row)) for row in d]
    with mock.patch.object(_kernels, "_select_topk", select):
        for k in range(1, n + 1):
            idx, dist = topk_select(d, k)
            for r, order in enumerate(oracle):
                assert np.array_equal(idx[r], order[:k])
                assert np.array_equal(dist[r], d[r][order[:k]])


def test_k_equals_n():
    d = np.array([[3.0, 1.0, 2.0]])
    idx, dist = topk_select(d, 3)
    assert list(idx[0]) == [1, 2, 0]


def test_thread_count_invariance():
    select = _native_select()
    rng = np.random.default_rng(11)
    d = rng.random((64, 2048))
    i1, v1 = _run(select, d, 50, threads=1)
    i2, v2 = _run(select, d, 50, threads=2)
    assert np.array_equal(i1, i2)
    assert np.array_equal(v1, v2)


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
