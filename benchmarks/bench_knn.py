#!/usr/bin/env python3
"""Benchmark the compiled top-k kernel against the numpy selection.

Builds one exact distance block per case (BLAS GEMM plus the norm finish
``InstanceIndex.query`` applies), then times top-k selection through each
backend over the same row tiles ``InstanceIndex.query`` selects in.  The
selection stage is where the two backends differ.  The first two full
cases are the shapes of the ``cont-lexicon`` perfbench workload: setup
queries against its 2000-entry base pool, and one iteration's queries
against its ~200-token lexicon.

Usage: python benchmarks/bench_knn.py [--quick] [--threads N]
"""

import argparse
import os
import time

import numpy as np

from dpparse._kernels import BACKEND
from dpparse._kernels.topk_fallback import select_topk as numpy_select
from dpparse.density import _TILE_BYTES

try:
    from dpparse._kernels._topk import select_topk as native_select
except ImportError:
    native_select = None


def _distance_block(queries, base):
    d = queries @ base.T
    d *= -2.0
    d += np.einsum("ij,ij->i", base, base)[None, :]
    d += np.einsum("ij,ij->i", queries, queries)[:, None]
    np.maximum(d, 0.0, out=d)
    return d


def _time_select(select, dists, k, threads, repeats=3):
    m, n = dists.shape
    tile = max(1, _TILE_BYTES // (8 * n))
    best = float("inf")
    for _ in range(repeats):
        out_idx = np.empty((m, k), dtype=np.int64)
        out_dist = np.empty((m, k), dtype=np.float64)
        t0 = time.perf_counter()
        for lo in range(0, m, tile):
            rows = slice(lo, lo + tile)
            select(dists[rows], out_idx[rows], out_dist[rows], k, threads)
        best = min(best, time.perf_counter() - t0)
    return best, out_idx


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()
    threads = args.threads or (os.cpu_count() or 1)

    # (n_base, n_query, dim, k)
    if args.quick:
        cases = [(2000, 1760, 16, 100), (200, 1560, 16, 100)]
    else:
        cases = [
            (2000, 17_600, 16, 100),
            (200, 15_600, 16, 100),
            (20_000, 512, 16, 100),
            (100_000, 256, 16, 100),
            (100_000, 256, 64, 100),
        ]

    print(f"active backend: {BACKEND}; selection threads: {threads}")
    print(f"{'n_base':>8} {'n_query':>8} {'dim':>4} {'k':>4} "
          f"{'dist_ms':>9} {'numpy_ms':>9} {'native_ms':>10} {'speedup':>8}")
    rng = np.random.default_rng(0)
    for n, q, dim, k in cases:
        base = rng.normal(size=(n, dim))
        queries = rng.normal(size=(q, dim))
        t0 = time.perf_counter()
        dists = _distance_block(queries, base)
        dist_ms = (time.perf_counter() - t0) * 1e3
        np_s, np_idx = _time_select(numpy_select, dists, k, threads)
        if native_select is not None:
            nat_s, nat_idx = _time_select(native_select, dists, k, threads)
            assert np.array_equal(np_idx, nat_idx), "backends disagree"
            nat_ms, speedup = nat_s * 1e3, np_s / nat_s
            print(f"{n:>8} {q:>8} {dim:>4} {k:>4} {dist_ms:>9.1f} "
                  f"{np_s * 1e3:>9.1f} {nat_ms:>10.1f} {speedup:>7.1f}x")
        else:
            print(f"{n:>8} {q:>8} {dim:>4} {k:>4} {dist_ms:>9.1f} "
                  f"{np_s * 1e3:>9.1f} {'n/a':>10} {'n/a':>8}")


if __name__ == "__main__":
    main()
