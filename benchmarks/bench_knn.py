#!/usr/bin/env python3
"""Benchmark the compiled top-k kernel against the numpy selection.

Streams each case's exact distances through the production GEMM blocks
and finished row tiles that ``InstanceIndex.query`` selects in
(``InstanceIndex._distance_tiles``), and times the top-k selection of
every tile through each backend, so no case holds more than one distance
block.  The selection stage is where the two backends differ.  The first
two full cases are the shapes of the ``cont-lexicon`` perfbench workload:
setup queries against its 2000-entry base pool, and one iteration's
queries against its ~200-token lexicon.

Usage: python benchmarks/bench_knn.py [--quick] [--threads N]
"""

import argparse
import os
import time

import numpy as np

from dpparse._kernels import BACKEND
from dpparse._kernels.topk_fallback import select_topk as numpy_select
from dpparse.core import Segment
from dpparse.density import InstanceIndex

try:
    from dpparse._kernels._topk import select_topk as native_select
except ImportError:
    native_select = None


def _time_case(index, queries, k, selects, threads, repeats=3):
    """Best of ``repeats`` seconds spent building the distance tiles and
    selecting in them with each backend; each backend's indices."""
    m = len(queries)
    outs = [np.empty((m, k), dtype=np.int64) for _ in selects]
    out_dist = np.empty((m, k), dtype=np.float64)
    best = [float("inf")] * (1 + len(selects))
    for _ in range(repeats):
        spent = [0.0] * len(best)
        t0 = time.perf_counter()
        for lo, dists in index._distance_tiles(queries, k):
            spent[0] += time.perf_counter() - t0
            rows = slice(lo, lo + len(dists))
            for i, select in enumerate(selects, 1):
                t0 = time.perf_counter()
                select(dists, outs[i - 1][rows], out_dist[rows], k, threads)
                spent[i] += time.perf_counter() - t0
            t0 = time.perf_counter()
        best = [min(b, s) for b, s in zip(best, spent)]
    return best, outs


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
    selects = [numpy_select] + ([native_select] if native_select else [])
    for n, q, dim, k in cases:
        base = rng.normal(size=(n, dim))
        index = InstanceIndex(base, [Segment("base", i, i + 1) for i in range(n)])
        queries = rng.normal(size=(q, dim))
        (dist_s, np_s, *nat), idx = _time_case(index, queries, k, selects, threads)
        row = f"{n:>8} {q:>8} {dim:>4} {k:>4} {dist_s * 1e3:>9.1f} {np_s * 1e3:>9.1f}"
        if nat:
            assert np.array_equal(idx[0], idx[1]), "backends disagree"
            print(f"{row} {nat[0] * 1e3:>10.1f} {np_s / nat[0]:>7.1f}x")
        else:
            print(f"{row} {'n/a':>10} {'n/a':>8}")


if __name__ == "__main__":
    main()
