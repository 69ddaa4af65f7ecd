"""Frequency estimation of segment embeddings against instance lexicons.

The continuous backend is exact k-nearest-neighbour search plus a
Gaussian-kernel weighted sum (a Parzen-Rosenblatt soft count between 0
and k).  Neighbours whose provenance segment overlaps the query in time
are discarded, which removes self-matches.  The kernel's width comes from
the base pool's own nearest-neighbour distances (``calibrate_beta``);
where they give none, the caller uses a fixed width.
Discrete corpora use exact multiset counts instead; a k-means
cluster-size backend exists for ablation runs.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_left
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from dpparse._kernels import topk_select

logger = logging.getLogger(__name__)

# Queries are answered in row blocks of about _BLOCK_BYTES: one distance
# GEMM per block into the query's one block buffer, then the norm finish
# and top-k selection per row tile of about _TILE_BYTES, while the tile is
# still in cache.  No distance matrix larger than one block ever exists,
# and only one exists at a time.  Keep the block this large: glibc serves
# an 8 MB buffer by mmap, and freeing it raises glibc's mmap and trim
# thresholds, so the smaller temporaries of a query group stay in a heap
# that is not trimmed between groups.  On the cont-lexicon benchmark, one
# 2 MB GEMM per tile kept the bits but raised a pass's minor page faults
# to 166k and its iteration time by 70-90%.
_BLOCK_BYTES = 8 * 1024 * 1024
_TILE_BYTES = 2 * 1024 * 1024


def _block_rows(n: int, k: int) -> int:
    """Query rows per GEMM block against ``n`` entries with ``k`` neighbours.

    A block's distances plus one (rows, k) float array take about
    _BLOCK_BYTES.  The split is a fixed function of (n, k), so results do
    not depend on how callers batch queries, provided they batch by this
    helper.  Results may depend on the block size itself: with OpenBLAS
    0.3.31 at one thread, splitting a GEMM into row blocks of two or more
    rows kept every product bit-identical at 2000 and 20,000 columns (dim
    3 to 64) and at 200 columns (dim 3 and 16), but changed rows at 700
    columns and at 200 columns with dim 64; one-row blocks (GEMV) changed
    every row.
    """
    return max(1, _BLOCK_BYTES // (8 * (n + min(k, n))))


@dataclass(frozen=True)
class DensityParams:
    """Neighbour count of a soft count (the kernel's width is calibrated,
    not set)."""

    k: int = 100

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("density.k must be >= 1")


class InstanceIndex:
    """Exact-kNN store of segment embeddings with time provenance.

    Entry i came from blocks [starts[i], ends[i]) of the utterance at corpus
    position codes[i].  Immutable once built: between iterations indexes
    are rebuilt, never mutated, so concurrent read-only queries are safe.
    """

    def __init__(self, vectors: np.ndarray, codes, starts, ends):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("empty lexicon")
        if not len(vectors) == len(codes) == len(starts) == len(ends):
            raise ValueError("one provenance interval per vector")
        self.vectors = vectors
        self._sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        self.codes = np.asarray(codes, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def query(self, queries: np.ndarray, k: int):
        """Exact k nearest neighbours under squared Euclidean distance.

        Returns (indices, sq_distances), each of shape (n_queries,
        min(k, n)), rows sorted ascending by (distance, entry index).
        Beyond the outputs, a query holds one distance block (about
        _BLOCK_BYTES) however many rows it has.
        """
        queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float64)
        if queries.shape[1] != self.dim:
            raise ValueError(f"query dim {queries.shape[1]} != index dim {self.dim}")
        if k < 1:
            raise ValueError("k must be >= 1")
        k_eff = min(k, self.n)
        m = queries.shape[0]
        out_idx = np.empty((m, k_eff), dtype=np.int64)
        out_dist = np.empty((m, k_eff), dtype=np.float64)
        for lo, dt in self._distance_tiles(queries, k_eff):
            rows = slice(lo, lo + len(dt))
            out_idx[rows], out_dist[rows] = topk_select(dt, k_eff)
        return out_idx, out_dist

    def _distance_tiles(self, queries: np.ndarray, k: int):
        """Yield (first row, squared distances) tiles of ``queries`` x index.

        ``queries`` is a C-contiguous float64 (m, dim) array, as ``query``
        makes it.  One GEMM per ``_block_rows(n, k)`` query rows, each
        written into the same (min(block, m), n) buffer; each tile of a
        block is finished just before it is yielded and is overwritten by
        the next block, so a consumer must be done with it by then.
        """
        block = _block_rows(self.n, k)
        tile = max(1, _TILE_BYTES // (8 * self.n))
        buf = np.empty((min(block, len(queries)), self.n))
        for lo in range(0, len(queries), block):
            q = queries[lo : lo + block]
            # |q - b|^2 = -2 q.b + |b|^2 + |q|^2, clamped against rounding.
            # The -2 scales the (rows, dim) query block, not the (rows, n)
            # product: a power of two scales every product and partial sum
            # of the GEMM exactly, so the bits are those of scaling after.
            d = np.matmul(-2.0 * q, self.vectors.T, out=buf[: len(q)])
            q_sq = np.einsum("ij,ij->i", q, q)
            for t in range(0, len(q), tile):
                dt = d[t : t + tile]
                dt += self._sq_norms[None, :]
                dt += q_sq[t : t + tile, None]
                np.maximum(dt, 0.0, out=dt)
                yield lo + t, dt

    def overlap_mask(
        self,
        neighbor_idx: np.ndarray,
        query_codes: np.ndarray,
        query_starts: np.ndarray,
        query_ends: np.ndarray,
    ) -> np.ndarray:
        """True where a neighbour's provenance strictly intersects the query.

        Few neighbours come from the query's own utterance, so intervals
        are compared only at those positions of the code mask.
        """
        mask = self.codes[neighbor_idx] == query_codes[:, None]
        flat = np.flatnonzero(mask)
        rows = flat // mask.shape[1]
        hit = np.take(neighbor_idx, flat)
        inter = (self.starts[hit] < query_ends[rows]) & (
            query_starts[rows] < self.ends[hit]
        )
        np.put(mask, flat, inter)
        return mask

    def kernel_frequencies_arrays(
        self,
        queries: np.ndarray,
        query_codes: np.ndarray,
        query_starts: np.ndarray,
        query_ends: np.ndarray,
        k: int,
        beta: float,
    ) -> np.ndarray:
        """Batched soft counts sum_j exp(-beta * d_j^2) over the kept ones
        of each query's ``k`` nearest neighbours.

        Streams over ``_neighbour_blocks``, so no (m, k) array exists for
        all queries at once and each count equals one computed from a
        one-shot ``query``.
        """
        queries = np.atleast_2d(queries)
        out = np.empty(len(queries), dtype=np.float64)
        blocks = self._neighbour_blocks(
            queries, query_codes, query_starts, query_ends, k
        )
        for rows, _idx, d2, excluded in blocks:
            weights = np.exp(-beta * d2)
            weights[excluded] = 0.0
            out[rows] = weights.sum(axis=1)
        return out

    def _neighbour_blocks(self, queries, codes, starts, ends, k, rows=None):
        """Yield (part, indices, sq_distances, excluded) per query block.

        The queries are ``queries[rows]`` with provenance ``codes[rows]``,
        ``starts[rows]`` and ``ends[rows]`` (all rows when ``rows`` is
        None), gathered ``_block_rows(n, k)`` at a time: the split a
        one-shot ``query`` uses, so each result equals the one-shot one.
        Each block is one ``query`` and one ``overlap_mask`` (``excluded``);
        ``part`` is its slice of the query positions.
        """
        m = len(queries) if rows is None else len(rows)
        block = _block_rows(self.n, k)
        for lo in range(0, m, block):
            part = slice(lo, lo + block)
            take = part if rows is None else rows[part]
            idx, d2 = self.query(queries[take], k)
            excluded = self.overlap_mask(idx, codes[take], starts[take], ends[take])
            yield part, idx, d2, excluded


# beta is this many times the inverse of the typical squared distance from
# an entry to its nearest non-overlapping neighbour.
_BANDWIDTH_SCALE = 4.0


def calibrate_beta(index: InstanceIndex, rows: np.ndarray, k: int) -> float | None:
    """Kernel inverse-width from the index's own neighbour scale.

    Each sampled entry (the sorted positions ``rows``) gets the squared
    distance to its nearest neighbour among its ``k`` nearest that does not
    overlap it, so not itself; rows with none are left out.  beta is
    _BANDWIDTH_SCALE over the median of these, so that a typical nearest
    neighbour weighs exp(-_BANDWIDTH_SCALE).  None for a sample under 100
    rows, when no row is left, or when the median is 0 (most of the sample
    has an exact duplicate).  The sample is streamed through the index's
    query blocks, as soft counts are, so no (len(rows), k) array exists at
    once.
    """
    if len(rows) < 100:
        return None
    nearest = []
    blocks = index._neighbour_blocks(
        index.vectors, index.codes, index.starts, index.ends, min(k, index.n), rows
    )
    for part, idx, _d2, excluded in blocks:
        kept = ~excluded
        free = kept.any(axis=1)
        # Taken directly, not by the norm trick, so an exact duplicate is at 0.
        first = idx[free, kept[free].argmax(1)]
        diff = index.vectors[rows[part][free]] - index.vectors[first]
        nearest.append(np.einsum("ij,ij->i", diff, diff))
    nearest_d2 = np.concatenate(nearest)
    median = float(np.median(nearest_d2)) if len(nearest_d2) else 0.0
    beta = _BANDWIDTH_SCALE / median if median > 0 else math.inf
    logger.info(
        "beta %.6g: median nearest d2 %.6g over %d of %d sampled entries",
        beta, median, len(nearest_d2), len(rows),
    )
    return beta if math.isfinite(beta) else None


# ---------------------------------------------------------------------------
# discrete exact counts

class DiscreteCountStore:
    """Multiset of keys; each instance keeps its provenance (utterance code
    and start) for overlap exclusion.

    The trainer keys by candidate type id, and a type fixes the symbol
    string, so every instance of a key has the length of any query of it.
    A key maps to one sorted ``array('q')`` of its instances' packed
    ``code << 32 | start``: 8 bytes per instance, plus one key and array
    per distinct key.  Codes and starts are those of candidate-table rows,
    non-negative int32, so they pack without a check.  The trainer adds
    rows in table order, which is (code, start) order, so ``add`` only
    appends and each array stays sorted.  An instance of the query's
    utterance ``code`` overlaps ``[start, end)`` iff it starts in
    ``(2 * start - end, end)``, so two bisects give the count that overlap
    exclusion removes.  A key the store does not hold counts 0, so callers
    may skip the keys missing from ``keys()``.
    """

    def __init__(self):
        self._instances: dict[Hashable, array] = {}

    def keys(self):
        """The keys with at least one instance."""
        return self._instances.keys()

    def add(self, key: Hashable, code: int, start: int) -> None:
        starts = self._instances.get(key)
        if starts is None:
            self._instances[key] = array("q", (code << 32 | start,))
        else:
            starts.append(code << 32 | start)

    def count_excluding_overlaps(
        self, key: Hashable, code: int, start: int, end: int
    ) -> int:
        starts = self._instances.get(key)
        if starts is None:
            return 0
        # Overlapping instances start in [lo, end) of utterance ``code``;
        # the clamp keeps the range inside it, and an empty range finds
        # nothing because the second bisect starts at the first.
        lo = 2 * start - end + 1
        if lo < 0:
            lo = 0
        base = code << 32
        first = bisect_left(starts, base + lo)
        return len(starts) - (bisect_left(starts, base + end, first) - first)


# ---------------------------------------------------------------------------
# k-means cluster-size backend (ablation)

_KMEANS_MAX_ITER = 100


class KMeansModel:
    """Lloyd's algorithm with D^2-weighted seeding and a fixed RNG seed."""

    def __init__(self, n_clusters: int, seed: int = 0):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self.cluster_sizes: np.ndarray | None = None

    def fit(self, points: np.ndarray) -> "KMeansModel":
        points = np.ascontiguousarray(points, dtype=np.float64)
        n = points.shape[0]
        if self.n_clusters > n:
            raise ValueError(f"n_clusters={self.n_clusters} exceeds population {n}")
        rng = np.random.default_rng(self.seed)
        centroids = self._seed_centroids(points, rng)
        labels = None
        for _ in range(_KMEANS_MAX_ITER):
            new_labels = self._assign(points, centroids)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(self.n_clusters):
                members = points[labels == c]
                if members.shape[0]:
                    centroids[c] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster with the point farthest
                    # from its assigned centroid.
                    d = _pairwise_sq(points, centroids)
                    worst = int(np.argmax(d[np.arange(n), labels]))
                    centroids[c] = points[worst]
                    labels[worst] = c
        self.centroids = centroids
        self.cluster_sizes = np.bincount(labels, minlength=self.n_clusters)
        return self

    def _seed_centroids(self, points: np.ndarray, rng) -> np.ndarray:
        n = points.shape[0]
        centroids = np.empty((self.n_clusters, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        closest = _pairwise_sq(points, centroids[:1]).ravel()
        for c in range(1, self.n_clusters):
            total = closest.sum()
            if total <= 0:
                centroids[c] = points[rng.integers(n)]
                continue
            probs = closest / total
            centroids[c] = points[rng.choice(n, p=probs)]
            np.minimum(
                closest, _pairwise_sq(points, centroids[c : c + 1]).ravel(), out=closest
            )
        return centroids

    @staticmethod
    def _assign(points, centroids):
        return np.argmin(_pairwise_sq(points, centroids), axis=1)

    def frequencies(self, queries: np.ndarray) -> np.ndarray:
        """Size of the cluster each query lands in."""
        if self.centroids is None:
            raise RuntimeError("model not fitted")
        labels = self._assign(np.atleast_2d(queries), self.centroids)
        return self.cluster_sizes[labels].astype(np.float64)


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a @ b.T
    d *= -2.0
    d += np.einsum("ij,ij->i", b, b)[None, :]
    d += np.einsum("ij,ij->i", a, a)[:, None]
    np.maximum(d, 0.0, out=d)
    return d

