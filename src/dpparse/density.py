"""Frequency estimation of segment embeddings against instance lexicons.

The continuous backend is exact k-nearest-neighbour search plus a
Gaussian-kernel weighted sum (a Parzen-Rosenblatt soft count between 0
and k).  Neighbours whose provenance segment overlaps the query in time
are discarded, which removes self-matches.  Discrete corpora use exact
multiset counts instead; a k-means cluster-size backend exists for
ablation runs.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from dpparse._kernels import topk_select
from dpparse.core import Segment

logger = logging.getLogger(__name__)

# Queries are answered in row blocks of about _BLOCK_BYTES: one distance
# GEMM per block, then the norm finish and top-k selection per row tile of
# about _TILE_BYTES, while the tile is still in cache.  No distance matrix
# larger than one block ever exists.
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
    """Neighbour count, kernel inverse-width, and the "frequency of one" cut."""

    k: int = 100
    beta: float = 1.0
    epsilon_f: float = 1e-3

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if not 0 < self.epsilon_f < 1:
            raise ValueError("epsilon_f must be in (0, 1)")


class InstanceIndex:
    """Exact-kNN store of segment embeddings with time provenance.

    Immutable once built: between iterations indexes are rebuilt, never
    mutated, so concurrent read-only queries are safe.
    """

    def __init__(self, vectors: np.ndarray, segments: list[Segment]):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("empty lexicon")
        if vectors.shape[0] != len(segments):
            raise ValueError("one provenance segment required per vector")
        self.vectors = vectors
        self._sq_norms = np.einsum("ij,ij->i", vectors, vectors)
        self._utt_code: dict[str, int] = {}
        codes = np.empty(len(segments), dtype=np.int64)
        starts = np.empty(len(segments), dtype=np.int64)
        ends = np.empty(len(segments), dtype=np.int64)
        for i, seg in enumerate(segments):
            codes[i] = self._utt_code.setdefault(seg.utterance_id, len(self._utt_code))
            starts[i] = seg.start
            ends[i] = seg.end
        self._codes = codes
        self._starts = starts
        self._ends = ends

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def utt_code(self, utterance_id: str) -> int:
        # Unknown utterances get -1 and can never overlap an entry.
        return self._utt_code.get(utterance_id, -1)

    def query(self, queries: np.ndarray, k: int):
        """Exact k nearest neighbours under squared Euclidean distance.

        Returns (indices, sq_distances), each of shape (n_queries,
        min(k, n)), rows sorted ascending by (distance, entry index).
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
        makes it.  One GEMM per ``_block_rows(n, k)`` query rows; each tile
        of a block is finished just before it is yielded and is overwritten
        by the next block, so a consumer must be done with it by then.
        """
        block = _block_rows(self.n, k)
        tile = max(1, _TILE_BYTES // (8 * self.n))
        for lo in range(0, len(queries), block):
            q = queries[lo : lo + block]
            # |q - b|^2 = |q|^2 + |b|^2 - 2 q.b, clamped against rounding.
            d = q @ self.vectors.T
            q_sq = np.einsum("ij,ij->i", q, q)
            for t in range(0, len(q), tile):
                dt = d[t : t + tile]
                dt *= -2.0
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
        """True where a neighbour's provenance strictly intersects the query."""
        same = self._codes[neighbor_idx] == query_codes[:, None]
        inter = (self._starts[neighbor_idx] < query_ends[:, None]) & (
            query_starts[:, None] < self._ends[neighbor_idx]
        )
        return same & inter

    def kernel_frequencies_arrays(
        self,
        queries: np.ndarray,
        query_codes: np.ndarray,
        query_starts: np.ndarray,
        query_ends: np.ndarray,
        params: DensityParams,
    ) -> np.ndarray:
        """Batched soft counts sum_j exp(-beta * d_j^2) over kept neighbours.

        Streams ``query`` over ``_block_rows`` blocks, the split a one-shot
        ``query`` uses, so no (m, k) array exists for all queries at once
        and each count equals one computed from a one-shot ``query``.
        """
        queries = np.atleast_2d(queries)
        out = np.empty(len(queries), dtype=np.float64)
        block = _block_rows(self.n, params.k)
        for lo in range(0, len(queries), block):
            rows = slice(lo, lo + block)
            idx, d2 = self.query(queries[rows], params.k)
            weights = np.exp(-params.beta * d2)
            excluded = self.overlap_mask(
                idx, query_codes[rows], query_starts[rows], query_ends[rows]
            )
            weights[excluded] = 0.0
            out[rows] = weights.sum(axis=1)
        return out


def calibrate_beta(
    index: InstanceIndex,
    sample: list[tuple[np.ndarray, Segment]],
    k: int,
    epsilon_f: float,
    target: float = 0.5,
    tolerance: float = 0.02,
    log10_bounds: tuple[float, float] = (-12.0, 12.0),
) -> float:
    """Bisect log-beta until the wanted fraction of sample soft counts is tiny.

    A sample item "has frequency one" when its soft count, excluding the
    self instance (removed by overlap exclusion), falls below
    ``epsilon_f``.  The returned beta puts that fraction within
    ``tolerance`` of ``target``.
    """
    if len(sample) < 100:
        raise ValueError(f"calibration sample has {len(sample)} items, need >= 100")
    if not 0 < target < 1:
        raise ValueError("target must be in (0, 1)")
    vectors = np.stack([np.asarray(v, dtype=np.float64) for v, _ in sample])
    segments = [s for _, s in sample]
    idx, d2 = index.query(vectors, min(k, index.n))
    codes = np.array([index.utt_code(s.utterance_id) for s in segments], dtype=np.int64)
    starts = np.array([s.start for s in segments], dtype=np.int64)
    ends = np.array([s.end for s in segments], dtype=np.int64)
    excluded = index.overlap_mask(idx, codes, starts, ends)

    def below_fraction(beta: float) -> float:
        w = np.exp(-beta * d2)
        w[excluded] = 0.0
        return float(np.mean(w.sum(axis=1) < epsilon_f))

    lo, hi = log10_bounds
    f_lo = below_fraction(10.0**lo)
    f_hi = below_fraction(10.0**hi)
    if f_lo > target + tolerance or f_hi < target - tolerance:
        raise ValueError(
            "calibration target unreachable: below-epsilon fraction is "
            f"{f_lo:.4f} at beta={10.0**lo:g} and {f_hi:.4f} at beta={10.0**hi:g}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        beta = 10.0**mid
        f_mid = below_fraction(beta)
        if abs(f_mid - target) <= tolerance:
            logger.info("calibrated beta=%.6g (fraction %.4f)", beta, f_mid)
            return beta
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    raise ValueError(
        "calibration did not converge: fraction "
        f"{below_fraction(10.0**lo):.4f} at beta={10.0**lo:g}, "
        f"{below_fraction(10.0**hi):.4f} at beta={10.0**hi:g}"
    )


# ---------------------------------------------------------------------------
# discrete exact counts

def _canon_key(key) -> bytes:
    if isinstance(key, bytes):
        return key
    return np.asarray(tuple(key), dtype="<i4").tobytes()


class DiscreteCountStore:
    """Multiset of symbol-sequence keys with provenance for overlap exclusion."""

    def __init__(self):
        self.total = 0
        self._counts: dict[bytes, int] = defaultdict(int)
        self._spans: dict[bytes, dict[str, list[tuple[int, int]]]] = {}

    def add(self, key, segment: Segment) -> None:
        key = _canon_key(key)
        self._counts[key] += 1
        self.total += 1
        self._spans.setdefault(key, {}).setdefault(segment.utterance_id, []).append(
            (segment.start, segment.end)
        )

    def count_excluding_overlaps(self, key, segment: Segment) -> int:
        key = _canon_key(key)
        n = self._counts.get(key, 0)
        if n == 0:
            return 0
        spans = self._spans[key].get(segment.utterance_id)
        if spans:
            n -= sum(
                1 for s, e in spans if s < segment.end and segment.start < e
            )
        return n


# ---------------------------------------------------------------------------
# k-means cluster-size backend (ablation)

class KMeansModel:
    """Lloyd's algorithm with D^2-weighted seeding and a fixed RNG seed."""

    def __init__(self, n_clusters: int, seed: int = 0, max_iter: int = 100):
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.seed = seed
        self.max_iter = max_iter
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
        for _ in range(self.max_iter):
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

    def assign(self, queries: np.ndarray) -> np.ndarray:
        if self.centroids is None:
            raise RuntimeError("model not fitted")
        return self._assign(np.atleast_2d(queries), self.centroids)

    def frequencies(self, queries: np.ndarray) -> np.ndarray:
        """Size of the cluster each query lands in."""
        return self.cluster_sizes[self.assign(queries)].astype(np.float64)


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a @ b.T
    d *= -2.0
    d += np.einsum("ij,ij->i", b, b)[None, :]
    d += np.einsum("ij,ij->i", a, a)[:, None]
    np.maximum(d, 0.0, out=d)
    return d

