import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse import density
from dpparse.core import Segment
from dpparse.density import (
    DensityParams,
    DiscreteCountStore,
    InstanceIndex,
    KMeansModel,
    calibrate_beta,
)

from oracles import linear_scan_knn


def _seg(i, utt=None, start=None):
    s = i if start is None else start
    return Segment(utt or f"utt{i}", s, s + 1)


# A segment of an utterance no index or store holds: nothing overlaps it.
_FRESH = Segment("fresh", 0, 1)


def _index_of(items):
    vectors = np.stack([np.asarray(v, dtype=np.float64) for v, _ in items])
    return InstanceIndex(vectors, [seg for _, seg in items])


def _soft_counts(index, queries, segments, params):
    """kernel_frequencies_arrays with provenance taken from ``segments``."""
    return index.kernel_frequencies_arrays(
        np.atleast_2d(np.asarray(queries, dtype=np.float64)),
        np.array([index.utt_code(s.utterance_id) for s in segments]),
        np.array([s.start for s in segments]),
        np.array([s.end for s in segments]),
        params,
    )


def _index_from(vectors, utts=None):
    segs = [
        Segment(utts[i] if utts else f"utt{i}", 0, 1) for i in range(len(vectors))
    ]
    return InstanceIndex(np.asarray(vectors, dtype=np.float64), segs)


class TestBuildIndex:
    def test_self_match_at_distance_zero(self):
        vecs = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 0.5])]
        index = _index_of([(v, _seg(i)) for i, v in enumerate(vecs)])
        idx, d2 = index.query(vecs[2], 1)
        assert idx[0, 0] == 2
        assert d2[0, 0] == 0.0

    def test_k_larger_than_entry_count_saturates(self):
        index = _index_from(np.eye(3))
        idx, d2 = index.query(np.zeros(3), 10)
        assert idx.shape == (1, 3)
        assert set(idx[0]) == {0, 1, 2}

    def test_empty_items_rejected(self):
        with pytest.raises(ValueError, match="empty lexicon"):
            InstanceIndex(np.empty((0, 3)), [])

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4000, 12))
        index = _index_from(base)
        queries = rng.normal(size=(25, 12))
        idx, _ = index.query(queries, 17)
        for r in range(25):
            oracle_idx, _ = linear_scan_knn(base, queries[r], 17)
            assert np.array_equal(idx[r], oracle_idx)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_linear_scan_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        dim = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        base = rng.normal(size=(n, dim))
        q = rng.normal(size=dim)
        idx, _ = _index_from(base).query(q, k)
        oracle_idx, _ = linear_scan_knn(base, q, k)
        assert np.array_equal(idx[0], oracle_idx)

    def test_tile_size_does_not_change_results(self, monkeypatch):
        # Every vector three times: equal distances inside the selection and
        # at the k-th cut, so tied rows take the repair path.
        rng = np.random.default_rng(9)
        base = np.repeat(rng.normal(size=(60, 4)), 3, axis=0)
        index = _index_from(base)
        queries = np.vstack([base[::7], rng.normal(size=(40, 4))])
        idx, d2 = index.query(queries, 10)
        assert (d2[:, 1:] == d2[:, :-1]).any()
        tiles = []
        select = density.topk_select

        def counting(dists, k):
            tiles.append(dists.shape[0])
            return select(dists, k)

        monkeypatch.setattr(density, "_TILE_BYTES", 1)
        monkeypatch.setattr(density, "topk_select", counting)
        idx1, d21 = index.query(queries, 10)
        assert tiles == [1] * len(queries)
        assert np.array_equal(idx1, idx)
        assert np.array_equal(d21, d2)


class TestEstimateFrequency:
    def test_identical_nonoverlapping_neighbor_counts_one(self):
        v = np.array([0.3, -0.7])
        index = _index_of([(v, Segment("a", 0, 1))])
        f = _soft_counts(index, v, [Segment("b", 0, 1)], DensityParams(k=5, beta=2.0))
        assert f[0] == pytest.approx(1.0, rel=1e-12)

    def test_equidistant_ring_hand_value(self):
        # k neighbours all at squared distance d, beta = 1/d -> k * e^-1
        k, d = 8, 0.49
        base = np.sqrt(d) * np.vstack([np.eye(4), -np.eye(4)])
        index = _index_of([(row, _seg(i)) for i, row in enumerate(base)])
        params = DensityParams(k=k, beta=1.0 / d)
        f = _soft_counts(index, np.zeros(4), [Segment("query", 0, 1)], params)
        assert f[0] == pytest.approx(k * math.exp(-1.0), rel=1e-12)

    def test_all_neighbors_overlapping_gives_zero(self):
        v = np.array([1.0, 2.0])
        items = [(v, Segment("u", 0, 3)), (v, Segment("u", 2, 5))]
        index = _index_of(items)
        f = _soft_counts(index, v, [Segment("u", 1, 4)], DensityParams(k=5, beta=1.0))
        assert f[0] == 0.0

    def test_shared_endpoint_is_not_overlap(self):
        v = np.array([1.0, 2.0])
        index = _index_of([(v, Segment("u", 0, 3))])
        f = _soft_counts(index, v, [Segment("u", 3, 5)], DensityParams(k=5, beta=1.0))
        assert f[0] == pytest.approx(1.0)

    def test_bounded_by_k(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(50, 3)) * 1e-3  # everything close together
        index = _index_from(base)
        params = DensityParams(k=7, beta=1e-9)
        f = _soft_counts(index, base[0], [Segment("elsewhere", 0, 1)], params)
        assert 0.0 <= f[0] <= params.k

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(60, 5))
        perm = rng.permutation(60)
        params = DensityParams(k=11, beta=0.7)
        q = rng.normal(size=5)
        f1 = _soft_counts(_index_from(base), q, [Segment("q", 0, 1)], params)
        f2 = _soft_counts(
            _index_from(base[perm], utts=[f"utt{i}" for i in perm]),
            q,
            [Segment("q", 0, 1)],
            params,
        )
        assert f1[0] == pytest.approx(f2[0], rel=1e-12)

    def test_matches_exact_count_on_orthogonal_codes(self):
        # one-hot codes per key, large beta: soft count -> exact count
        rng = np.random.default_rng(3)
        dim = 6
        keys = rng.integers(0, dim, size=40)
        store = DiscreteCountStore()
        items = []
        for i, key in enumerate(keys):
            seg = Segment(f"utt{i}", 0, 1)
            store.add((int(key),), seg)
            items.append((np.eye(dim)[key], seg))
        index = _index_of(items)
        params = DensityParams(k=50, beta=50.0)
        f = _soft_counts(index, np.eye(dim), [_FRESH] * dim, params)
        for key in range(dim):
            exact = store.count_excluding_overlaps((key,), _FRESH)
            assert f[key] == pytest.approx(exact, abs=1e-6)

    def test_streamed_counts_equal_one_shot_query(self, monkeypatch):
        # Blocks of five rows: 23 queries make four whole blocks and a
        # remainder of three.
        n, k, dim = 50, 7, 4
        monkeypatch.setattr(density, "_BLOCK_BYTES", 8 * (n + k) * 5)
        rng = np.random.default_rng(4)
        base = rng.normal(size=(n, dim))
        segments = [Segment(f"utt{i % 10}", i, i + 2) for i in range(n)]
        index = InstanceIndex(base, segments)
        # Pool entries under their own provenance (excluded self-matches)
        # and fresh vectors.
        queries = np.vstack([base[:13], rng.normal(size=(10, dim))])
        q_segs = segments[:13] + [Segment(f"utt{i}", 0, 3) for i in range(10)]
        params = DensityParams(k=k, beta=0.8)
        query = InstanceIndex.query
        calls = []

        def counting(self, queries, k):
            calls.append(len(queries))
            return query(self, queries, k)

        monkeypatch.setattr(InstanceIndex, "query", counting)
        streamed = _soft_counts(index, queries, q_segs, params)
        assert calls == [5, 5, 5, 5, 3]

        idx, d2 = query(index, queries, k)
        codes = np.array([index.utt_code(s.utterance_id) for s in q_segs])
        starts = np.array([s.start for s in q_segs])
        ends = np.array([s.end for s in q_segs])
        weights = np.exp(-params.beta * d2)
        excluded = index.overlap_mask(idx, codes, starts, ends)
        assert excluded.any()
        weights[excluded] = 0.0
        assert np.array_equal(streamed, weights.sum(axis=1))

    def test_peak_memory_bounded_by_block(self):
        # 8000 x 2000 distances are 128 MB; a block is a few MB.
        rng = np.random.default_rng(6)
        n, m, dim = 2000, 8000, 16
        index = InstanceIndex(
            rng.normal(size=(n, dim)), [Segment(f"u{i}", 0, 1) for i in range(n)]
        )
        queries = rng.normal(size=(m, dim))
        codes = np.full(m, -1)
        starts = np.zeros(m, dtype=np.int64)
        ends = np.ones(m, dtype=np.int64)
        params = DensityParams(k=100, beta=1.0)
        tracemalloc.start()
        try:
            counts = index.kernel_frequencies_arrays(
                queries, codes, starts, ends, params
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (m,)
        assert peak < 16 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"


class TestCalibrateBeta:
    def _well_separated_sample(self, rng, n=300, dup_fraction=0.5):
        # isolated anchors far apart; a fraction get an exact duplicate
        dim = 6
        anchors = rng.normal(size=(n, dim)) * 50.0
        items = [(anchors[i], Segment(f"a{i}", 0, 1)) for i in range(n)]
        n_dup = int(n * dup_fraction)
        items += [
            (anchors[i].copy(), Segment(f"dup{i}", 0, 1)) for i in range(n_dup)
        ]
        return items

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(0)
        items = self._well_separated_sample(rng, n=200)
        index = _index_of(items)
        vectors = np.stack([v for v, _ in items])
        segs = [s for _, s in items]
        idx, d2 = index.query(vectors, 20)
        codes = np.array([index.utt_code(s.utterance_id) for s in segs])
        starts = np.array([s.start for s in segs])
        ends = np.array([s.end for s in segs])
        mask = index.overlap_mask(idx, codes, starts, ends)

        def frac(beta):
            w = np.exp(-beta * d2)
            w[mask] = 0.0
            return np.mean(w.sum(axis=1) < 1e-3)

        fractions = [frac(b) for b in (1e-6, 1e-2, 1.0, 1e2, 1e6)]
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_tiny_beta_keeps_everything_above_epsilon(self):
        rng = np.random.default_rng(1)
        items = self._well_separated_sample(rng, n=150, dup_fraction=0.0)
        index = _index_of(items)
        params = DensityParams(k=10, beta=1e-12, epsilon_f=1e-3)
        freqs = _soft_counts(
            index, [v for v, _ in items[:50]], [Segment("probe", 0, 1)] * 50, params
        )
        # beta -> 0 means every neighbour contributes ~1
        assert all(f > 9.0 for f in freqs)

    def test_half_duplicates_calibrates_to_half(self):
        rng = np.random.default_rng(2)
        items = self._well_separated_sample(rng, n=200, dup_fraction=1.0)
        # sample only the originals: each has exactly one exact duplicate
        # elsewhere, so their below-epsilon indicator never fires; add the
        # same number of isolated points which cross as beta grows.
        isolated = [
            (rng.normal(size=6) * 50.0 + 500.0, Segment(f"iso{i}", 0, 1))
            for i in range(400)
        ]
        index = _index_of(items + isolated)
        sample = items[:200] + isolated[:200]
        beta = calibrate_beta(index, sample, k=20, epsilon_f=1e-3, target=0.5)
        params = DensityParams(k=20, beta=beta, epsilon_f=1e-3)
        vectors, segments = zip(*sample)
        below = _soft_counts(index, vectors, segments, params) < 1e-3
        assert 0.48 <= np.mean(below) <= 0.52

    def test_small_sample_rejected(self):
        rng = np.random.default_rng(3)
        items = self._well_separated_sample(rng, n=120, dup_fraction=0.0)
        index = _index_of(items)
        with pytest.raises(ValueError, match="100"):
            calibrate_beta(index, items[:50], k=5, epsilon_f=1e-3)

    def test_unreachable_target_reports_both_bounds(self):
        rng = np.random.default_rng(4)
        # every point duplicated: fraction can never reach 0.9
        items = self._well_separated_sample(rng, n=150, dup_fraction=1.0)
        index = _index_of(items)
        with pytest.raises(ValueError, match="unreachable"):
            calibrate_beta(index, items, k=10, epsilon_f=1e-3, target=0.9)


class TestDiscreteCounts:
    def test_multiset_count(self):
        store = DiscreteCountStore()
        for i in range(3):
            store.add((1, 2), Segment(f"u{i}", 0, 2))
        store.add((9,), Segment("u9", 0, 1))
        assert store.count_excluding_overlaps((1, 2), _FRESH) == 3
        assert store.count_excluding_overlaps((7, 7), _FRESH) == 0
        assert store.total == 4

    def test_rebuild_reflects_new_counts(self):
        store = DiscreteCountStore()
        store.add((1,), Segment("u", 0, 1))
        rebuilt = DiscreteCountStore()
        rebuilt.add((1,), Segment("u", 0, 1))
        rebuilt.add((1,), Segment("v", 0, 1))
        assert store.count_excluding_overlaps((1,), _FRESH) == 1
        assert rebuilt.count_excluding_overlaps((1,), _FRESH) == 2

    def test_overlap_exclusion(self):
        store = DiscreteCountStore()
        store.add((5, 5), Segment("u", 0, 2))
        store.add((5, 5), Segment("u", 4, 6))
        store.add((5, 5), Segment("v", 0, 2))
        # query overlapping the first instance only
        assert store.count_excluding_overlaps((5, 5), Segment("u", 1, 3)) == 2
        # non-overlapping query keeps everything
        assert store.count_excluding_overlaps((5, 5), Segment("u", 2, 4)) == 3

    def test_bytes_and_tuple_keys_agree(self):
        store = DiscreteCountStore()
        symbols = np.array([3, 1, 4], dtype="<i4")
        store.add(symbols[0:2].tobytes(), Segment("u", 0, 2))
        assert store.count_excluding_overlaps((3, 1), _FRESH) == 1


def _cluster_size(points, n_clusters, query, seed):
    model = KMeansModel(n_clusters, seed=seed).fit(points)
    return model.frequencies(np.asarray(query)[None, :])[0]


class TestKMeans:
    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        big = rng.normal(size=(7, 3)) * 0.05 + np.array([10.0, 0.0, 0.0])
        small = rng.normal(size=(3, 3)) * 0.05 - np.array([10.0, 0.0, 0.0])
        pts = np.vstack([big, small])
        f = _cluster_size(pts, 2, big[0], seed=1)
        assert f == 7.0

    def test_singleton_clusters(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 2)) * 10
        for p in pts:
            assert _cluster_size(pts, 6, p, seed=0) == 1.0

    def test_single_cluster_full_population(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(9, 2))
        assert _cluster_size(pts, 1, pts[4], seed=0) == 9.0

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError, match="exceeds population"):
            KMeansModel(5).fit(np.ones((3, 2)))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 4))
        m1 = KMeansModel(5, seed=7).fit(pts)
        m2 = KMeansModel(5, seed=7).fit(pts)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(m1.cluster_sizes, m2.cluster_sizes)
