import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse import density
from dpparse.density import (
    DiscreteCountStore,
    InstanceIndex,
    KMeansModel,
    calibrate_beta,
)

from oracles import calibrated_beta as oracle_beta
from oracles import (
    count_excluding_overlaps,
    held_instances,
    linear_scan_knn,
    overlap_mask,
)


# Provenance is (utterance code, start block, end block).  _FRESH is an
# interval of an utterance no index or store holds: nothing overlaps it.
_FRESH = (-1, 0, 1)


def _key(*symbols):
    """Count-store key of a symbol string, as the trainer builds it."""
    return np.array(symbols, dtype="<i4").tobytes()


def _arrays(provenance):
    """(codes, starts, ends) arrays of a list of provenance triples."""
    return tuple(np.array(column) for column in zip(*provenance))


def _index_of(items):
    vectors = np.stack([np.asarray(v, dtype=np.float64) for v, _ in items])
    return InstanceIndex(vectors, *_arrays([p for _, p in items]))


def _soft_counts(index, queries, provenance, k, beta):
    """kernel_frequencies_arrays with provenance taken from triples."""
    return index.kernel_frequencies_arrays(
        np.atleast_2d(np.asarray(queries, dtype=np.float64)),
        *_arrays(provenance),
        k,
        beta,
    )


def _index_from(vectors, codes=None):
    """An index with entry i at [0, 1) of utterance codes[i] (default i)."""
    codes = range(len(vectors)) if codes is None else codes
    return _index_of([(v, (c, 0, 1)) for v, c in zip(vectors, codes)])


class TestBuildIndex:
    def test_self_match_at_distance_zero(self):
        vecs = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 0.5])]
        index = _index_of([(v, (i, 0, 1)) for i, v in enumerate(vecs)])
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
            InstanceIndex(np.empty((0, 3)), [], [], [])

    def test_provenance_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one provenance interval per vector"):
            InstanceIndex(np.ones((3, 2)), np.arange(3), np.zeros(2), np.ones(3))

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

    @pytest.mark.parametrize("tile_bytes", ["row", "512KiB", "2MiB", "block"])
    @pytest.mark.parametrize("n", [250, 2000])
    def test_tile_size_does_not_change_results(self, monkeypatch, n, tile_bytes):
        # A workload index size at dim 64, every vector three times: equal
        # distances inside the selection and across the k-th cut, so tied
        # rows take the run repairs.  1,200 queries make several tiles per
        # block at n = 250 and several blocks at 2,000.  The reference
        # finishes each GEMM block whole, selects by lexsort on (distance,
        # column) and weighs out of place, as exp(-beta * d2).
        rng = np.random.default_rng(n)
        base = np.repeat(rng.normal(size=(-(-n // 3), 64)), 3, axis=0)[:n]
        queries = np.vstack([base[::3], rng.normal(size=(1200 - len(base[::3]), 64))])
        codes = np.arange(len(queries)) % n
        starts, ends = np.zeros(len(queries), int), np.ones(len(queries), int)
        k, beta = 100, 1.5
        block = density._block_rows(n, k)
        v_sq = np.einsum("ij,ij->i", base, base)
        ref_idx, ref_d2 = [], []
        for lo in range(0, len(queries), block):
            q = queries[lo : lo + block]
            d = (-2.0 * q) @ base.T + v_sq + np.einsum("ij,ij->i", q, q)[:, None]
            np.maximum(d, 0.0, out=d)
            order = np.lexsort((np.broadcast_to(np.arange(n), d.shape), d))
            ref_idx.append(order[:, :k])
            ref_d2.append(np.take_along_axis(d, order[:, : k + 1], 1))
        ref_idx, ref_d2 = np.vstack(ref_idx), np.vstack(ref_d2)
        assert (ref_d2[:, k - 1] == ref_d2[:, k]).any()
        ref_d2 = np.ascontiguousarray(ref_d2[:, :k])
        assert (ref_d2[:, 1:] == ref_d2[:, :-1]).any()
        index = _index_from(base)
        weights = np.exp(-beta * ref_d2)
        weights[index.overlap_mask(ref_idx, codes, starts, ends)] = 0.0
        tile_rows = {
            "row": 1,
            "512KiB": 512 * 1024 // (8 * n),
            "2MiB": 2 * 1024 * 1024 // (8 * n),
            "block": block,
        }[tile_bytes]
        tiles = []
        select = density.topk_select

        def counting(dists, k):
            tiles.append(dists.shape[0])
            return select(dists, k)

        monkeypatch.setattr(density, "_TILE_BYTES", 8 * n * tile_rows)
        monkeypatch.setattr(density, "topk_select", counting)
        idx, d2 = index.query(queries, k)
        counts = index.kernel_frequencies_arrays(queries, codes, starts, ends, k, beta)
        assert max(tiles) == min(tile_rows, block, len(queries))
        assert np.array_equal(idx, ref_idx)
        assert d2.tobytes() == ref_d2.tobytes()
        assert counts.tobytes() == weights.sum(axis=1).tobytes()

    @pytest.mark.parametrize("n", [250, 2000])
    def test_folded_minus_two_changes_no_bit(self, n):
        # The GEMM runs on -2 q; the tiles must be those of scaling q.V^T
        # by -2 after the GEMM of the same block, bit for bit.  n is the
        # size of a workload lexicon and base pool; 1,200 queries make
        # several tiles per block at n = 250 and several blocks at 2,000.
        rng = np.random.default_rng(n)
        vectors = rng.normal(size=(n, 64))
        queries = rng.normal(size=(1200, 64))
        k = 100
        block = density._block_rows(n, k)
        v_sq = np.einsum("ij,ij->i", vectors, vectors)
        covered = 0
        for lo, dt in _index_from(vectors)._distance_tiles(queries, k):
            first = lo - lo % block
            q = queries[first : first + block]
            q_sq = np.einsum("ij,ij->i", q, q)
            ref = np.maximum((q @ vectors.T) * -2.0 + v_sq + q_sq[:, None], 0.0)
            rows = ref[lo - first : lo - first + len(dt)]
            assert np.array_equal(dt.view(np.int64), rows.view(np.int64))
            covered += len(dt)
        assert covered == len(queries)


class TestOverlapMask:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_oracle(self, seed):
        # Three utterance codes over short block ranges: many neighbours
        # share the query's utterance and many intervals share an endpoint.
        # Query codes 3 and 4 name no entry's utterance.
        rng = np.random.default_rng(seed)
        n, m, k = 300, 120, 40
        codes = rng.integers(0, 3, size=n)
        starts = rng.integers(0, 8, size=n)
        ends = starts + rng.integers(1, 4, size=n)
        index = InstanceIndex(rng.normal(size=(n, 2)), codes, starts, ends)
        neighbor_idx = np.stack([rng.permutation(n)[:k] for _ in range(m)])
        q_codes = rng.integers(0, 5, size=m)
        q_starts = rng.integers(0, 8, size=m)
        q_ends = q_starts + rng.integers(1, 4, size=m)
        mask = index.overlap_mask(neighbor_idx, q_codes, q_starts, q_ends)
        expected = overlap_mask(
            codes, starts, ends, neighbor_idx, q_codes, q_starts, q_ends
        )
        assert mask.dtype == bool and mask.shape == (m, k)
        assert np.array_equal(mask, expected)
        assert expected.any() and not expected[q_codes >= 3].any()
        same = codes[neighbor_idx] == q_codes[:, None]
        touching = (ends[neighbor_idx] == q_starts[:, None]) | (
            starts[neighbor_idx] == q_ends[:, None]
        )
        assert (same & touching).any()


class TestEstimateFrequency:
    def test_identical_nonoverlapping_neighbor_counts_one(self):
        v = np.array([0.3, -0.7])
        index = _index_of([(v, (0, 0, 1))])
        f = _soft_counts(index, v, [(1, 0, 1)], k=5, beta=2.0)
        assert f[0] == pytest.approx(1.0, rel=1e-12)

    def test_equidistant_ring_hand_value(self):
        # k neighbours all at squared distance d, beta = 1/d -> k * e^-1
        k, d = 8, 0.49
        base = np.sqrt(d) * np.vstack([np.eye(4), -np.eye(4)])
        index = _index_from(base)
        f = _soft_counts(index, np.zeros(4), [_FRESH], k=k, beta=1.0 / d)
        assert f[0] == pytest.approx(k * math.exp(-1.0), rel=1e-12)

    def test_all_neighbors_overlapping_gives_zero(self):
        v = np.array([1.0, 2.0])
        items = [(v, (0, 0, 3)), (v, (0, 2, 5))]
        index = _index_of(items)
        f = _soft_counts(index, v, [(0, 1, 4)], k=5, beta=1.0)
        assert f[0] == 0.0

    def test_shared_endpoint_is_not_overlap(self):
        v = np.array([1.0, 2.0])
        index = _index_of([(v, (0, 0, 3))])
        f = _soft_counts(index, v, [(0, 3, 5)], k=5, beta=1.0)
        assert f[0] == pytest.approx(1.0)

    def test_bounded_by_k(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=(50, 3)) * 1e-3  # everything close together
        index = _index_from(base)
        f = _soft_counts(index, base[0], [_FRESH], k=7, beta=1e-9)
        assert 0.0 <= f[0] <= 7

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=(60, 5))
        perm = rng.permutation(60)
        q = rng.normal(size=5)
        f1 = _soft_counts(_index_from(base), q, [_FRESH], k=11, beta=0.7)
        f2 = _soft_counts(
            _index_from(base[perm], codes=perm), q, [_FRESH], k=11, beta=0.7
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
            store.add(_key(key), i, 0)
            items.append((np.eye(dim)[key], (i, 0, 1)))
        index = _index_of(items)
        f = _soft_counts(index, np.eye(dim), [_FRESH] * dim, k=50, beta=50.0)
        for key in range(dim):
            exact = store.count_excluding_overlaps(_key(key), *_FRESH)
            assert f[key] == pytest.approx(exact, abs=1e-6)

    def test_streamed_counts_equal_one_shot_query(self, monkeypatch):
        # Blocks of five rows: 23 queries make four whole blocks and a
        # remainder of three.
        n, k, dim = 50, 7, 4
        monkeypatch.setattr(density, "_BLOCK_BYTES", 8 * (n + k) * 5)
        rng = np.random.default_rng(4)
        base = rng.normal(size=(n, dim))
        provenance = [(i % 10, i, i + 2) for i in range(n)]
        index = InstanceIndex(base, *_arrays(provenance))
        # Pool entries under their own provenance (excluded self-matches)
        # and fresh vectors.
        queries = np.vstack([base[:13], rng.normal(size=(10, dim))])
        q_prov = provenance[:13] + [(i, 0, 3) for i in range(10)]
        beta = 0.8
        query = InstanceIndex.query
        calls = []

        def counting(self, queries, k):
            calls.append(len(queries))
            return query(self, queries, k)

        monkeypatch.setattr(InstanceIndex, "query", counting)
        streamed = _soft_counts(index, queries, q_prov, k, beta)
        assert calls == [5, 5, 5, 5, 3]

        idx, d2 = query(index, queries, k)
        weights = np.exp(-beta * d2)
        excluded = index.overlap_mask(idx, *_arrays(q_prov))
        assert excluded.any()
        weights[excluded] = 0.0
        assert np.array_equal(streamed, weights.sum(axis=1))

    def test_peak_memory_bounded_by_block(self):
        # 8000 x 2000 distances are 128 MB; a block is a few MB.
        rng = np.random.default_rng(6)
        n, m, dim = 2000, 8000, 16
        index = _index_from(rng.normal(size=(n, dim)))
        queries = rng.normal(size=(m, dim))
        codes = np.full(m, -1)
        starts = np.zeros(m, dtype=np.int64)
        ends = np.ones(m, dtype=np.int64)
        tracemalloc.start()
        try:
            counts = index.kernel_frequencies_arrays(
                queries, codes, starts, ends, k=100, beta=1.0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (m,)
        assert peak < 16 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"

    def test_query_holds_one_block_at_a_time(self):
        # 2000 rows are 4 blocks of 8 MB: one block plus the 3.2 MB of
        # (m, k) outputs fit the bound, a second block would not.
        rng = np.random.default_rng(8)
        index = _index_from(rng.normal(size=(2000, 16)))
        queries = rng.normal(size=(2000, 16))
        tracemalloc.start()
        try:
            idx, _d2 = index.query(queries, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert idx.shape == (2000, 100)
        assert peak < 16 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"

    def test_calibration_streams_by_block(self):
        # A 2000-row sample of a 2000-entry pool: the calibration holds
        # one distance block and one block's neighbours at a time.
        rng = np.random.default_rng(9)
        index = _index_from(rng.normal(size=(2000, 16)))
        tracemalloc.start()
        try:
            beta = calibrate_beta(index, np.arange(2000), k=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(beta) and beta > 0
        assert peak < 16 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"


class TestCalibrateBeta:
    def _well_separated_sample(self, rng, n=300, dup_fraction=0.5):
        # isolated anchors far apart; a fraction get an exact duplicate
        dim = 6
        anchors = rng.normal(size=(n, dim)) * 50.0
        items = [(anchors[i], (i, 0, 1)) for i in range(n)]
        n_dup = int(n * dup_fraction)
        items += [(anchors[i].copy(), (n + i, 0, 1)) for i in range(n_dup)]
        return items

    def test_monotone_in_beta(self):
        # A wider kernel never counts less: on the same sample, every soft
        # count falls or stays as beta grows.
        rng = np.random.default_rng(0)
        items = self._well_separated_sample(rng, n=200)
        index = _index_of(items)
        queries = index.vectors + rng.normal(size=index.vectors.shape) * 20.0
        provenance = (index.codes, index.starts, index.ends)
        counts = [
            index.kernel_frequencies_arrays(queries, *provenance, k=20, beta=beta)
            for beta in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e6)
        ]
        for wider, narrower in zip(counts, counts[1:]):
            assert np.all(narrower <= wider)
        assert counts[0].min() > 15.0 and counts[-1].max() == 0.0

    def test_tiny_beta_keeps_everything_above_epsilon(self):
        rng = np.random.default_rng(1)
        items = self._well_separated_sample(rng, n=150, dup_fraction=0.0)
        index = _index_of(items)
        queries = [v for v, _ in items[:50]]
        freqs = _soft_counts(index, queries, [_FRESH] * 50, k=10, beta=1e-12)
        # beta -> 0 means every neighbour contributes ~1
        assert all(f > 9.0 for f in freqs)

    def test_small_sample_rejected(self):
        # Under 100 sampled rows there is no width; at 100 there is one.
        rng = np.random.default_rng(3)
        items = self._well_separated_sample(rng, n=120, dup_fraction=0.0)
        index = _index_of(items)
        assert calibrate_beta(index, np.arange(99), k=5) is None
        assert calibrate_beta(index, np.arange(100), k=5) > 0

    @staticmethod
    def _overlapping_sample(rng, n_utterances, per_utterance, spread):
        # Entries of one utterance cluster around its own centre and all
        # cover its block 0, so they overlap one another; the nearest
        # non-overlapping neighbour then sits in another utterance.
        items = []
        for code in range(n_utterances):
            centre = rng.normal(size=5) * spread
            for i in range(per_utterance):
                vector = centre + rng.normal(size=5) * 0.1
                items.append((vector, (code, 0, 1 + i)))
        return items

    @pytest.mark.parametrize("seed, k", [(0, 50), (1, 5), (2, 3)])
    def test_matches_linear_scan_oracle(self, seed, k):
        # Utterances of 3 overlapping entries at nearby centres: with k = 3
        # some rows see only their own utterance and are left out (53 of
        # 120 at seed 2); with k = 5 or 50 every row finds one elsewhere.
        rng = np.random.default_rng(seed)
        items = self._overlapping_sample(rng, 60, 3, spread=0.3)
        index = _index_of(items)
        rows = np.sort(rng.choice(index.n, size=120, replace=False))
        want = oracle_beta(
            index.vectors, index.codes, index.starts, index.ends, rows, k,
            density._BANDWIDTH_SCALE,
        )
        assert want is not None
        got = calibrate_beta(index, rows, k=k)
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero_median_gives_none(self):
        # Most sampled entries have an exact duplicate in another
        # utterance, so the median nearest distance is 0.
        rng = np.random.default_rng(5)
        items = self._well_separated_sample(rng, n=150, dup_fraction=0.6)
        assert calibrate_beta(_index_of(items), np.arange(150), k=10) is None
        # Below half duplicated, the median is a real distance again.
        items = self._well_separated_sample(rng, n=150, dup_fraction=0.4)
        beta = calibrate_beta(_index_of(items), np.arange(150), k=10)
        assert math.isfinite(beta) and beta > 0

    def test_all_neighbours_overlapping_gives_none(self):
        # Each utterance's 4 entries all cover block 0 and lie far from
        # other utterances, so each entry's 3 nearest are its own
        # utterance's: no row has a non-overlapping neighbour.
        rng = np.random.default_rng(6)
        index = _index_of(self._overlapping_sample(rng, 40, 4, spread=1000.0))
        assert calibrate_beta(index, np.arange(index.n), k=3) is None
        # With one more neighbour each row reaches another utterance.
        assert calibrate_beta(index, np.arange(index.n), k=5) > 0

    @pytest.mark.parametrize("scale", [1e-200, 1e-150, 1e-3, 1.0, 1e150])
    def test_beta_finite_at_any_scale(self, scale):
        # beta is never inf or NaN: at 1e-200 the squared distances
        # underflow to 0 and there is no scale to calibrate from.
        rng = np.random.default_rng(7)
        items = self._well_separated_sample(rng, n=150, dup_fraction=0.0)
        index = _index_of([(v * scale, p) for v, p in items])
        beta = calibrate_beta(index, np.arange(150), k=10)
        if scale == 1e-200:
            assert beta is None
        else:
            assert math.isfinite(beta) and beta > 0


class TestDiscreteCounts:
    def test_overlap_is_strict_intersection(self):
        # The production rule: a count leaves out instances in the same
        # utterance (code) whose block interval crosses the queried one.
        store = DiscreteCountStore()
        store.add(b"w", 0, 0)
        assert store.count_excluding_overlaps(b"w", 0, 2, 4) == 1  # shared endpoint
        assert store.count_excluding_overlaps(b"w", 0, 1, 3) == 0
        assert store.count_excluding_overlaps(b"w", 1, 1, 3) == 1  # other utterance

    def test_multiset_count(self):
        store = DiscreteCountStore()
        for i in range(3):
            store.add(_key(1, 2), i, 0)
        store.add(_key(9), 9, 0)
        assert store.count_excluding_overlaps(_key(1, 2), *_FRESH) == 3
        assert store.count_excluding_overlaps(_key(7, 7), *_FRESH) == 0
        assert held_instances(store) == 4

    def test_rebuild_reflects_new_counts(self):
        store = DiscreteCountStore()
        store.add(_key(1), 0, 0)
        rebuilt = DiscreteCountStore()
        rebuilt.add(_key(1), 0, 0)
        rebuilt.add(_key(1), 1, 0)
        assert store.count_excluding_overlaps(_key(1), *_FRESH) == 1
        assert rebuilt.count_excluding_overlaps(_key(1), *_FRESH) == 2

    def test_overlap_exclusion(self):
        store = DiscreteCountStore()
        store.add(_key(5, 5), 0, 0)
        store.add(_key(5, 5), 0, 4)
        store.add(_key(5, 5), 1, 0)
        # query overlapping the first instance only
        assert store.count_excluding_overlaps(_key(5, 5), 0, 1, 3) == 2
        # non-overlapping query keeps everything
        assert store.count_excluding_overlaps(_key(5, 5), 0, 2, 4) == 3

    def test_exclusion_is_per_utterance_code(self):
        # Utterances 0 and 1 both hold [0, 2); a query of [0, 2) drops only
        # its own utterance's instance, and one of utterance 2 drops none.
        store = DiscreteCountStore()
        store.add(_key(5, 5), 0, 0)
        store.add(_key(5, 5), 1, 0)
        assert store.count_excluding_overlaps(_key(5, 5), 1, 0, 2) == 1
        assert store.count_excluding_overlaps(_key(5, 5), 2, 0, 2) == 2

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        # Keys of 1-3 symbols over 3 symbols, codes 0-3 and starts 0-10, so
        # keys repeat, intervals cross and endpoints touch.  Adds come in
        # (code, start) order, the candidate-table order the trainer adds in.
        word = st.lists(st.integers(0, 2), min_size=1, max_size=3)
        drawn = data.draw(
            st.lists(st.tuples(word, st.integers(0, 3), st.integers(0, 10)),
                     min_size=1, max_size=30)
        )
        instances = [(_key(*w), c, s, s + len(w)) for w, c, s in drawn]
        instances += instances[: data.draw(st.integers(1, len(instances)))]
        store = DiscreteCountStore()
        for key, code, start, _end in sorted(instances, key=lambda i: i[1:3]):
            store.add(key, code, start)
        assert held_instances(store) == len(instances)
        queries = [
            (_key(*w), c, s, s + len(w))
            for w, c, s in data.draw(
                st.lists(st.tuples(word, st.integers(0, 4), st.integers(0, 10)))
            )
        ]
        for key, code, start, end in instances:
            queries.append((key, code, start, end))  # the instance itself
            queries.append((key, code, end, 2 * end - start))  # shared endpoint
            queries.append((key, 4, start, end))  # a code with no instances
        for query in queries:
            expected = count_excluding_overlaps(instances, *query)
            assert store.count_excluding_overlaps(*query) == expected, query

    def test_peak_memory_per_instance(self):
        # All 78 candidates of 1000 utterances of 12 symbols, drawn as words
        # of a 50-word Zipfian lexicon as synthgen draws them: 78,000 adds
        # of 22k distinct keys (the disc-decode base pool has 13k).
        rng = np.random.default_rng(8)
        words = [rng.integers(0, 20, size=rng.integers(2, 7)) for _ in range(50)]
        p = 1.0 / np.arange(1, 51)
        picks = rng.choice(50, size=(1000, 12), p=p / p.sum())
        utterances = [
            np.concatenate([words[w] for w in row])[:12].astype("<i4").tobytes()
            for row in picks
        ]
        store = DiscreteCountStore()
        tracemalloc.start()
        try:
            for code, raw in enumerate(utterances):
                for a in range(12):
                    for b in range(a + 1, 13):
                        store.add(raw[4 * a : 4 * b], code, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held_instances(store) == 78_000
        assert peak < 8 * 1024 * 1024, f"peak {peak / 2**20:.1f} MB"


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

    def test_frequencies_before_fit_refused(self):
        with pytest.raises(RuntimeError, match="model not fitted"):
            KMeansModel(2).frequencies(np.zeros((1, 2)))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 4))
        m1 = KMeansModel(5, seed=7).fit(pts)
        m2 = KMeansModel(5, seed=7).fit(pts)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(m1.cluster_sizes, m2.cluster_sizes)
