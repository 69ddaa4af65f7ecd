from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse.core import Corpus, FrameMatrix, SymbolSequence
from dpparse.density import DiscreteCountStore
from dpparse.embed import UtteranceEmbedder
from dpparse.trainer import TrainerConfig, _tables_for, build_base, candidate_table

from oracles import held_instances, subspan_sums


def _embed(fm, start, end):
    """embed_many on one row of a one-utterance embedder."""
    embedder = UtteranceEmbedder([fm])
    return embedder.embed_many(np.array([0]), np.array([start]), np.array([end]))[0]


class TestMeanPool:
    # Named for the mean pooling the embedder once did; each test now
    # checks the sub-span sums against ``oracles.subspan_sums``.

    def test_single_block_identity(self):
        # One block: parts 0-2 are empty, part 3 is the block itself.
        fm = FrameMatrix("u", np.array([[1.0, 2.0], [5.0, 7.0]]))
        out = _embed(fm, 1, 2)
        assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 7.0])
        assert np.array_equal(out, subspan_sums(fm.data, 1, 2))

    def test_two_block_mean(self):
        # Two blocks fall in parts 1 and 3, so the parts add up to twice
        # the mean.
        fm = FrameMatrix("u", np.array([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]))
        out = _embed(fm, 0, 2)
        assert np.allclose(out, subspan_sums(fm.data, 0, 2), rtol=0, atol=1e-12)
        assert np.allclose(out.reshape(4, 3).sum(axis=0), 2 * fm.data.mean(axis=0))

    def test_constant_matrix_any_segment(self):
        fm = FrameMatrix("u", np.full((6, 4), 1.5))
        for start, end in ((0, 6), (2, 3), (1, 5)):
            out = _embed(fm, start, end).reshape(4, 4)
            widths = np.diff((end - start) * np.arange(5) // 4)
            assert np.allclose(out, 1.5 * widths[:, None])
            assert np.allclose(out.ravel(), subspan_sums(fm.data, start, end))

    def test_out_of_bounds(self):
        fm = FrameMatrix("u", np.ones((3, 2)))
        with pytest.raises(IndexError, match="out of bounds"):
            _embed(fm, 1, 4)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(0)
        fm = FrameMatrix("u", rng.normal(size=(9, 5)))
        a = _embed(fm, 2, 7)
        b = _embed(fm, 2, 7)
        assert a.tobytes() == b.tobytes()

    @given(st.integers(2, 6), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_repeated_blocks_scale_invariance(self, k, seed):
        # k copies of one block: each part is the block times its width,
        # so the parts sum to k times the one-block embedding's.
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(1, 4))
        fm = FrameMatrix("u", np.repeat(block, k, axis=0))
        one = _embed(FrameMatrix("u", block), 0, 1).reshape(4, 4).sum(axis=0)
        many = _embed(fm, 0, k)
        assert np.allclose(many.reshape(4, 4).sum(axis=0), k * one, rtol=1e-12)
        assert np.allclose(many, subspan_sums(fm.data, 0, k), rtol=1e-12, atol=1e-12)


class TestBatchEmbedder:
    def test_matches_direct_mean(self):
        # Named for the mean it once matched; now the sub-span oracle.
        rng = np.random.default_rng(2)
        fm = FrameMatrix("u", rng.normal(size=(20, 6)))
        emb = UtteranceEmbedder([fm])
        starts = np.array([0, 3, 10])
        ends = np.array([5, 4, 20])
        batch = emb.embed_many(np.zeros(3, dtype=int), starts, ends)
        assert batch.shape == (3, 4 * 6)
        for row, (a, b) in zip(batch, zip(starts, ends)):
            assert np.allclose(row, subspan_sums(fm.data, a, b), rtol=1e-10, atol=1e-12)

    def _utterances(self):
        rng = np.random.default_rng(4)
        return [
            FrameMatrix(f"u{i}", rng.normal(size=(n, 3)))
            for i, n in enumerate((5, 1, 8))
        ]

    def test_many_utterances_match_direct_means(self):
        utterances = self._utterances()
        segments = [
            (code, a, b)
            for code, utt in enumerate(utterances)
            for a in range(utt.n_blocks)
            for b in range(a + 1, utt.n_blocks + 1)
        ]
        codes, starts, ends = np.array(segments).T
        batch = UtteranceEmbedder(utterances).embed_many(codes, starts, ends)
        for row, (code, a, b) in zip(batch, segments):
            direct = subspan_sums(utterances[code].data, a, b)
            assert np.allclose(row, direct, rtol=1e-10, atol=1e-12)
            # bit for bit what a one-utterance embedder gives
            assert row.tobytes() == _embed(utterances[code], a, b).tobytes()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_segments_match_subspan_oracle(self, data):
        # Any segments of any utterances, 1-3 block ones included, whose
        # empty parts must be exactly zero.
        sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        utterances = [
            FrameMatrix(f"u{i}", rng.normal(size=(n, 3))) for i, n in enumerate(sizes)
        ]
        segments = []
        for _ in range(data.draw(st.integers(1, 20))):
            code = data.draw(st.integers(0, len(sizes) - 1))
            a = data.draw(st.integers(0, sizes[code] - 1))
            b = data.draw(st.integers(a + 1, sizes[code]))
            segments.append((code, a, b))
        codes, starts, ends = np.array(segments).T
        batch = UtteranceEmbedder(utterances).embed_many(codes, starts, ends)
        for row, (code, a, b) in zip(batch, segments):
            direct = subspan_sums(utterances[code].data, a, b)
            empty = np.repeat(np.diff((b - a) * np.arange(5) // 4) == 0, 3)
            assert np.all(row[empty] == 0.0)
            assert np.allclose(row, direct, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "code, start, end", [(0, 3, 6), (1, 0, 2), (2, -1, 2), (0, 2, 2)]
    )
    def test_segment_outside_its_utterance_refused(self, code, start, end):
        # The stacked sums of the next utterance must never be read.
        embedder = UtteranceEmbedder(self._utterances())
        message = rf"\[{start}, {end}\) is empty or out of bounds"
        with pytest.raises(IndexError, match=message):
            embedder.embed_many(np.array([code]), np.array([start]), np.array([end]))


@dataclass
class _BaseStore:
    """A discrete base store and the type table that keys it."""

    store: DiscreteCountStore
    type_of: dict[bytes, int]  # symbol string -> candidate type id

    @property
    def total(self):
        return held_instances(self.store)


def _base_store(*utterances, max_len=3):
    """The discrete base store of every candidate of ``utterances``."""
    corpus = Corpus(
        [SymbolSequence(f"u{i}", s) for i, s in enumerate(utterances)],
        mode="discrete",
    )
    config = TrainerConfig(max_len=max_len)
    table = candidate_table(corpus, config.min_len, config.max_len)
    tables = _tables_for(corpus, config, table)
    store, _probs, _beta, _n_base = build_base(tables, config)
    type_of = {}
    for code, a, b, type_id in zip(
        table.codes.tolist(), table.starts.tolist(), table.ends.tolist(),
        table.type_ids.tolist(),
    ):
        type_of[corpus.utterances[code].symbols[a:b].tobytes()] = type_id
    return _BaseStore(store, type_of)


def _count(base, symbols, provenance=(-1, 0, 1)):
    """Instances of ``symbols`` in ``base`` that do not overlap
    ``provenance`` (utterance position, start, end); by default an
    interval of no utterance in the store.  The key is the type id the
    type table gives the symbol string."""
    key = base.type_of[np.array(symbols, dtype="<i4").tobytes()]
    return base.store.count_excluding_overlaps(key, *provenance)


class TestDiscreteKeys:
    # Discrete candidates are counted by the exact symbol string they cover.

    def test_substring_keys(self):
        store = _base_store([3, 14, 6, 18, 4, 4])
        assert _count(store, (3, 14, 6)) == 1
        assert _count(store, (18, 4, 4)) == 1
        assert _count(store, (4, 4)) == 1
        assert _count(store, (4,)) == 2

    def test_equality_by_value(self):
        store = _base_store([1, 2, 1, 2])
        # [0, 2) and [2, 4) cover equal strings: one key, counted twice
        assert _count(store, (1, 2)) == 2
        assert _count(store, (1, 2), (0, 0, 2)) == 1

    def test_out_of_bounds(self):
        # max_len reaches past the utterance; no key may read past its end
        store = _base_store([1, 2, 3], max_len=20)
        assert store.total == 6  # 3 + 2 + 1 in-bounds candidates
        assert _count(store, (1, 2, 3)) == 1
