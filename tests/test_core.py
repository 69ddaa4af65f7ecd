import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse.core import (
    Corpus,
    FrameMatrix,
    Segment,
    Segmentation,
    SymbolSequence,
    ms_to_end_block,
    ms_to_start_block,
    pair_frames,
    untileable_utterances,
    validate_corpus,
)
from dpparse.density import DiscreteCountStore


def _corpus(matrices):
    return Corpus([FrameMatrix(f"u{i}", m) for i, m in enumerate(matrices)])


class TestValidateCorpus:
    def test_valid_corpus_empty_report(self):
        rng = np.random.default_rng(0)
        corpus = _corpus([rng.normal(size=(10, 8))])
        assert validate_corpus(corpus).ok

    def test_nan_reported_with_utterance_id(self):
        bad = np.zeros((4, 3))
        bad[2, 1] = np.nan
        corpus = Corpus([FrameMatrix("good", np.ones((3, 3))), FrameMatrix("nan_utt", bad)])
        report = validate_corpus(corpus)
        assert not report.ok
        assert any(utt == "nan_utt" for utt, _ in report.issues)

    def test_duplicate_id_reported(self):
        corpus = Corpus(
            [FrameMatrix("dup", np.ones((2, 2))), FrameMatrix("dup", np.ones((2, 2)))]
        )
        report = validate_corpus(corpus)
        assert any("duplicate" in msg for _, msg in report.issues)

    def test_dim_mismatch_reported(self):
        corpus = _corpus([np.ones((2, 3)), np.ones((2, 4))])
        report = validate_corpus(corpus)
        assert any("dim" in msg for _, msg in report.issues)

    def test_discrete_corpus(self):
        corpus = Corpus([SymbolSequence("t0", [0, 1, 2])], mode="discrete")
        assert validate_corpus(corpus).ok


class TestPairFrames:
    def test_even_rows(self):
        frames = np.arange(12, dtype=np.float32).reshape(4, 3)
        fm = pair_frames(frames, "u")
        assert fm.n_blocks == 2 and fm.dim == 6
        assert np.array_equal(fm.data[0], np.arange(6))
        assert np.array_equal(fm.data[1], np.arange(6, 12))

    def test_odd_trailing_row_dropped(self):
        frames = np.arange(15, dtype=np.float32).reshape(5, 3)
        fm = pair_frames(frames, "u")
        assert fm.n_blocks == 2 and fm.dim == 6
        assert np.array_equal(fm.data[1], np.arange(6, 12))

    def test_single_row_errors(self):
        with pytest.raises(ValueError, match="too short"):
            pair_frames(np.ones((1, 3)), "u")


class TestSegment:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Segment("u", 3, 3)
        with pytest.raises(ValueError):
            Segment("u", -1, 2)

    def test_overlap_is_strict_intersection(self):
        # The production rule: a count leaves out instances in the same
        # utterance (code) whose block interval crosses the queried one.
        store = DiscreteCountStore()
        store.add(b"w", 0, 0, 2)
        assert store.count_excluding_overlaps(b"w", 0, 2, 4) == 1  # shared endpoint
        assert store.count_excluding_overlaps(b"w", 0, 1, 3) == 0
        assert store.count_excluding_overlaps(b"w", 1, 1, 3) == 1  # other utterance


class TestSegmentation:
    def test_valid_covering(self):
        corpus = _corpus([np.ones((5, 2))])
        seg = Segmentation({"u0": [Segment("u0", 0, 2), Segment("u0", 2, 5)]})
        assert seg.validate(corpus) == []
        assert seg.boundaries("u0") == (0, 2, 5)

    def test_gap_detected(self):
        corpus = _corpus([np.ones((5, 2))])
        seg = Segmentation({"u0": [Segment("u0", 0, 2), Segment("u0", 3, 5)]})
        assert seg.validate(corpus)

    def test_short_coverage_detected(self):
        corpus = _corpus([np.ones((5, 2))])
        seg = Segmentation({"u0": [Segment("u0", 0, 2)]})
        assert seg.validate(corpus)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_lengths_reproduce_n_blocks(self, lengths):
        n = sum(lengths)
        bounds = (0,) + tuple(int(b) for b in np.cumsum(lengths))
        seg = Segmentation.from_boundaries({"u": bounds})
        assert sum(s.length for s in seg["u"]) == n
        assert seg.boundaries("u") == bounds


def test_ms_block_conversion_round_trips_block_grid():
    for block in (0, 1, 3, 17):
        assert ms_to_start_block(block * 40.0) == block
        assert ms_to_end_block(block * 40.0) == block
    # off-grid values: floor for starts, ceil for ends
    assert ms_to_start_block(75.0) == 1
    assert ms_to_end_block(75.0) == 2


def test_short_utterances_filter():
    corpus = _corpus([np.ones((1, 2)), np.ones((4, 2))])
    assert untileable_utterances(corpus, 2, 20) == ["u0"]
    assert untileable_utterances(corpus, 1, 20) == []
    # Both bounds: 4 blocks are neither one segment of 3 nor two; 5 blocks
    # are neither one segment of 3..4 nor two (6..8); 6 blocks are 3 + 3.
    corpus = _corpus([np.ones((n, 2)) for n in (4, 6, 3, 5)])
    assert untileable_utterances(corpus, 3, 3) == ["u0", "u3"]
    assert untileable_utterances(corpus, 3, 4) == ["u3"]
    assert untileable_utterances(corpus, 2, 3) == []


def test_corpus_position_follows_corpus_order():
    corpus = Corpus([SymbolSequence(uid, [0]) for uid in ("c", "a", "b")], "discrete")
    assert [corpus.position(uid) for uid in ("a", "b", "c")] == [1, 2, 0]
    assert corpus.utterance("b") is corpus.utterances[2]
