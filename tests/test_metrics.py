import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse.core import Corpus, FrameMatrix, GoldAlignment, Segmentation
from dpparse.metrics import _snapper, fixed_rate_segmenter, token_boundary_f1


def _phones(edges, labels=None):
    return [
        (a, b, labels[i] if labels else None)
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
    ]


class TestSnapBoundaries:
    """``_snapper(phones)``, the snapping that ``token_boundary_f1`` runs."""

    def test_more_than_30ms_snaps_to_end(self):
        snap = _snapper(_phones([0.0, 80.0, 160.0]))
        assert snap(115.0) == 160.0  # 35ms into [80,160)

    def test_more_than_half_snaps_to_end(self):
        snap = _snapper(_phones([0.0, 30.0, 200.0]))
        assert snap(20.0) == 30.0  # 20 > 15 = half of 30

    def test_neither_condition_snaps_to_start(self):
        snap = _snapper(_phones([0.0, 100.0, 200.0]))
        assert snap(110.0) == 100.0  # 10ms into [100,200)

    def test_exactly_30ms_stays_before(self):
        # strict ">": 30ms into a 100ms phone goes to the start
        snap = _snapper(_phones([0.0, 100.0, 200.0]))
        assert snap(130.0) == 100.0

    def test_boundary_on_edge_unchanged(self):
        snap = _snapper(_phones([0.0, 40.0, 80.0]))
        assert [snap(b) for b in (40.0, 80.0, 0.0)] == [40.0, 80.0, 0.0]

    def test_idempotent(self):
        snap = _snapper(_phones([0.0, 70.0, 120.0, 260.0]))
        once = [snap(b) for b in (10.0, 100.0, 200.0)]
        assert [snap(b) for b in once] == once

    def test_no_phones_leaves_boundaries_unsnapped(self):
        # [] from a caller, None for an utterance the alignment has no
        # phones for
        for phones in ([], None):
            assert _snapper(phones)(115.0) == 115.0

    def test_outside_coverage_rejected(self):
        snap = _snapper(_phones([0.0, 80.0]))
        with pytest.raises(ValueError, match="coverage"):
            snap(90.0)


def _gold(words_blocks, utt="u"):
    words = [(a * 40.0, b * 40.0) for a, b in words_blocks]
    edges = [w[0] for w in words] + [words[-1][1]]
    phones = _phones(sorted({e for w in words for e in w} | set(np.arange(0, words[-1][1] + 1, 40.0))))
    return GoldAlignment(words={utt: words}, phones={utt: phones})


class TestTokenBoundaryF1:
    def test_perfect_hypothesis(self):
        gold = _gold([(0, 2), (2, 4)])
        hyp = Segmentation({"u": (0, 2, 4)})
        r = token_boundary_f1(hyp, gold)
        assert (
            r.token_precision,
            r.token_recall,
            r.token_f1,
            r.boundary_precision,
            r.boundary_recall,
            r.boundary_f1,
        ) == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_whole_utterance_token_has_no_boundaries(self):
        gold = _gold([(0, 2), (2, 4)])
        hyp = Segmentation({"u": (0, 4)})
        r = token_boundary_f1(hyp, gold)
        assert r.token_f1 == 0.0
        assert r.boundary_recall == 0.0
        assert r.boundary_f1 == 0.0

    def test_hand_counted_example(self):
        # gold [0,2),[2,4); hyp [0,1),[1,2),[2,4)
        gold = _gold([(0, 2), (2, 4)])
        hyp = Segmentation({"u": (0, 1, 2, 4)})
        r = token_boundary_f1(hyp, gold)
        assert r.token_precision == pytest.approx(1 / 3)
        assert r.token_recall == pytest.approx(1 / 2)
        assert r.token_f1 == pytest.approx(0.4)
        assert r.boundary_precision == pytest.approx(1 / 2)
        assert r.boundary_recall == pytest.approx(1.0)
        assert r.boundary_f1 == pytest.approx(2 / 3)

    def test_missing_gold_rejected(self):
        hyp = Segmentation({"v": (0, 1)})
        with pytest.raises(ValueError, match="missing gold"):
            token_boundary_f1(hyp, GoldAlignment(words={"u": [(0.0, 40.0)]}))

    def test_snapping_repairs_near_boundary(self):
        # hyp boundary 10ms into the phone after the true edge snaps back
        gold = GoldAlignment(
            words={"u": [(0.0, 80.0), (80.0, 160.0)]},
            phones={"u": _phones([0.0, 40.0, 80.0, 120.0, 160.0])},
        )
        # hyp token edges at 0/80/160 exactly: perfect after snapping
        hyp = Segmentation({"u": (0, 2, 4)})
        assert token_boundary_f1(hyp, gold).token_f1 == 1.0

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=8), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_gold_vs_gold_is_perfect(self, lengths, seed):
        bounds = (0,) + tuple(int(b) for b in np.cumsum(lengths))
        words = list(zip(bounds[:-1], bounds[1:]))
        gold = _gold(words)
        hyp = Segmentation({"u": bounds})
        r = token_boundary_f1(hyp, gold)
        assert r.token_f1 == 1.0 and r.boundary_f1 in (1.0, 0.0)
        # boundary F1 is 0/0 -> 0 only for single-word utterances
        assert (r.boundary_f1 == 1.0) == (len(words) > 1)


class TestFixedRate:
    def _corpus(self, n_blocks):
        return Corpus([FrameMatrix("u", np.ones((n_blocks, 2)))])

    def test_residue_becomes_short_last_token(self):
        seg = fixed_rate_segmenter(self._corpus(7), 3)
        assert seg.boundaries("u") == (0, 3, 6, 7)

    def test_exact_multiple(self):
        seg = fixed_rate_segmenter(self._corpus(3), 3)
        assert seg.boundaries("u") == (0, 3)

    def test_covers_corpus(self):
        corpus = self._corpus(11)
        seg = fixed_rate_segmenter(corpus, 3)
        assert seg.validate(corpus) == []
