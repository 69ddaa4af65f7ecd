import math
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpparse import lattice as lattice_module
from dpparse.lattice import (
    ScoredLattice,
    candidate_bounds,
    n_candidates,
    nbest,
    predecessors,
    sample_path,
)

from oracles import beam_paths, enumerate_paths


def _lattice(n_blocks, score_fn, min_len=1, max_len=20):
    """Lattice whose arc (i, j) scores ``score_fn(i, j)``."""
    starts, ends = candidate_bounds(n_blocks, min_len, max_len)
    scores = [float(score_fn(int(i), int(j))) for i, j in zip(starts, ends)]
    return ScoredLattice(n_blocks, min_len, max_len, scores)


def _arc_dict(lat):
    """{(i, j): score} of a lattice, for the exhaustive oracle."""
    starts, ends = candidate_bounds(lat.n_blocks, lat.min_len, lat.max_len)
    return dict(zip(zip(starts.tolist(), ends.tolist()), lat.scores))


def _bits(paths):
    """Paths with their totals as exact bit strings (-0.0 is not 0.0)."""
    return [(bounds, score.hex()) for bounds, score in paths]


def _matches_beam_spec(lat, beam):
    """nbest returns exactly what ``beam_paths`` returns, score bits
    included, when its best two paths are read before it resumes."""
    arcs = _arc_dict(lat)
    want = beam_paths(lat.n_blocks, arcs, lat.min_len, lat.max_len, beam)
    result = nbest(lat, beam)
    first = [result.boundaries(i) for i in range(min(2, len(want)))]
    return first == [b for b, _ in want[:2]] and _bits(result.paths) == _bits(want)


def _bisect_draw(lat, beam, temperature, u):
    """The path a bisect of the full softmax CDF of ``beam_paths`` draws,
    and that CDF."""
    want = beam_paths(
        lat.n_blocks, _arc_dict(lat), lat.min_len, lat.max_len, beam
    )
    logits = np.array([s for _, s in want]) / temperature
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    cum = np.cumsum(probs).tolist()
    return want[min(bisect_right(cum, u), len(cum) - 1)][0], cum


@pytest.fixture
def resumes(monkeypatch):
    """Counts the searches that an N-best list resumes."""
    calls = []
    search = lattice_module._search

    def spy(*args):
        calls.append(args[-1])
        return search(*args)

    monkeypatch.setattr(lattice_module, "_search", spy)
    return lambda: sum(calls)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _random_lattice(rng, n_blocks, min_len=1, max_len=None):
    max_len = max_len or n_blocks
    return _lattice(
        n_blocks, lambda i, j: float(rng.normal()), min_len=min_len, max_len=max_len
    )


class TestBuildLattice:
    def test_six_block_lattice_bounds_two_to_six(self):
        lat = _lattice(6, lambda i, j: 0.0, min_len=2, max_len=6)
        expected = {
            (i, i + length)
            for length in range(2, 7)
            for i in range(0, 6 - length + 1)
        }
        assert set(_arc_dict(lat)) == expected
        assert lat.n_arcs == 15  # lengths 2..6 at every admissible offset

    def test_single_block(self):
        lat = _lattice(1, lambda i, j: 1.5, min_len=1, max_len=20)
        assert _arc_dict(lat) == {(0, 1): 1.5}

    def test_arc_count_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            k = int(rng.integers(1, 22))
            lat = _lattice(n, lambda i, j: 0.0, min_len=1, max_len=k)
            expected = sum(max(0, n - length + 1) for length in range(1, k + 1))
            assert lat.n_arcs == expected

    def test_too_short_utterance(self):
        with pytest.raises(ValueError, match="shorter than minimum"):
            ScoredLattice(1, 2, 6, [])

    def test_each_arc_scored_once(self):
        starts, ends = candidate_bounds(5, 1, 5)
        arcs = list(zip(starts.tolist(), ends.tolist()))
        assert len(arcs) == len(set(arcs))
        with pytest.raises(ValueError, match="arc scores"):
            ScoredLattice(5, 1, 5, [0.0] * (len(arcs) + 1))


class TestPredecessors:
    @pytest.mark.parametrize(
        "n_blocks,min_len,max_len", [(1, 1, 20), (7, 1, 3), (9, 2, 4), (6, 3, 3)]
    )
    def test_nearest_first_and_positions_index_candidate_bounds(
        self, n_blocks, min_len, max_len
    ):
        starts, ends = candidate_bounds(n_blocks, min_len, max_len)
        table = predecessors(n_blocks, min_len, max_len)
        assert len(table) == n_blocks + 1
        for j, positions in enumerate(table):
            sources = [starts[o] for o in positions]
            assert sources == sorted(
                i for i in range(j) if min_len <= j - i <= max_len
            )[::-1]
            for r, o in enumerate(positions):
                assert (starts[o], ends[o]) == (j - min_len - r, j)
        # every arc is some node's incoming arc exactly once
        positions = sorted(o for row in table for o in row)
        assert positions == list(range(len(starts)))


class TestNBest:
    def test_single_path_lattice(self):
        lat = _lattice(4, lambda i, j: -1.0, min_len=4, max_len=4)
        for beam in (1, 5, 100):
            result = nbest(lat, beam)
            assert result.paths == [((0, 4), -1.0)]

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(7)
        lat = _random_lattice(rng, 4, 1, 4)
        oracle = enumerate_paths(4, _arc_dict(lat), 1, 4)
        assert len(oracle) == 8  # compositions of 4
        result = nbest(lat, beam=100)
        assert len(result.paths) == 8
        for (b1, s1), (b2, s2) in zip(result.paths, oracle):
            assert b1 == b2
            assert s1 == pytest.approx(s2, abs=1e-9)

    def test_all_zero_scores_tie_breaking(self):
        lat = _lattice(3, lambda i, j: 0.0, min_len=1, max_len=3)
        result = nbest(lat, beam=10)
        assert all(s == 0.0 for _, s in result.paths)
        # fewer segments first, then lexicographically smallest boundaries
        assert result.paths[0][0] == (0, 3)
        assert result.paths[1][0] == (0, 1, 3)
        assert result.paths[2][0] == (0, 2, 3)
        assert result.paths[3][0] == (0, 1, 2, 3)

    def test_small_beam_returns_valid_paths(self):
        rng = np.random.default_rng(1)
        lat = _random_lattice(rng, 8)
        arcs = _arc_dict(lat)
        result = nbest(lat, beam=3)
        assert 1 <= len(result.paths) <= 3
        for bounds, score in result.paths:
            assert bounds[0] == 0 and bounds[-1] == 8
            assert score == pytest.approx(
                sum(arcs[(a, b)] for a, b in zip(bounds[:-1], bounds[1:])),
                abs=1e-9,
            )

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(2)
        lat = _random_lattice(rng, 9)
        result = nbest(lat, beam=50)
        scores = [s for _, s in result.paths]
        assert scores == sorted(scores, reverse=True)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        min_len = int(rng.integers(1, 3))
        if n < min_len:
            n = min_len
        max_len = int(rng.integers(min_len, n + 1))
        lat = _random_lattice(rng, n, min_len, max_len)
        oracle = enumerate_paths(n, _arc_dict(lat), min_len, max_len)
        if not oracle:
            with pytest.raises(ValueError, match="no complete"):
                nbest(lat, beam=len(oracle) + 1)
            return
        result = nbest(lat, beam=max(1, len(oracle)))
        assert [b for b, _ in result.paths] == [b for b, _ in oracle]
        for (_, s1), (_, s2) in zip(result.paths, oracle):
            assert s1 == pytest.approx(s2, abs=1e-9)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_beam_with_ties_matches_oracle(self, data):
        # Every sum of these scores is exact, so equal totals tie exactly and
        # the tie-breaks decide which paths a truncated beam keeps.
        n = data.draw(st.integers(1, 10))
        min_len = data.draw(st.integers(1, n))
        max_len = data.draw(st.integers(min_len, n))
        n_arcs = n_candidates(n, min_len, max_len)
        arc_scores = st.sampled_from([0.0, -0.5, -1.0, -2.0])
        scores = data.draw(st.lists(arc_scores, min_size=n_arcs, max_size=n_arcs))
        lat = ScoredLattice(n, min_len, max_len, scores)
        oracle = enumerate_paths(n, _arc_dict(lat), min_len, max_len)
        assume(oracle)
        beam = data.draw(st.integers(1, len(oracle)))
        assert nbest(lat, beam).paths == oracle[:beam]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_truncated_beam_with_rounding_ties_matches_full_ranking(self, data):
        # 1e17 absorbs the small scores (its spacing is 16), so different
        # prefix totals become equal once an arc is added; the tie-breaks
        # then decide which of them a node keeps at the cut.
        n = data.draw(st.integers(1, 9))
        min_len = data.draw(st.integers(1, n))
        max_len = data.draw(st.integers(min_len, n))
        n_arcs = n_candidates(n, min_len, max_len)
        arc_scores = st.sampled_from([0.0, -1.0, -2.0, 1e17, -1e17])
        scores = data.draw(st.lists(arc_scores, min_size=n_arcs, max_size=n_arcs))
        lat = ScoredLattice(n, min_len, max_len, scores)
        assume(enumerate_paths(n, _arc_dict(lat), min_len, max_len))
        beam = data.draw(st.integers(1, 12))
        assert _matches_beam_spec(lat, beam)

    def test_tie_after_the_next_arc_favours_the_lower_ranked_prefix(self):
        # At node 3, (0, 2, 3) totals -1 and outranks (0, 1, 3) at -2; both
        # have two segments.  Adding the 1e17 arc (3, 4) rounds both totals
        # to 1e17, so at node 4 the smaller boundaries rank first: the
        # stream from node 3 is no longer sorted.  (0, 1, 2, 3) at -6 ties
        # too, with one segment more.
        arcs = {
            (0, 1): 0.0, (1, 2): -5.0, (2, 3): -1.0, (3, 4): 1e17,
            (0, 2): 0.0, (1, 3): -2.0, (2, 4): -1e17,
        }
        lat = _lattice(4, lambda i, j: arcs[(i, j)], min_len=1, max_len=2)
        expected = {
            1: [(0, 2, 3, 4)],  # node 3 kept only (0, 2, 3)
            2: [(0, 1, 3, 4), (0, 2, 3, 4)],
            3: [(0, 1, 3, 4), (0, 2, 3, 4), (0, 1, 2, 3, 4)],
        }
        for beam, paths in expected.items():
            assert [b for b, _ in nbest(lat, beam).paths] == paths
            assert _matches_beam_spec(lat, beam)

    def test_tie_in_a_stream_below_the_top_entry(self):
        # Node 2 ranks (0, 1, 2) at 0 above (0, 2) at -1.  The -1e17 arc
        # (2, 3) rounds both to -1e17, where (0, 1, 3) also lands: three
        # entries of node 3 tie, and the stream from node 2 must push its
        # second prefix, which has fewer segments than its first, before
        # node 3 takes anything at that total.
        arcs = {
            (0, 1): -1e17, (0, 2): -1.0, (1, 2): 1e17, (1, 3): -2.0,
            (2, 3): -1e17,
        }
        lat = _lattice(3, lambda i, j: arcs[(i, j)], min_len=1, max_len=2)
        assert [b for b, _ in nbest(lat, 3).paths] == [
            (0, 1, 3), (0, 2, 3), (0, 1, 2, 3)
        ]
        for beam in (1, 2, 3):
            assert _matches_beam_spec(lat, beam)

    @pytest.mark.parametrize("score", [0.0, -1.0, -0.1, 3.0])
    def test_all_equal_scores_match_beam_spec(self, score):
        for n, min_len, max_len in ((10, 1, 4), (12, 2, 5), (9, 1, 9)):
            lat = _lattice(n, lambda i, j: score, min_len, max_len)
            for beam in (1, 3, 10):
                assert _matches_beam_spec(lat, beam)

    def test_discrete_style_tied_scores_match_beam_spec(self):
        # Scores as discrete mode makes them: log count ratios from a few
        # counts plus a length term, so equal arcs are common and sums of
        # the same arcs in another order can differ in their last bit.
        rng = np.random.default_rng(19)
        starts, ends = candidate_bounds(12, 1, 12)
        length_term = ((ends - starts - 1) / 2.0) ** 1.8
        counts = np.array([1.0, 2.0, 3.0, 5.0, 8.0])
        for _ in range(200):
            scores = np.log(rng.choice(counts, size=len(starts)) / 61.0) - length_term
            lat = ScoredLattice(12, 1, 12, scores.tolist())
            assert _matches_beam_spec(lat, 10)

    @pytest.mark.parametrize("kind", ["random", "all-equal"])
    def test_long_utterance_matches_beam_spec_without_deep_calls(self, kind):
        rng = np.random.default_rng(23)
        n = 2000
        if kind == "random":
            lat = _lattice(n, lambda i, j: rng.normal(-3.0, 1.0), 1, 20)
        else:
            lat = _lattice(n, lambda i, j: -1.0, 1, 20)
        want = beam_paths(n, _arc_dict(lat), 1, 20, 10)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 50)
        try:
            got = nbest(lat, 10).paths
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_memo_returns_the_stored_list(self):
        rng = np.random.default_rng(4)
        lat = _random_lattice(rng, 7)
        memo = {}
        first = nbest(lat, 5, memo)
        again = nbest(ScoredLattice(7, 1, 7, list(lat.scores)), 5, memo)
        assert again is first and len(memo) == 1
        assert first.paths == nbest(lat, 5).paths
        # another beam, or a score that differs only in its sign bit, is
        # another search
        assert nbest(lat, 4, memo) is not first
        zeros = _lattice(3, lambda i, j: 0.0, 1, 3)
        signed = _lattice(3, lambda i, j: -0.0 if (i, j) == (0, 3) else 0.0, 1, 3)
        assert nbest(signed, 5, memo) is not nbest(zeros, 5, memo)
        assert len(memo) == 4

    def test_best_score_monotone_in_arc_score(self):
        rng = np.random.default_rng(3)
        lat = _random_lattice(rng, 6)
        best = nbest(lat, 1).paths[0][1]
        bumped = _arc_dict(lat)
        bumped[(0, 3)] = bumped[(0, 3)] + 5.0
        lat2 = _lattice(6, lambda i, j: bumped[(i, j)], 1, 6)
        assert nbest(lat2, 1).paths[0][1] >= best


class TestPausedSearch:
    @pytest.mark.parametrize("beam", [1, 2, 3, 10])
    def test_random_lattices_read_after_the_pause_match_beam_spec(self, beam):
        rng = np.random.default_rng(29)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            lat = _random_lattice(rng, n, 1, int(rng.integers(1, n + 1)))
            assert _matches_beam_spec(lat, beam)

    def test_best_two_boundaries_do_not_resume(self, resumes):
        rng = np.random.default_rng(31)
        lat = _random_lattice(rng, 8)
        want = beam_paths(8, _arc_dict(lat), 1, 8, 10)
        result = nbest(lat, 10)
        assert [result.boundaries(i) for i in (0, 1)] == [b for b, _ in want[:2]]
        assert resumes() == 0
        assert result.boundaries(2) == want[2][0]
        assert resumes() == 1
        assert _bits(result.paths) == _bits(want)
        assert resumes() == 1

    # A best total that overflows once divided by the temperature makes
    # the whole CDF NaN, and the bisect then draws the last path.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("temperature", [1e-9, 1.0, 100.0])
    @pytest.mark.parametrize(
        "kind", ["random", "best-two-tied", "one-path", "overflowing"]
    )
    def test_draw_equals_full_cdf_bisect_at_the_cut(self, kind, temperature):
        beam = 10
        rng = np.random.default_rng(37)
        lat = {
            "random": lambda: _random_lattice(rng, 8),
            # every path totals -6
            "best-two-tied": lambda: _lattice(6, lambda i, j: float(i - j), 1, 3),
            "one-path": lambda: _lattice(4, lambda i, j: -1.0, 4, 4),
            "overflowing": lambda: _lattice(
                3, lambda i, j: 1e300 if (i, j) == (0, 3) else -1.0, 1, 3
            ),
        }[kind]()
        want = beam_paths(lat.n_blocks, _arc_dict(lat), lat.min_len, lat.max_len, beam)
        _path, cum = _bisect_draw(lat, beam, temperature, 0.0)
        cuts = [cum[0]]
        if len(want) > 1:
            s0, s1 = want[0][1], want[1][1]
            assert (s1 == s0) == (kind == "best-two-tied")
            x = s1 / temperature - s0 / temperature
            cuts.append((1 - 1e-12) / (1 + (beam - 1) * math.exp(x)))
        draws = [0.0, math.nextafter(1.0, 0.0), *rng.random(20)]
        for cut in cuts:
            draws += [math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)]
        for u in draws:
            if u < 1.0:
                expected, _cum = _bisect_draw(lat, beam, temperature, u)
                assert sample_path(nbest(lat, beam), temperature, u) == expected

    def test_memo_shared_list_resumed_by_the_second_decode(self, resumes):
        rng = np.random.default_rng(41)
        lat = _random_lattice(rng, 9)
        want = beam_paths(9, _arc_dict(lat), 1, 9, 10)
        memo = {}
        low, high = 0.0, math.nextafter(1.0, 0.0)
        first = nbest(lat, 10, memo)
        assert sample_path(first, 1.0, low) == _bisect_draw(lat, 10, 1.0, low)[0]
        assert resumes() == 0
        second = nbest(ScoredLattice(9, 1, 9, list(lat.scores)), 10, memo)
        assert second is first
        assert sample_path(second, 1.0, high) == _bisect_draw(lat, 10, 1.0, high)[0]
        assert resumes() == 1
        assert _bits(first.paths) == _bits(want)


class TestSamplePath:
    def test_single_path_probability_one(self):
        lat = _lattice(2, lambda i, j: -1.0, min_len=2, max_len=2)
        result = nbest(lat, 5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_path(result, 1.0, rng.random()) == (0, 2)

    def test_equal_scores_sample_evenly(self):
        lat = _lattice(2, lambda i, j: -1.0 * (j - i), min_len=1, max_len=2)
        result = nbest(lat, 10)
        # paths (0,2) and (0,1,2) both score -2
        assert len(result.paths) == 2
        assert result.paths[0][1] == pytest.approx(result.paths[1][1])
        rng = np.random.default_rng(123)
        counts = {0: 0, 1: 0}
        for _ in range(10_000):
            bounds = sample_path(result, 1.0, rng.random())
            counts[0 if bounds == result.paths[0][0] else 1] += 1
        assert abs(counts[0] / 10_000 - 0.5) <= 0.02

    def test_twenty_log_unit_gap_dominates(self):
        scores = {(0, 1): 20.0, (0, 2): 0.0, (1, 2): 0.0}
        lat = _lattice(2, lambda i, j: scores[(i, j)], 1, 2)
        result = nbest(lat, 10)
        rng = np.random.default_rng(7)
        wins = sum(
            sample_path(result, 1.0, rng.random()) == result.paths[0][0]
            for _ in range(10_000)
        )
        assert wins / 10_000 >= 0.999

    def test_sample_is_always_an_nbest_path(self):
        rng = np.random.default_rng(11)
        lat = _random_lattice(rng, 7)
        result = nbest(lat, 5)
        paths = {b for b, _ in result.paths}
        sampler = np.random.default_rng(5)
        for _ in range(200):
            assert sample_path(result, 1.0, sampler.random()) in paths

    def test_seeded_determinism(self):
        rng = np.random.default_rng(13)
        lat = _random_lattice(rng, 9)
        result = nbest(lat, 8)
        draws1 = [
            sample_path(result, 1.0, np.random.default_rng(s).random())
            for s in range(30)
        ]
        draws2 = [
            sample_path(result, 1.0, np.random.default_rng(s).random())
            for s in range(30)
        ]
        assert draws1 == draws2

    def test_temperature_validation(self):
        lat = _lattice(2, lambda i, j: 0.0, 1, 2)
        result = nbest(lat, 4)
        with pytest.raises(ValueError, match="temperature"):
            sample_path(result, 0.0, np.random.default_rng(0).random())

    def test_tiny_temperature_is_argmax(self):
        rng = np.random.default_rng(17)
        lat = _random_lattice(rng, 6)
        result = nbest(lat, 10)
        sampler = np.random.default_rng(3)
        for _ in range(50):
            assert sample_path(result, 1e-9, sampler.random()) == result.paths[0][0]

    @pytest.mark.parametrize("temperature", [0.3, 1.0, 50.0])
    def test_draw_picks_first_cumulative_probability_above_it(self, temperature):
        rng = np.random.default_rng(19)
        result = nbest(_random_lattice(rng, 8), 10)
        logits = result.scores() / temperature
        probs = np.exp(logits - logits.max())
        cum = np.cumsum(probs / probs.sum())
        draws = [*rng.random(200), *cum[:-1], 0.0, np.nextafter(1.0, 0.0)]
        for u in draws:
            i = min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)
            assert sample_path(result, temperature, u) == result.paths[i][0]
        # the CDF is computed once per list and temperature
        assert result.cdf(temperature) is result.cdf(temperature)
