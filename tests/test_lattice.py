import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpparse.lattice import (
    ScoredLattice,
    candidate_bounds,
    n_candidates,
    nbest,
    sample_path,
)

from oracles import enumerate_paths


def _lattice(n_blocks, score_fn, min_len=1, max_len=20):
    """Lattice whose arc (i, j) scores ``score_fn(i, j)``."""
    starts, ends = candidate_bounds(n_blocks, min_len, max_len)
    scores = [float(score_fn(int(i), int(j))) for i, j in zip(starts, ends)]
    return ScoredLattice(n_blocks, min_len, max_len, scores)


def _arc_dict(lat):
    """{(i, j): score} of a lattice, for the exhaustive oracle."""
    starts, ends = candidate_bounds(lat.n_blocks, lat.min_len, lat.max_len)
    return dict(zip(zip(starts.tolist(), ends.tolist()), lat.scores))


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

    def test_best_score_monotone_in_arc_score(self):
        rng = np.random.default_rng(3)
        lat = _random_lattice(rng, 6)
        best = nbest(lat, 1).paths[0][1]
        bumped = _arc_dict(lat)
        bumped[(0, 3)] = bumped[(0, 3)] + 5.0
        lat2 = _lattice(6, lambda i, j: bumped[(i, j)], 1, 6)
        assert nbest(lat2, 1).paths[0][1] >= best


class TestSamplePath:
    def test_single_path_probability_one(self):
        lat = _lattice(2, lambda i, j: -1.0, min_len=2, max_len=2)
        result = nbest(lat, 5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_path(result, 1.0, rng) == (0, 2)

    def test_equal_scores_sample_evenly(self):
        lat = _lattice(2, lambda i, j: -1.0 * (j - i), min_len=1, max_len=2)
        result = nbest(lat, 10)
        # paths (0,2) and (0,1,2) both score -2
        assert len(result.paths) == 2
        assert result.paths[0][1] == pytest.approx(result.paths[1][1])
        rng = np.random.default_rng(123)
        counts = {0: 0, 1: 0}
        for _ in range(10_000):
            bounds = sample_path(result, 1.0, rng)
            counts[0 if bounds == result.paths[0][0] else 1] += 1
        assert abs(counts[0] / 10_000 - 0.5) <= 0.02

    def test_twenty_log_unit_gap_dominates(self):
        scores = {(0, 1): 20.0, (0, 2): 0.0, (1, 2): 0.0}
        lat = _lattice(2, lambda i, j: scores[(i, j)], 1, 2)
        result = nbest(lat, 10)
        rng = np.random.default_rng(7)
        wins = sum(
            sample_path(result, 1.0, rng) == result.paths[0][0] for _ in range(10_000)
        )
        assert wins / 10_000 >= 0.999

    def test_sample_is_always_an_nbest_path(self):
        rng = np.random.default_rng(11)
        lat = _random_lattice(rng, 7)
        result = nbest(lat, 5)
        paths = {b for b, _ in result.paths}
        sampler = np.random.default_rng(5)
        for _ in range(200):
            assert sample_path(result, 1.0, sampler) in paths

    def test_seeded_determinism(self):
        rng = np.random.default_rng(13)
        lat = _random_lattice(rng, 9)
        result = nbest(lat, 8)
        draws1 = [
            sample_path(result, 1.0, np.random.default_rng(s)) for s in range(30)
        ]
        draws2 = [
            sample_path(result, 1.0, np.random.default_rng(s)) for s in range(30)
        ]
        assert draws1 == draws2

    def test_temperature_validation(self):
        lat = _lattice(2, lambda i, j: 0.0, 1, 2)
        result = nbest(lat, 4)
        with pytest.raises(ValueError, match="temperature"):
            sample_path(result, 0.0, np.random.default_rng(0))

    def test_tiny_temperature_is_argmax(self):
        rng = np.random.default_rng(17)
        lat = _random_lattice(rng, 6)
        result = nbest(lat, 10)
        sampler = np.random.default_rng(3)
        for _ in range(50):
            assert sample_path(result, 1e-9, sampler) == result.paths[0][0]
