import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse.core import Corpus, SymbolSequence
from dpparse.scoring import (
    EPS,
    DPParams,
    arc_scores_batch,
    length_terms,
    word_probabilities,
)
from dpparse.trainer import TrainerConfig, _tables_for, build_base, candidate_table

from oracles import direct_arc_score, direct_length_penalty, direct_word_probability


def _word_probability(lexicon_freq, base_prob, n_lexicon, params):
    """word_probabilities on one row."""
    lex, base = np.array([lexicon_freq]), np.array([base_prob])
    return word_probabilities(lex, base, n_lexicon, params)[0]


def _length_term(lengths, gamma, delta):
    """The length penalty itself: ``length_terms`` negated."""
    params = DPParams(gamma=gamma, delta=delta)
    return -length_terms(np.atleast_1d(lengths), params)


def _arc_score(word_prob, len_blocks, params):
    """arc_scores_batch on one row."""
    terms = length_terms(np.array([len_blocks]), params)
    return arc_scores_batch(np.array([word_prob]), terms)[0]


def _discrete_priors(*utterances, **config):
    corpus = Corpus(
        [SymbolSequence(f"u{i}", s) for i, s in enumerate(utterances)],
        mode="discrete",
    )
    cfg = TrainerConfig(**config)
    table = candidate_table(corpus, cfg.min_len, cfg.max_len)
    _store, probs, _beta, n_base = build_base(_tables_for(corpus, cfg, table), cfg)
    return corpus, cfg, probs, n_base


def _prior_of(corpus, cfg, probs, utt_id, start, end):
    """The prior of candidate [start, end) of ``utt_id``: ``probs`` has one
    per row of the corpus's candidate table."""
    table = candidate_table(corpus, cfg.min_len, cfg.max_len)
    (row,) = np.flatnonzero(
        (table.codes == corpus.position(utt_id))
        & (table.starts == start)
        & (table.ends == end)
    )
    return probs[row]


class TestBaseProbability:
    # A prior is the candidate's count in the base pool, leaving out
    # instances that overlap it, over the pool size.

    def test_direct_value(self):
        corpus, cfg, probs, n_base = _discrete_priors([1, 2], [1, 2], max_len=2)
        assert n_base == 6  # three candidates per utterance, all pooled
        # "1 2" at u0 [0, 2) matches only u1 [0, 2)
        prior = _prior_of(corpus, cfg, probs, "u0", 0, 2)
        assert prior == pytest.approx(1 / 6, rel=1e-12)

    def test_never_seen(self):
        # "7 8" occurs once; its only pool instance overlaps it
        corpus, cfg, probs, _ = _discrete_priors([7, 8], [1, 2], max_len=2)
        assert _prior_of(corpus, cfg, probs, "u0", 0, 2) == 0.0

    def test_upper_bound(self):
        # two pooled instances of "5" besides the query's own: 2 / 2
        corpus, cfg, probs, n_base = _discrete_priors(
            [5], [5], [5], min_len=1, max_len=1, l0_subsample=2, seed=0
        )
        assert n_base == 2
        assert np.all(probs <= 1.0)
        priors = [_prior_of(corpus, cfg, probs, u, 0, 1) for u in ("u0", "u1", "u2")]
        assert priors.count(1.0) == 1  # the one unpooled instance

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="no candidate segments"):
            _discrete_priors([1, 2], min_len=3, max_len=4)


@pytest.mark.parametrize(
    "key, value",
    [("alpha0", "inf"), ("gamma", "nan"), ("gamma", "inf"), ("delta", "inf")],
)
def test_non_finite_params_refused(key, value):
    with pytest.raises(ValueError, match=f"^dp.{key} must be .* and finite"):
        DPParams(**{key: float(value)})


class TestWordProbability:
    def test_empty_lexicon_reduces_to_prior(self):
        params = DPParams(alpha0=100.0)
        assert _word_probability(0.0, 0.37, 0.0, params) == pytest.approx(0.37, rel=1e-12)

    def test_hand_value(self):
        params = DPParams(alpha0=100.0)
        got = _word_probability(5.0, 0.001, 1000.0, params)
        assert got == pytest.approx(5.1 / 1100, rel=1e-12)

    def test_small_alpha_limit_is_relative_frequency(self):
        params = DPParams(alpha0=1e-9)
        got = _word_probability(50.0, 0.9, 200.0, params)
        assert got == pytest.approx(50.0 / 200.0, rel=1e-6)

    @given(
        st.floats(0, 1000),
        st.floats(0, 1),
        st.floats(1e-3, 1e4),
        st.floats(0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_freq_and_prior(self, freq, prior, alpha0, mass):
        params = DPParams(alpha0=alpha0)
        base = _word_probability(freq, prior, mass, params)
        assert _word_probability(freq + 1.0, prior, mass, params) >= base
        if prior <= 0.999:
            assert _word_probability(freq, prior + 0.001, mass, params) >= base


class TestLengthPenalty:
    def test_len_one_is_zero_for_any_exponent(self):
        for gamma in (0.0, 1.0, 1.8, 3.5):
            assert _length_term(1, gamma, 4.0)[0] == 0.0
            assert _length_term(1, gamma, 2.0)[0] == 0.0

    def test_unit_base(self):
        assert _length_term(5, 1.8, 4.0)[0] == pytest.approx(1.0, rel=1e-12)

    def test_hand_value(self):
        expected = direct_length_penalty(3, 1.8, 4.0)
        assert expected == pytest.approx(0.5**1.8, rel=1e-12)
        assert _length_term(3, 1.8, 4.0)[0] == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_length(self):
        values = _length_term(np.arange(1, 21), 1.8, 4.0)
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestArcScore:
    def test_zero_probability_guarded_and_finite(self):
        params = DPParams()
        s = _arc_score(0.0, 4, params)
        assert math.isfinite(s)
        assert s == pytest.approx(
            math.log(1e-10) - direct_length_penalty(4, 1.8, 4.0)
        )

    def test_probability_one_length_one(self):
        assert _arc_score(1.0, 1, DPParams()) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value_literal_form(self):
        # subtracted length term: log(e^-2) - ((5-1)/4)^1.8 = -2 - 1
        got = _arc_score(math.exp(-2.0), 5, DPParams())
        assert got == pytest.approx(-3.0, rel=1e-9)

    def test_default_sign_penalizes_length(self):
        params = DPParams()
        assert _arc_score(0.5, 10, params) < _arc_score(0.5, 1, params)

    def test_finite_over_full_domain(self):
        params = DPParams()
        probs = np.repeat([0.0, 1e-12, 0.5, 1.0], 3)
        lens = np.tile([1, 7, 20], 4)
        scores = arc_scores_batch(probs, length_terms(lens, params))
        assert np.all(np.isfinite(scores))

    def test_batch_matches_scalar(self):
        params = DPParams(gamma=0.0)
        probs = np.array([0.0, 0.3, 1.0])
        lens = np.array([1, 5, 20])
        batch = arc_scores_batch(probs, length_terms(lens, params))
        for b, p, n in zip(batch, probs, lens):
            oracle = direct_arc_score(
                float(p),
                int(n),
                eps=EPS,
                gamma=params.gamma,
                delta=params.delta,
            )
            assert b == pytest.approx(oracle, rel=1e-12)

    def test_gamma_zero_still_zero_at_len_one(self):
        # 0^0 is pinned to 0 for the length term
        assert _length_term(1, 0.0, 4.0)[0] == 0.0
        assert _length_term(2, 0.0, 4.0)[0] == 1.0


def test_formula_oracle_agreement():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n_lex = float(rng.integers(0, 10**6))
        freq = float(rng.uniform(0, max(n_lex, 1)))
        prior = float(rng.uniform(0, 1))
        alpha0 = float(rng.uniform(1e-3, 1e4))
        params = DPParams(alpha0=alpha0)
        mine = _word_probability(freq, prior, n_lex, params)
        oracle = direct_word_probability(freq, prior, alpha0, n_lex)
        assert mine == pytest.approx(oracle, rel=1e-12)
