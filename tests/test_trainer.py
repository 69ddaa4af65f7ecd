import dataclasses
import gc
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpparse import trainer
from dpparse.core import Corpus, FrameMatrix, Segment, Segmentation, SymbolSequence
from dpparse.density import DensityParams, DiscreteCountStore, InstanceIndex
from dpparse.embed import UtteranceEmbedder
from dpparse.lattice import candidate_bounds, nbest
from dpparse.scoring import DPParams, word_probabilities
from dpparse.synthgen import GenConfig, generate
from dpparse.trainer import (
    TrainerConfig,
    build_base,
    candidate_table,
    init_segmentation,
    init_state,
    n_candidates,
    run_iteration,
    train,
)

from oracles import count_excluding_overlaps, held_instances


def _continuous_corpus(seed=0, n_utterances=60, vocab=8):
    cfg = GenConfig(
        vocab_size=vocab,
        n_utterances=n_utterances,
        dim=8,
        zipf_exponent=1.0,
        word_len_min=2,
        word_len_max=4,
        words_per_utterance_min=2,
        words_per_utterance_max=3,
        noise_sigma=0.05,
        seed=seed,
    )
    corpus, gold, _ = generate(cfg)
    return corpus, gold


def _discrete_corpus(seed=0, n_utterances=120, vocab=6):
    cfg = GenConfig(
        vocab_size=vocab,
        n_utterances=n_utterances,
        dim=8,
        zipf_exponent=1.0,
        word_len_min=2,
        word_len_max=3,
        words_per_utterance_min=2,
        words_per_utterance_max=3,
        noise_sigma=0.0,
        seed=seed,
        mode="discrete",
        alphabet_size=8,
    )
    corpus, gold, _ = generate(cfg)
    return corpus, gold


def _ordinal(utt, config, start, end):
    """Position of candidate [start, end) among the candidates of ``utt``."""
    starts, ends = candidate_bounds(utt.n_blocks, config.min_len, config.max_len)
    (ordinal,) = np.flatnonzero((starts == start) & (ends == end))
    return ordinal


def _string_instances(corpus, min_len, max_len):
    """(symbol string, code, start, end) of every candidate, in corpus
    candidate order."""
    instances = []
    for code, utt in enumerate(corpus):
        starts, ends = candidate_bounds(utt.n_blocks, min_len, max_len)
        for a, b in zip(starts.tolist(), ends.tolist()):
            instances.append((utt.symbols[a:b].tobytes(), code, a, b))
    return instances


def _random_segmentation(corpus, seed=5):
    """Tokens of 1 to 3 blocks, drawn left to right in each utterance."""
    rng = np.random.default_rng(seed)
    bounds = {}
    for utt in corpus:
        cuts = [0]
        while cuts[-1] < utt.n_blocks:
            cuts.append(min(utt.n_blocks, cuts[-1] + int(rng.integers(1, 4))))
        bounds[utt.utterance_id] = tuple(cuts)
    return Segmentation(bounds)


def _config(**kw):
    base = dict(n_iterations=2, beam=5, seed=0, workers=2)
    base.update(kw)
    return TrainerConfig(**base)


def _build_base(corpus, config):
    """``build_base`` with the run's backend over the corpus's candidates."""
    table = candidate_table(corpus, config.min_len, config.max_len)
    return build_base(trainer._tables_for(corpus, config, table), config)


def _fail(*_args):
    raise AssertionError("token counted or embedded before the check")


class TestInitSegmentation:
    def _corpus(self, lengths):
        return Corpus(
            [FrameMatrix(f"u{i}", np.ones((n, 4))) for i, n in enumerate(lengths)]
        )

    def test_threshold_rule(self):
        seg = init_segmentation(self._corpus([5, 15, 30]), max_len=20)
        assert [uid for uid, _ in seg.items()] == ["u0", "u1"]
        assert seg.boundaries("u0") == (0, 5)
        assert seg.n_tokens == 2

    def test_all_long_gives_empty_seed(self):
        seg = init_segmentation(self._corpus([25, 30]), max_len=20)
        assert seg.n_tokens == 0

    def test_all_short_gives_full_seed(self):
        seg = init_segmentation(self._corpus([3, 4, 5]), max_len=20)
        assert seg.n_tokens == 3


class TestEnumerateCandidates:
    def test_six_blocks_bounds_two_six(self):
        starts, ends = candidate_bounds(6, 2, 6)
        assert len(starts) == len(ends) == 15  # 5+4+3+2+1

    def test_single_block(self):
        starts, ends = candidate_bounds(1, 1, 20)
        assert starts.tolist() == [0] and ends.tolist() == [1]

    def test_empty_corpus(self):
        corpus = Corpus([], mode="discrete")
        assert sum(n_candidates(u.n_blocks, 1, 20) for u in corpus) == 0
        with pytest.raises(ValueError, match="no candidate segments"):
            _build_base(corpus, _config())

    def test_count_matches_formula(self):
        formula = sum(max(0, 9 - length + 1) for length in range(2, 6))
        assert n_candidates(9, 2, 5) == formula

    def test_ordinal_round_trip(self):
        # scan order: by start, then by length
        starts, ends = candidate_bounds(7, 1, 4)
        ordinal = 0
        for i in range(7):
            for length in range(1, min(4, 7 - i) + 1):
                assert (starts[ordinal], ends[ordinal]) == (i, i + length)
                ordinal += 1
        assert ordinal == len(starts)


class TestBuildBase:
    def test_small_pool_uses_everything(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config()
        index, probs, beta, n_base = _build_base(corpus, config)
        total = sum(n_candidates(u.n_blocks, 1, 20) for u in corpus)
        assert n_base == total
        assert index.n == total
        assert beta > 0

    def test_subsample_cap(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config(l0_subsample=500)
        index, probs, beta, n_base = _build_base(corpus, config)
        assert n_base == 500

    def test_prior_cache_covers_all_candidates(self):
        corpus, _ = _continuous_corpus(n_utterances=15)
        config = _config()
        _, probs, _, _ = _build_base(corpus, config)
        # one prior per row of the candidate table
        assert probs.shape == (sum(n_candidates(u.n_blocks, 1, 20) for u in corpus),)
        assert np.all(probs >= 0)
        assert np.all(probs <= 1)

    def test_discrete_backend_counts(self):
        corpus, _ = _discrete_corpus(n_utterances=40)
        config = _config()
        store, probs, beta, n_base = _build_base(corpus, config)
        assert isinstance(store, DiscreteCountStore)
        assert beta is None
        assert n_base == held_instances(store)
        # Every candidate's prior is its count among the pool's instances
        # with the same symbol string, less those that overlap it, over the
        # pool size (here the pool is every candidate).
        pool = _string_instances(corpus, config.min_len, config.max_len)
        expected = np.array([count_excluding_overlaps(pool, *c) for c in pool])
        assert np.array_equal(probs, expected / n_base)
        assert np.count_nonzero(expected >= 1) > len(pool) // 4


def _draw_corpus(data, mode):
    """(corpus, min_len, max_len) drawn by hypothesis; ``max_len`` may pass
    every utterance."""
    alphabet = data.draw(st.integers(1, 4))
    utterances = data.draw(
        st.lists(
            st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=15),
            min_size=1,
            max_size=6,
        )
    )
    min_len = data.draw(st.integers(1, 4))
    max_len = data.draw(st.integers(min_len, 18))
    if mode == "discrete":
        corpus = Corpus(
            [SymbolSequence(f"u{i}", s) for i, s in enumerate(utterances)],
            mode="discrete",
        )
    else:
        corpus = Corpus(
            [
                FrameMatrix(f"u{i}", np.asarray(s, dtype=np.float64)[:, None])
                for i, s in enumerate(utterances)
            ]
        )
    return corpus, min_len, max_len


class TestCandidateTypes:
    @staticmethod
    def _assert_rows_are_candidate_bounds(table, corpus, min_len, max_len):
        counts = [n_candidates(u.n_blocks, min_len, max_len) for u in corpus]
        assert table.offsets.tolist() == np.cumsum([0, *counts]).tolist()
        assert len(table) == sum(counts)
        for code, utt in enumerate(corpus):
            starts, ends = candidate_bounds(utt.n_blocks, min_len, max_len)
            rows = slice(table.offsets[code], table.offsets[code + 1])
            assert np.all(table.codes[rows] == code)
            assert table.starts[rows].tolist() == starts.tolist()
            assert table.ends[rows].tolist() == ends.tolist()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ids_equal_iff_strings_equal(self, data):
        corpus, min_len, max_len = _draw_corpus(data, "discrete")
        table = candidate_table(corpus, min_len, max_len)
        self._assert_rows_are_candidate_bounds(table, corpus, min_len, max_len)
        strings = [s for s, *_ in _string_instances(corpus, min_len, max_len)]
        ids = table.type_ids.tolist()
        assert len(ids) == len(strings)
        id_of = {}
        for string, type_id in zip(strings, ids):
            assert id_of.setdefault(string, type_id) == type_id
        assert len(set(id_of.values())) == len(id_of)  # distinct strings
        assert sorted(id_of.values()) == list(range(table.n_types))

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_continuous_rows_are_candidate_bounds(self, data):
        corpus, min_len, max_len = _draw_corpus(data, "continuous")
        table = candidate_table(corpus, min_len, max_len)
        self._assert_rows_are_candidate_bounds(table, corpus, min_len, max_len)
        assert table.type_ids is None


class TestLookupSlices:
    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_slices_that_cut_utterances_change_nothing(self, mode, monkeypatch):
        # Continuous lookups run _GROUP_QUERIES rows at a time, and a slice may
        # end inside an utterance.  Discrete counts are exact; the kNN GEMM
        # blocks then start at other rows, which may move continuous soft
        # counts in their last bits only.
        if mode == "continuous":
            corpus, _ = _continuous_corpus(n_utterances=30)
        else:
            corpus, _ = _discrete_corpus(n_utterances=40)
        config = _config(max_len=6)
        seg = _random_segmentation(corpus)

        def lookups():
            state = init_state(corpus, config)
            probs = trainer.lexicon_word_probabilities(state, corpus, config, seg)
            return state.candidates, state.base_probs, probs

        table, *default = lookups()
        monkeypatch.setattr(trainer, "_GROUP_QUERIES", 97)
        cuts = range(97, len(table), 97)
        assert len(cuts) > 2 and not set(cuts) <= set(table.offsets.tolist())
        _table, *cut = lookups()
        for got, want in zip(cut, default):
            if mode == "discrete":
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestInitState:
    def test_rejects_invalid_corpus(self):
        bad = np.ones((4, 3))
        bad[0, 0] = np.inf
        corpus = Corpus([FrameMatrix("u", bad)])
        with pytest.raises(ValueError, match="invalid corpus"):
            init_state(corpus, _config())

    def test_rejects_short_utterances(self):
        corpus = Corpus(
            [FrameMatrix("ok", np.ones((5, 2))), FrameMatrix("tiny", np.ones((1, 2)))]
        )
        with pytest.raises(ValueError, match="tiny"):
            init_state(corpus, _config(min_len=2))
        # Long enough, but neither one segment of 3 blocks nor two: refused
        # by name at setup, not in the first iteration.
        corpus = Corpus(
            [SymbolSequence(uid, [0] * n) for uid, n in (("a", 4), ("b", 6), ("c", 3))],
            mode="discrete",
        )
        with pytest.raises(ValueError, match=r"3\.\.3 blocks cannot tile: a$"):
            init_state(corpus, _config(min_len=3, max_len=3))

    def test_overflowing_temperature_rejected(self, monkeypatch):
        # At 1e-320 every path total over the temperature overflows, and
        # the sampling CDF would be NaN: refused before any candidate is
        # enumerated.  At 1e-300 the totals are finite, and training runs.
        corpus, _ = _discrete_corpus(n_utterances=30)
        with monkeypatch.context() as m:
            m.setattr(trainer, "candidate_table", _fail)
            with pytest.raises(ValueError, match=r"^trainer\.temperature 1e-320 "):
                init_state(corpus, _config(temperature=1e-320))
        seg = train(corpus, _config(temperature=1e-300))
        assert seg.validate(corpus) == []

    def test_seed_and_tables(self):
        corpus, _ = _continuous_corpus(n_utterances=12)
        state = init_state(corpus, _config())
        assert state.iteration == 0
        assert state.segmentation.n_tokens == len(corpus)  # all short

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_equal_block_groups(self, mode):
        corpus, _ = (_continuous_corpus if mode == "continuous" else _discrete_corpus)(
            n_utterances=12
        )
        first, last = corpus.utterances[0], corpus.utterances[-1]
        if mode == "continuous":
            copy = FrameMatrix("copy", first.data.copy())
            other = FrameMatrix("other", last.data[::-1])
        else:
            copy = SymbolSequence("copy", first.symbols.copy())
            other = SymbolSequence("other", last.symbols[::-1])
        grown = Corpus([*corpus.utterances, copy, other], mode, corpus.alphabet)
        content = [
            (u.data if mode == "continuous" else u.symbols).tobytes() for u in grown
        ]
        expected = {}
        for code, c in enumerate(content):
            expected.setdefault(c, []).append(code)
        groups = trainer.equal_block_groups(grown)
        assert groups == tuple(tuple(codes) for codes in expected.values())
        assert groups[0][:1] + groups[0][-1:] == (0, len(grown) - 2)
        assert init_state(grown, _config()).groups == groups


class TestRunIteration:
    def test_segmentation_valid_after_each_iteration(self):
        corpus, _ = _continuous_corpus(n_utterances=25)
        config = _config()
        state = init_state(corpus, config)
        for _ in range(2):
            state = run_iteration(state, corpus, config)
            assert state.segmentation.validate(corpus) == []
            assert len(state.segmentation) == len(corpus)

    def test_lexicon_mass_lags_one_iteration(self, monkeypatch):
        corpus, _ = _continuous_corpus(n_utterances=25)
        config = _config()
        masses = []

        def recording(lexicon_freqs, base_probs, n_lexicon, params):
            masses.append(n_lexicon)
            return word_probabilities(lexicon_freqs, base_probs, n_lexicon, params)

        monkeypatch.setattr("dpparse.trainer.word_probabilities", recording)
        state = init_state(corpus, config)
        for _ in range(2):
            masses.clear()
            previous = state.segmentation
            state = run_iteration(state, corpus, config)
            # one call per iteration, with the mass of the segmentation the
            # iteration started from, not the one it produced
            assert masses == [previous.n_tokens]
            assert state.segmentation.n_tokens != previous.n_tokens

    def test_backend_built_once_per_run(self, monkeypatch):
        # The embedder holds a cumulative sum over every frame: setup builds
        # it with the backend, and the iterations reuse it.
        corpus, _ = _continuous_corpus(n_utterances=12)
        config = _config()
        built = []
        init = UtteranceEmbedder.__init__

        def counting(self, utterances):
            built.append(len(utterances))
            init(self, utterances)

        monkeypatch.setattr(UtteranceEmbedder, "__init__", counting)
        state = init_state(corpus, config)
        for _ in range(3):
            state = run_iteration(state, corpus, config)
        assert built == [len(corpus)]

    def test_deterministic_rerun(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config(beam=1, temperature=1e-9)
        state = init_state(corpus, config)
        out1 = run_iteration(state, corpus, config)
        out2 = run_iteration(state, corpus, config)
        assert out1.segmentation == out2.segmentation

    def test_prior_cache_identical_across_iterations(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config()
        state = init_state(corpus, config)
        before = state.base_probs.copy()
        state = run_iteration(state, corpus, config)
        state = run_iteration(state, corpus, config)
        assert np.array_equal(state.base_probs, before)

    def test_empty_seed_is_legal(self):
        # every utterance longer than max_len: priors only at iteration 1
        corpus, _ = _continuous_corpus(n_utterances=15)
        config = _config(max_len=3)
        state = init_state(corpus, config)
        assert state.segmentation.n_tokens == 0
        state = run_iteration(state, corpus, config)
        assert state.segmentation.validate(corpus) == []

    @staticmethod
    def _initialized_then_uncountable(mode, monkeypatch, **config):
        """(corpus, config, state) after setup; from then on, counting or
        embedding a token fails the test."""
        if mode == "continuous":
            corpus, _ = _continuous_corpus(n_utterances=12)
        else:
            corpus, _ = _discrete_corpus(n_utterances=40)
        config = _config(**config)
        state = init_state(corpus, config)
        monkeypatch.setattr(DiscreteCountStore, "add", _fail)
        monkeypatch.setattr(UtteranceEmbedder, "embed_many", _fail)
        return corpus, config, state

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_token_past_its_utterance_rejected(self, mode, monkeypatch):
        corpus, config, state = self._initialized_then_uncountable(mode, monkeypatch)
        utt = corpus.utterances[0]
        uid, n = utt.utterance_id, utt.n_blocks
        seg = Segmentation({uid: (0, n - 1, n + 2)})
        state = dataclasses.replace(state, segmentation=seg)
        message = f"token [{n - 1}, {n + 2}) ends past utterance {uid!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_iteration(state, corpus, config)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_utterance_missing_from_corpus_rejected(self, mode, monkeypatch):
        corpus, config, state = self._initialized_then_uncountable(mode, monkeypatch)
        seg = Segmentation({"zz": (0, 2)})
        state = dataclasses.replace(state, segmentation=seg)
        with pytest.raises(ValueError, match="utterance 'zz', not in the corpus"):
            run_iteration(state, corpus, config)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_token_of_inadmissible_length_rejected(self, mode, monkeypatch):
        corpus, config, state = self._initialized_then_uncountable(
            mode, monkeypatch, min_len=2, max_len=4
        )
        utt = corpus.utterances[0]
        seg = Segmentation({utt.utterance_id: (0, 1, utt.n_blocks)})
        state = dataclasses.replace(state, segmentation=seg)
        message = f"token [0, 1) of utterance {utt.utterance_id!r} is not 2..4"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_iteration(state, corpus, config)

    def test_lexicon_asked_only_about_held_types(self, monkeypatch):
        # Small count slices, so that their boundaries are crossed.
        monkeypatch.setattr(trainer, "_COUNT_SLICE", 7)
        corpus, _ = _discrete_corpus(n_utterances=40)
        config = _config(max_len=6)
        seg = _random_segmentation(corpus)
        state = init_state(corpus, config)
        asked = []
        count = DiscreteCountStore.count_excluding_overlaps

        def counting(store, key, code, start, end):
            asked.append((code, start, end))
            return count(store, key, code, start, end)

        monkeypatch.setattr(DiscreteCountStore, "count_excluding_overlaps", counting)
        probs = trainer.lexicon_word_probabilities(state, corpus, config, seg)
        tokens = [
            (corpus.utterance(t.utterance_id).symbols[t.start : t.end].tobytes(),
             corpus.position(t.utterance_id), t.start, t.end)
            for t in seg.tokens()
        ]
        candidates = _string_instances(corpus, config.min_len, config.max_len)
        expected = [count_excluding_overlaps(tokens, *c) for c in candidates]
        expected_probs = word_probabilities(
            np.array(expected, dtype=np.float64),
            state.base_probs,
            seg.n_tokens,
            config.dp,
        )
        assert probs.tolist() == expected_probs.tolist()
        held = {string for string, *_ in tokens}
        assert asked == [(c, a, b) for s, c, a, b in candidates if s in held]
        assert 0 < len(asked) < len(candidates)

    def test_frequent_substring_beats_prior_discrete(self):
        corpus, _ = _discrete_corpus(n_utterances=150, vocab=4)
        config = _config()
        state = init_state(corpus, config)
        state = run_iteration(state, corpus, config)
        # most frequent token type of the produced segmentation
        store = DiscreteCountStore()
        for seg in state.segmentation.tokens():
            symbols = corpus.utterance(seg.utterance_id).symbols
            code = corpus.position(seg.utterance_id)
            store.add(symbols[seg.start : seg.end].tobytes(), code, seg.start)
        counts: dict[bytes, int] = {}
        example: dict[bytes, Segment] = {}
        for seg in state.segmentation.tokens():
            key = corpus.utterance(seg.utterance_id).symbols[
                seg.start : seg.end
            ].tobytes()
            counts[key] = counts.get(key, 0) + 1
            example[key] = seg
        key, freq = max(counts.items(), key=lambda kv: kv[1])
        assert freq >= 2
        seg = example[key]
        n_tokens = state.segmentation.n_tokens
        utt = corpus.utterance(seg.utterance_id)
        first = state.candidates.offsets[corpus.position(seg.utterance_id)]
        p0 = state.base_probs[first + _ordinal(utt, config, seg.start, seg.end)]
        lexicon_freq = store.count_excluding_overlaps(key, -1, 0, 1)
        dp = DPParams()
        p_w = lexicon_freq / (n_tokens + dp.alpha0) + dp.alpha0 * p0 / (
            n_tokens + dp.alpha0
        )
        assert p_w > p0


class TestLexiconOrder:
    """A lexicon is a set of candidate rows: the order a segmentation lists
    its utterances in changes no bit, and each store receives its rows in
    table order."""

    @staticmethod
    def _doubled_corpus(mode):
        """A synthgen corpus, then a copy of each utterance under a new id,
        so that the lexicon holds exact duplicates."""
        gen = GenConfig(n_utterances=40, seed=3, vocab_size=8, mode=mode)
        corpus, _, _ = generate(gen)
        copies = [
            FrameMatrix(u.utterance_id + "b", u.data)
            if mode == "continuous"
            else SymbolSequence(u.utterance_id + "b", u.symbols)
            for u in corpus
        ]
        return Corpus(corpus.utterances + copies, mode, corpus.alphabet)

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    @pytest.mark.parametrize("k", [3, 100])
    def test_reversed_segmentation_gives_the_same_bits(self, mode, k):
        # Duplicates tie in distance and ties break by lexicon index, so a
        # kNN lexicon built in listing order picks other neighbours when
        # reversed; a count store fed in listing order would be unsorted.
        # Every row ties, so top-k repairs each row's run of ties at the
        # cut; a small base pool keeps setup short.
        corpus = self._doubled_corpus(mode)
        config = _config(max_len=8, l0_subsample=500, density=DensityParams(k=k))
        seg = _random_segmentation(corpus)
        backwards = Segmentation(dict(reversed(list(seg.items()))))
        state = init_state(corpus, config)
        forward = trainer.lexicon_word_probabilities(state, corpus, config, seg)
        reverse = trainer.lexicon_word_probabilities(state, corpus, config, backwards)
        assert forward.tobytes() == reverse.tobytes()

    def test_store_adds_arrive_in_table_order(self, monkeypatch):
        corpus = self._doubled_corpus("discrete")
        config = _config(max_len=8)
        added: dict = {}
        add = DiscreteCountStore.add

        def recording(store, key, code, start):
            added.setdefault((store, key), []).append(code << 32 | start)
            add(store, key, code, start)

        monkeypatch.setattr(DiscreteCountStore, "add", recording)
        state = init_state(corpus, config)
        state = run_iteration(state, corpus, config)
        backwards = Segmentation(dict(reversed(list(state.segmentation.items()))))
        trainer.lexicon_word_probabilities(state, corpus, config, backwards)
        # the base store, the iteration's lexicon and the reversed one
        assert len({store for store, _key in added}) == 3
        for packed in added.values():
            assert packed == sorted(packed)


class TestNBestMemo:
    """Equal lattices of utterances with equal blocks share one N-best
    search, within one iteration only."""

    @staticmethod
    def _decodes(monkeypatch, n_iterations=1):
        """Run iterations on a corpus whose first 10 utterances come twice;
        return the corpus, the config, the final state, and one record per
        decode, in decode order."""
        base, _ = _discrete_corpus(n_utterances=30)
        copies = [
            SymbolSequence(f"{u.utterance_id}-copy", u.symbols)
            for u in base.utterances[:10]
        ]
        corpus = Corpus(base.utterances + copies, "discrete", base.alphabet)
        config = _config(temperature=50.0)
        records = []
        nbest_of, sample_of = trainer.nbest, trainer.sample_path

        def spy_nbest(lattice, beam, memo=None):
            result = nbest_of(lattice, beam, memo)
            records.append({"lattice": lattice, "memo": memo, "paths": result})
            return result

        def spy_sample(paths, temperature, u):
            records[-1].update(sampled_from=paths, u=u, cached=paths._cdf)
            records[-1]["sampled"] = sample_of(paths, temperature, u)
            records[-1]["cdf"] = paths.cdf(temperature)
            return records[-1]["sampled"]

        monkeypatch.setattr(trainer, "nbest", spy_nbest)
        monkeypatch.setattr(trainer, "sample_path", spy_sample)
        state = init_state(corpus, config)
        for _ in range(n_iterations):
            state = run_iteration(state, corpus, config)
        # Utterances are decoded group by group, in the same order each
        # iteration; the final segmentation checks that this labels them.
        order = [code for group in state.groups for code in group]
        for i, r in enumerate(records):
            r["uid"] = corpus.utterances[order[i % len(order)]].utterance_id
            r["iteration"] = i // len(order) + 1
        return corpus, config, state, records

    @staticmethod
    def _key(lattice):
        return np.asarray(lattice.scores).tobytes()

    def test_one_search_per_distinct_lattice(self, monkeypatch):
        corpus, _config, _state, records = self._decodes(monkeypatch)
        content = {u.utterance_id: u.symbols.tobytes() for u in corpus}
        shared = Counter(content.values())
        repeated = [r for r in records if shared[content[r["uid"]]] > 1]
        assert 20 <= len(repeated) < len(records) == len(corpus)
        lists = {}
        for r in repeated:
            key = (content[r["uid"]], self._key(r["lattice"]))
            lists.setdefault(key, set()).add(id(r["paths"]))
        # a copy's lattice equals its original's at the first iteration
        assert len(lists) < len(repeated)
        assert all(len(ids) == 1 for ids in lists.values())
        # an utterance whose blocks no other one holds is not memoized
        assert all(r["memo"] is None for r in records if r not in repeated)

    def test_samples_from_a_fresh_search(self, monkeypatch):
        _corpus, config, _state, records = self._decodes(monkeypatch, n_iterations=2)
        for r in records:
            assert r["sampled_from"] is r["paths"]
            assert r["paths"].paths == nbest(r["lattice"], config.beam).paths

    def test_each_utterance_draws_from_its_own_stream(self, monkeypatch):
        corpus, config, state, records = self._decodes(monkeypatch)
        uids = [u.utterance_id for u in corpus]
        assert sorted(r["uid"] for r in records) == sorted(uids)
        for r in records:
            assert r["iteration"] == 1
            assert state.segmentation.boundaries(r["uid"]) == r["sampled"]
            entropy = (config.seed, 1, trainer._utt_digest(r["uid"]))
            stream = np.random.default_rng(np.random.SeedSequence(entropy))
            assert r["u"] == stream.random()
        by_uid = {r["uid"]: r for r in records}
        original, copy = by_uid[uids[0]], by_uid[uids[0] + "-copy"]
        assert copy["paths"] is original["paths"]
        assert copy["u"] != original["u"]

    def test_memo_hit_reuses_the_cdf_and_samples_with_its_own_draw(self, monkeypatch):
        corpus, config, _state, records = self._decodes(monkeypatch)
        by_uid = {r["uid"]: r for r in records}
        pairs = [
            (by_uid[u.utterance_id], by_uid[u.utterance_id + "-copy"])
            for u in corpus.utterances[:10]
        ]
        hits = [(a, b) for a, b in pairs if a["paths"] is b["paths"]]
        assert hits
        for first, second in hits:
            # the first decode of a list computes its CDF, the second reuses it
            assert first["cached"] is None
            assert second["cached"] == (config.temperature, first["cdf"])
            assert second["cdf"] is first["cdf"]
            assert second["u"] != first["u"]
            for r in (first, second):
                i = int(np.searchsorted(r["cdf"], r["u"], side="right"))
                i = min(i, len(r["cdf"]) - 1)
                assert r["sampled"] == r["paths"].boundaries(i)
        # at temperature 50 some copy samples another path than its original
        assert any(a["sampled"] != b["sampled"] for a, b in hits)

    def test_memo_lives_one_group_of_one_iteration(self, monkeypatch):
        _corpus, _config, _state, records = self._decodes(monkeypatch, n_iterations=2)
        memos = list(
            {id(r["memo"]): r["memo"] for r in records if r["memo"] is not None}.values()
        )
        # one memo per group of equal utterances (10 or more) per iteration
        assert len(memos) >= 20
        iterations = {}
        for r in records:
            if r["memo"] is not None:
                iterations.setdefault(id(r["memo"]), set()).add(r["iteration"])
        assert all(len(seen) == 1 for seen in iterations.values())
        records.clear()
        # nothing but this list refers to a memo once its group was decoded
        for memo in memos:
            assert gc.get_referrers(memo) == [memos]


class TestSamplingDraws:
    """One array pass gives every utterance the first double of numpy's
    ``default_rng(SeedSequence((seed, iteration, digest)))``."""

    # one- and two-word digests, at the edges and from benchmark-style ids
    DIGESTS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
        trainer._utt_digest(f"u{i:06d}") for i in range(1000)
    ]

    @pytest.mark.parametrize("iteration", [0, 1, 5, 2**33])
    @pytest.mark.parametrize("seed", [0, 1, 201, 2**32 - 1, 2**32 + 5, 2**70 + 3])
    def test_equal_to_numpy_streams(self, seed, iteration):
        draws = trainer._sampling_draws(
            seed, iteration, np.array(self.DIGESTS, dtype=np.uint64)
        )
        expected = [
            np.random.default_rng(np.random.SeedSequence((seed, iteration, d))).random()
            for d in self.DIGESTS
        ]
        assert draws.tolist() == expected

    def test_permuting_utterances_permutes_draws(self):
        digests = np.array(self.DIGESTS, dtype=np.uint64)
        perm = np.random.default_rng(3).permutation(len(digests))
        draws = trainer._sampling_draws(201, 2, digests)
        assert trainer._sampling_draws(201, 2, digests[perm]).tolist() == (
            draws[perm].tolist()
        )

    def test_negative_seed_rejected(self):
        digests = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            trainer._sampling_draws(-1, 1, digests)
        with pytest.raises(ValueError, match="trainer.seed must be >= 0, got -1"):
            _config(seed=-1)
        with pytest.raises(ValueError, match="trainer.seed must be >= 0, got -3"):
            GenConfig(seed=-3)


class TestTrain:
    def test_same_seed_identical_output(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config()
        assert train(corpus, config) == train(corpus, config)

    def test_workers_do_not_change_results(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        seg1 = train(corpus, _config(workers=1))
        seg2 = train(corpus, _config(workers=2))
        assert seg1 == seg2

    def test_log_stream_lines(self):
        import io as stdio

        corpus, _ = _continuous_corpus(n_utterances=15)
        stream = stdio.StringIO()
        train(corpus, _config(n_iterations=3), log_stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("iteration=1 tokens=")
        assert "mean_token_ms=" in lines[0] and "wall_s=" in lines[0]

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            _config(n_iterations=0)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_temperature_refused(self, value):
        message = "^trainer.temperature must be > 0 and finite"
        with pytest.raises(ValueError, match=message):
            _config(temperature=float(value))

    def test_negative_kmeans_clusters_refused(self):
        with pytest.raises(ValueError, match="^trainer.kmeans_clusters must be >= 0"):
            _config(kmeans_clusters=-1)

    def test_discrete_kmeans_refused_by_init_state(self):
        # A caller that builds its own TrainerConfig meets the refusal that
        # test_cli's test_discrete_kmeans_refused_before_any_input reads.
        corpus, _ = _discrete_corpus(n_utterances=10)
        message = "^trainer.kmeans_clusters is for continuous corpora only$"
        with pytest.raises(ValueError, match=message):
            init_state(corpus, _config(kmeans_clusters=5))

    def test_overflowing_length_term_rejected(self):
        # ((20 - 1) / 4) ** 460 overflows a double: every 20-block arc would
        # score -inf.  Just below, at gamma 450, the term is finite.
        with pytest.raises(ValueError, match="20-block token overflows"):
            _config(dp=DPParams(gamma=460.0))
        with pytest.raises(ValueError, match="6-block token overflows"):
            _config(max_len=6, dp=DPParams(gamma=1000.0, delta=1.0))
        assert _config(dp=DPParams(gamma=450.0)).max_len == 20
        assert _config(max_len=5, dp=DPParams(gamma=1000.0, delta=4.0)).max_len == 5

    def test_discrete_training_runs(self):
        corpus, gold = _discrete_corpus(n_utterances=80)
        config = _config(n_iterations=3, dp=DPParams(delta=2.0))
        seg = train(corpus, config)
        assert seg.validate(corpus) == []

    def test_kmeans_backend_runs(self):
        corpus, _ = _continuous_corpus(n_utterances=20)
        config = _config(kmeans_clusters=8)
        seg = train(corpus, config)
        assert seg.validate(corpus) == []

    def test_kmeans_backend_rejected_for_discrete(self):
        corpus, _ = _discrete_corpus(n_utterances=30)
        config = _config(kmeans_clusters=4)
        with pytest.raises(ValueError, match="continuous"):
            init_state(corpus, config)

    def test_calibration_fallback_for_tiny_pool(self, caplog):
        # A pool of 27 entries is under calibrate_beta's 100-row minimum.
        corpus = Corpus(
            [FrameMatrix(f"u{i}", np.random.default_rng(i).normal(size=(4, 3)))
             for i in range(3)]
        )
        config = _config(min_len=1, max_len=3, density=DensityParams(k=5))
        with caplog.at_level("WARNING", logger="dpparse.trainer"):
            state = init_state(corpus, config)
        assert state.beta == trainer._FALLBACK_BETA == 1.0
        assert (
            "no kernel width to calibrate from a base pool of 27 entries; "
            "using beta=1" in caplog.text
        )

    def test_calibration_fallback_for_repeated_utterances(self, caplog):
        # Every utterance appears twice, so every sampled candidate has an
        # exact duplicate in the other copy: the median nearest distance is
        # 0 and the fallback beta is used, with a warning.
        rng = np.random.default_rng(0)
        data = [rng.normal(size=(6, 3)) for _ in range(20)]
        corpus = Corpus([FrameMatrix(f"u{i}", data[i % 20]) for i in range(40)])
        config = _config(max_len=6)
        with caplog.at_level("WARNING", logger="dpparse.trainer"):
            state = init_state(corpus, config)
        assert state.beta == trainer._FALLBACK_BETA == 1.0
        assert (
            "no kernel width to calibrate from a base pool of 840 entries; "
            "using beta=1" in caplog.text
        )
