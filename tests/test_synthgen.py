import signal
import time

import numpy as np
import pytest

from dpparse import io as dpio
from dpparse.core import validate_corpus
from dpparse.synthgen import (
    GenConfig,
    generate,
    gold_segmentation,
    zipf_probabilities,
)


def _config(**kw):
    base = dict(
        vocab_size=10,
        n_utterances=50,
        dim=8,
        zipf_exponent=1.0,
        word_len_min=2,
        word_len_max=4,
        words_per_utterance_min=2,
        words_per_utterance_max=3,
        noise_sigma=0.1,
        seed=7,
    )
    base.update(kw)
    return GenConfig(**base)


class TestGenerate:
    def test_corpus_valid_and_gold_covers(self):
        corpus, gold, words = generate(_config())
        assert validate_corpus(corpus).ok
        assert gold.validate() == []
        seg = gold_segmentation(corpus, gold)
        assert seg.validate(corpus) == []
        assert len(words) == 10

    def test_deterministic_given_seed(self):
        c1, g1, _ = generate(_config())
        c2, g2, _ = generate(_config())
        for u1, u2 in zip(c1, c2):
            assert u1.utterance_id == u2.utterance_id
            assert u1.data.tobytes() == u2.data.tobytes()
        assert g1.words == g2.words

    def test_noiseless_tokens_bit_identical(self):
        cfg = _config(noise_sigma=0.0, n_utterances=200)
        corpus, gold, _ = generate(cfg)
        seg = gold_segmentation(corpus, gold)
        patterns: dict[bytes, int] = {}
        for s in seg.tokens():
            key = corpus.utterance(s.utterance_id).data[s.start : s.end].tobytes()
            patterns[key] = patterns.get(key, 0) + 1
        # every token is a bit-exact copy of one of vocab_size prototypes
        assert len(patterns) <= cfg.vocab_size
        assert max(patterns.values()) >= 2

    def test_zipf_zero_is_uniform(self):
        rng = np.random.default_rng(0)
        probs = zipf_probabilities(50, 0.0)
        draws = rng.choice(50, size=100_000, p=probs)
        counts = np.bincount(draws, minlength=50)
        expected = 100_000 / 50
        sigma = np.sqrt(100_000 * (1 / 50) * (49 / 50))
        assert np.all(np.abs(counts - expected) <= 4 * sigma)

    def test_zipf_one_rank_frequency_slope(self):
        rng = np.random.default_rng(1)
        probs = zipf_probabilities(50, 1.0)
        draws = rng.choice(50, size=100_000, p=probs)
        counts = np.bincount(draws, minlength=50).astype(float)
        ranks = np.arange(1, 51)
        slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
        assert abs(slope - (-1.0)) <= 0.1

    def test_round_trip_through_frame_files(self, tmp_path):
        corpus, _, _ = generate(_config(n_utterances=5))
        for utt in corpus:
            path = tmp_path / f"{utt.utterance_id}.dppf"
            dpio.write_frame_file(path, utt)
            back = dpio.read_frame_file(path, utt.utterance_id)
            assert back.data.tobytes() == utt.data.tobytes()

    def test_discrete_mode(self):
        corpus, gold, _ = generate(_config(mode="discrete", alphabet_size=12))
        assert corpus.mode == "discrete"
        assert validate_corpus(corpus).ok
        seg = gold_segmentation(corpus, gold)
        assert seg.validate(corpus) == []
        # phone labels carry the symbols
        utt = corpus.utterances[0]
        labels = [int(p[2]) for p in gold.phones[utt.utterance_id]]
        assert labels == list(utt.symbols)

    def test_discrete_prototypes_distinct(self):
        corpus, gold, words = generate(
            _config(mode="discrete", vocab_size=30, alphabet_size=5, n_utterances=300)
        )
        seg = gold_segmentation(corpus, gold)
        patterns = set()
        for s in seg.tokens():
            symbols = corpus.utterance(s.utterance_id).symbols
            patterns.add(symbols[s.start : s.end].tobytes())
        assert len(patterns) <= 30

    @pytest.mark.parametrize(
        "alphabet_size, extra, length, drawn, strings",
        [(2, {}, 2, 14, 4), (5, {"vocab_size": 1000}, 2, 195, 25)],
    )
    def test_too_small_alphabet_refused_at_once(
        self, alphabet_size, extra, length, drawn, strings
    ):
        # More words of one length than strings of that length: redrawing
        # collisions would never end, so the lengths are refused up front.
        # The alarm turns a hang into a failure.
        def hang(_signum, _frame):
            raise TimeoutError("generate did not refuse within 1 s")

        config = GenConfig(
            mode="discrete", alphabet_size=alphabet_size, n_utterances=10, **extra
        )
        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        t0 = time.perf_counter()
        try:
            with pytest.raises(ValueError) as info:
                generate(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - t0 < 0.5
        assert str(info.value) == (
            f"{drawn} words of length {length} drawn, but only {strings} "
            f"strings of that length exist over {alphabet_size} symbols"
        )

    def test_alphabet_just_large_enough_generates(self):
        # Two symbols give four strings of length 2: four words fit.
        corpus, gold, words = generate(
            GenConfig(
                mode="discrete",
                alphabet_size=2,
                vocab_size=4,
                word_len_min=2,
                word_len_max=2,
                n_utterances=20,
            )
        )
        seg = gold_segmentation(corpus, gold)
        patterns = {
            corpus.utterance(s.utterance_id).symbols[s.start : s.end].tobytes()
            for s in seg.tokens()
        }
        assert len(words) == 4 and len(patterns) == 4

    def test_frequency_estimate_recovers_counts_at_zero_noise(self):
        # end-to-end sanity of the soft-count estimator on clean data
        from dpparse.density import InstanceIndex

        corpus, gold, _ = generate(
            _config(noise_sigma=0.0, n_utterances=120, vocab_size=6, seed=3)
        )
        seg = gold_segmentation(corpus, gold)
        vecs, provenance = [], []
        for t in seg.tokens():
            frames = corpus.utterance(t.utterance_id).data.astype(np.float64)
            vecs.append(frames[t.start : t.end].mean(axis=0))
            provenance.append((corpus.position(t.utterance_id), t.start, t.end))
        index = InstanceIndex(np.stack(vecs), *np.array(provenance).T)
        k = len(vecs)  # retrieve everything: no truncation
        counts: dict[bytes, int] = {}
        for v in vecs:
            counts[v.tobytes()] = counts.get(v.tobytes(), 0) + 1
        # Each query as an interval of no utterance in the corpus: nothing
        # is excluded.
        fresh = np.array([-1]), np.array([0]), np.array([1])
        for i in (0, 5, 17):
            f = index.kernel_frequencies_arrays(vecs[i][None, :], *fresh, k, 1e6)[0]
            assert f == pytest.approx(counts[vecs[i].tobytes()], abs=1e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(vocab_size=0)
    with pytest.raises(ValueError):
        _config(word_len_min=0)
    with pytest.raises(ValueError):
        _config(word_len_min=5, word_len_max=25)
    with pytest.raises(ValueError):
        _config(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="^gen.dim must be >= 1"):
        _config(dim=0)


@pytest.mark.parametrize("key", ["noise_sigma", "zipf_exponent"])
def test_nan_setting_refused(key):
    with pytest.raises(ValueError, match=f"^gen.{key} must be >= 0"):
        _config(**{key: float("nan")})


@pytest.mark.parametrize("key", ["noise_sigma", "zipf_exponent"])
def test_infinite_setting_refused(key):
    with pytest.raises(ValueError, match=f"^gen.{key} must be >= 0 and finite"):
        _config(**{key: float("inf")})
