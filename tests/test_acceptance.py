"""End-to-end acceptance on synthetic corpora with planted words.

Both modes train on a synthgen corpus with the documented defaults
(``dpparse gen``/``segment`` with ``--seed 7``, a 50-word vocabulary
unless a gate says otherwise, 5 iterations, one worker) and are scored
against the gold alignment.
The seed, sizes and margin were fixed before any tuning; do not retune
them to make a gate pass.
"""

import dataclasses

import pytest

from dpparse import trainer
from dpparse.config import load_run_config
from dpparse.core import Segmentation, ms_to_end_block
from dpparse.metrics import fixed_rate_segmenter, token_boundary_f1
from dpparse.scoring import arc_scores_batch, length_terms
from dpparse.synthgen import generate
from dpparse.trainer import train

SEED = 7
# The continuous gate: token F1 at least this far above the fixed-rate
# baseline with one token every 3 blocks (120ms).
BASELINE_MARGIN = 0.05
# The gold-start test: corpus seeds (not the gates' seed), and how near gold
# one iteration must stay.  Fixed before the test first ran.
GOLD_START_SEEDS = (11, 13)
GOLD_START_MIN_F1 = 0.90
GOLD_START_TOKEN_SHARE = 0.10


def _run_config(n_utterances, *overrides, vocab_size=50):
    return load_run_config(
        overrides=[
            f"gen.n_utterances={n_utterances}",
            f"gen.vocab_size={vocab_size}",
            "trainer.n_iterations=5",
            "trainer.workers=1",
            *overrides,
        ],
        **{"trainer.seed": SEED},
    )


def _run(mode, n_utterances, *overrides, vocab_size=50):
    cfg = _run_config(n_utterances, *overrides, vocab_size=vocab_size)
    corpus, gold, _words = generate(cfg.gen_config(mode))
    segmentation = train(corpus, cfg.trainer_config(mode))
    baseline = fixed_rate_segmenter(corpus, 3)
    return (
        token_boundary_f1(segmentation, gold).token_f1,
        token_boundary_f1(baseline, gold).token_f1,
    )


def _gold_segmentation(gold):
    return Segmentation(
        {
            utt_id: (0, *(ms_to_end_block(end) for _start, end in words))
            for utt_id, words in gold.words.items()
        }
    )


def test_discrete_recovers_planted_words():
    f1, _baseline = _run("discrete", 500)
    print(f"discrete token_f1={f1:.4f}")
    assert f1 >= 0.95


def test_discrete_recovers_planted_words_of_a_large_vocabulary():
    # The gate above scores about 0.999 and cannot catch a small loss.
    # Here 1,000 words of 3-6 symbols over 8 symbols share many
    # substrings; the bar is 0.03 below the 0.88 first measured.
    f1, _baseline = _run(
        "discrete",
        2000,
        "gen.alphabet_size=8",
        "gen.word_len_min=3",
        vocab_size=1000,
    )
    print(f"discrete large-vocabulary token_f1={f1:.4f}")
    assert f1 >= 0.85


def test_continuous_beats_fixed_rate_baseline():
    f1, baseline = _run("continuous", 200, "trainer.l0_subsample=2000")
    print(f"continuous token_f1={f1:.4f} fixed-rate baseline={baseline:.4f}")
    assert f1 >= baseline + BASELINE_MARGIN


def test_continuous_beats_fixed_rate_baseline_at_default_pool():
    # The gate above at the documented defaults: every candidate is in
    # the base pool, and beta is calibrated on a 10,000-entry sample.
    f1, baseline = _run("continuous", 200)
    print(
        f"continuous default pool token_f1={f1:.4f} "
        f"fixed-rate baseline={baseline:.4f}"
    )
    assert f1 >= baseline + BASELINE_MARGIN


def test_continuous_objective_prefers_gold_to_coarse_chunks():
    # On the continuous gate's corpus, with the gold tokens as the
    # lexicon, the model's objective (the sum of arc scores along a
    # segmentation) must rank the gold segmentation above cutting every
    # utterance into 20-block chunks.  It depends on neither sampling nor
    # the beam.
    cfg = _run_config(200, "trainer.l0_subsample=2000")
    corpus, gold, _words = generate(cfg.gen_config("continuous"))
    config = cfg.trainer_config("continuous")
    gold_seg = _gold_segmentation(gold)
    chunks = fixed_rate_segmenter(corpus, 20)
    state = trainer.init_state(corpus, config)
    candidates = state.candidates
    word_probs = trainer.lexicon_word_probabilities(state, corpus, config, gold_seg)
    terms = length_terms(candidates.ends - candidates.starts, config.dp)
    arcs = arc_scores_batch(word_probs, terms, config.dp)

    def objective(segmentation):
        rows = trainer._token_rows(corpus, config, candidates, segmentation)
        return float(arcs[rows].sum())

    gold_score, coarse_score = objective(gold_seg), objective(chunks)
    print(f"objective gold={gold_score:.1f} 20-block chunks={coarse_score:.1f}")
    assert gold_score > coarse_score


@pytest.mark.parametrize("seed", GOLD_START_SEEDS)
def test_continuous_gold_start_stays_near_gold(seed):
    # A model started at the truth should stay there.  At the default
    # base pool (every candidate), one iteration from the gold
    # segmentation must keep the token count and token F1 near gold: the
    # objective and the kernel width are tested together, with no search
    # from a bad start.
    cfg = load_run_config(
        overrides=["gen.n_utterances=100", "gen.vocab_size=50"],
        **{"trainer.seed": seed},
    )
    corpus, gold, _words = generate(cfg.gen_config("continuous"))
    config = cfg.trainer_config("continuous")
    gold_seg = _gold_segmentation(gold)
    state = dataclasses.replace(
        trainer.init_state(corpus, config), segmentation=gold_seg
    )
    seg = trainer.run_iteration(state, corpus, config).segmentation
    f1 = token_boundary_f1(seg, gold).token_f1
    print(
        f"gold start seed {seed}: tokens {seg.n_tokens} of {gold_seg.n_tokens}, "
        f"token_f1={f1:.4f}"
    )
    assert f1 >= GOLD_START_MIN_F1
    assert abs(seg.n_tokens - gold_seg.n_tokens) <= GOLD_START_TOKEN_SHARE * gold_seg.n_tokens
