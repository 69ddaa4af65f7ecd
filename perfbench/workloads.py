"""Benchmark workloads: synthgen corpora of a fixed size per seed.

Each workload stresses a different layer of ``dpparse segment``:

* ``cont-lexicon``: continuous corpus, base pool subsampled to 2000, 5
  iterations.  Every query hits a small index, so per-row top-k overhead
  and the per-iteration lexicon kNN dominate; base kNN, beta calibration
  and the kernel priors run in ``init_state``.
* ``disc-decode``: discrete corpus, 5 iterations.  No kNN at all: exact
  counting, N-best decoding and trainer glue.  Any density or kernel
  change should leave it unchanged.

A third workload, continuous with the full base pool (kNN of every
candidate against all, 580 MB peak), was dropped: on a shared 2-core VM
its end-to-end times spread by 22-26% over ten runs of the same code,
because the host's speed shifts for minutes at a time.  The layers it
stressed are all exercised by ``cont-lexicon``.

The benchmark seed picks the corpus; the language it is drawn from is
fixed.  Synthgen samples a Zipfian lexicon (word lengths, prototypes) and
then the utterances from one seed.  When the benchmark seed also picked
the lexicon, work per pass swung between seeds by 10-18% (distinct keys
in the discrete count store ranged 17.8k-26.1k, utterance lengths
twofold), which is a property of the draw, not of the program.  So each
workload generates one pool of 12-block utterances from a fixed
language seed (``LANGUAGE_SEED``, the seed the known values are
measured at), and the benchmark seed draws the workload's utterances
from that pool without replacement.  Every utterance then has the same
78 candidate segments, every seed the same candidate count, and the
lexicon statistics are those of one language.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dpparse import io as dpio
from dpparse.config import RunConfig
from dpparse.core import Corpus, FrameMatrix, GoldAlignment, SymbolSequence
from dpparse.synthgen import GenConfig, generate
from dpparse.trainer import TrainerConfig

VOCAB_SIZE = 50
# Synthgen seed of the fixed language every workload is drawn from.
LANGUAGE_SEED = 7
# Only utterances of exactly this many blocks enter the pool.
UTTERANCE_BLOCKS = 12
# The pool holds this many times a workload's utterance count.
POOL_FACTOR = 3
# About 8.4% of the language's utterances have 12 blocks; generating this
# many times the pool size fills the pool.
GENERATE_FACTOR = 14


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    n_utterances: int
    n_iterations: int
    l0_subsample: int = 1_000_000

    def trainer_config(self, seed: int, workers: int) -> TrainerConfig:
        """The config ``dpparse segment --seed --workers --set ...`` would build."""
        return RunConfig(
            {
                "trainer.seed": seed,
                "trainer.workers": workers,
                "trainer.n_iterations": self.n_iterations,
                "trainer.l0_subsample": self.l0_subsample,
            }
        ).trainer_config(self.mode)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cont-lexicon", "continuous", 200, 5, l0_subsample=2000),
        Workload("disc-decode", "discrete", 1000, 5),
    )
}


def make_corpus(mode: str, seed: int, n_utterances: int) -> tuple[Corpus, GoldAlignment]:
    """Synthgen corpus of ``n_utterances`` utterances for ``seed``."""
    corpus, gold, _words = generate(
        GenConfig(
            vocab_size=VOCAB_SIZE, n_utterances=n_utterances, seed=seed, mode=mode
        )
    )
    return corpus, gold


def workload_corpus(workload: Workload, seed: int) -> tuple[Corpus, GoldAlignment]:
    """``n_utterances`` utterances drawn by ``seed`` from the language's pool.

    The pool is the first ``POOL_FACTOR * n_utterances`` utterances of
    ``UTTERANCE_BLOCKS`` blocks generated at ``LANGUAGE_SEED``.  Drawn
    utterances keep their pool order and are renumbered u000000, u000001,
    ... because a text corpus names its utterances by line number.
    """
    pool_size = POOL_FACTOR * workload.n_utterances
    corpus, gold = make_corpus(
        workload.mode, LANGUAGE_SEED, GENERATE_FACTOR * pool_size
    )
    pool = [u for u in corpus if u.n_blocks == UTTERANCE_BLOCKS][:pool_size]
    if len(pool) < pool_size:
        raise RuntimeError(f"pool has {len(pool)} utterances, needs {pool_size}")
    picks = np.random.default_rng(seed).choice(
        pool_size, size=workload.n_utterances, replace=False
    )
    kept = [pool[i] for i in np.sort(picks)]
    utterances, words, phones = [], {}, {}
    for i, utt in enumerate(kept):
        uid = f"u{i:06d}"
        if workload.mode == "discrete":
            utterances.append(SymbolSequence(uid, utt.symbols))
        else:
            utterances.append(FrameMatrix(uid, utt.data))
        words[uid] = gold.words[utt.utterance_id]
        phones[uid] = gold.phones[utt.utterance_id]
    renamed = Corpus(utterances, mode=corpus.mode, alphabet=corpus.alphabet)
    return renamed, GoldAlignment(words=words, phones=phones)


def write_inputs(corpus: Corpus, gold: GoldAlignment, work_dir: Path) -> Path:
    """Write corpus and gold the way ``dpparse gen`` does; return the input."""
    work_dir.mkdir(parents=True, exist_ok=True)
    dpio.write_alignment(work_dir / "alignment.tsv", gold)
    if corpus.mode == "discrete":
        path = work_dir / "corpus.txt"
        dpio.write_text_corpus(path, corpus)
        return path
    (work_dir / "frames").mkdir(exist_ok=True)
    entries = []
    for utt in corpus:
        rel = f"frames/{utt.utterance_id}.dppf"
        dpio.write_frame_file(work_dir / rel, utt)
        entries.append((utt.utterance_id, rel))
    path = work_dir / "manifest.tsv"
    dpio.write_manifest(path, entries)
    return path


def main(argv: list[str]) -> int:
    """``workloads.py WORKLOAD SEED DIR``: write the inputs, print their path.

    The benchmark runs this in its own process, as ``dpparse gen`` would
    run before ``dpparse segment``, so generating the corpus does not count
    towards the measured process's peak memory.
    """
    name, seed, work_dir = argv
    corpus, gold = workload_corpus(WORKLOADS[name], int(seed))
    print(write_inputs(corpus, gold, Path(work_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
