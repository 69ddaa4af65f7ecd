"""Synthetic corpora with known gold segmentations.

A Zipf-distributed latent lexicon of prototype words is sampled once;
utterances concatenate word tokens whose blocks are the prototype blocks
plus isotropic Gaussian noise (continuous mode) or exact symbol copies
(discrete mode).  Phones are equated with blocks so boundary snapping is
exercised with exact alignments.  Everything is deterministic given the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpparse.core import (
    BLOCK_MS,
    Corpus,
    FrameMatrix,
    GoldAlignment,
    Segmentation,
    SymbolSequence,
)


@dataclass(frozen=True)
class GenConfig:
    vocab_size: int = 50
    n_utterances: int = 2000
    dim: int = 16
    zipf_exponent: float = 1.0
    word_len_min: int = 2
    word_len_max: int = 6
    words_per_utterance_min: int = 2
    words_per_utterance_max: int = 4
    noise_sigma: float = 0.1
    seed: int = 0
    mode: str = "continuous"
    alphabet_size: int = 20

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("gen.vocab_size must be >= 1")
        if self.n_utterances < 1:
            raise ValueError("gen.n_utterances must be >= 1")
        if self.seed < 0:
            raise ValueError(f"trainer.seed must be >= 0, got {self.seed}")
        if not 1 <= self.word_len_min <= self.word_len_max <= 20:
            raise ValueError(
                "need 1 <= gen.word_len_min <= gen.word_len_max <= 20, got "
                f"{self.word_len_min} and {self.word_len_max}"
            )
        if not 1 <= self.words_per_utterance_min <= self.words_per_utterance_max:
            raise ValueError(
                "need 1 <= gen.words_per_utterance_min <= "
                "gen.words_per_utterance_max, got "
                f"{self.words_per_utterance_min} and {self.words_per_utterance_max}"
            )
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("gen.noise_sigma must be >= 0 and finite")
        if not 0 <= self.zipf_exponent < np.inf:
            raise ValueError("gen.zipf_exponent must be >= 0 and finite")
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "continuous" and self.dim < 1:
            raise ValueError("gen.dim must be >= 1")
        if self.mode == "discrete" and self.alphabet_size < 2:
            raise ValueError("gen.alphabet_size must be >= 2")


@dataclass(frozen=True)
class WordInfo:
    """Latent lexicon entry: id doubles as the Zipf rank minus one."""

    word_id: int
    length: int
    rank: int


def zipf_probabilities(vocab_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-exponent
    return probs / probs.sum()


def generate(config: GenConfig) -> tuple[Corpus, GoldAlignment, list[WordInfo]]:
    """Sample a corpus, its gold alignment, and the lexicon description."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    lo, hi = config.word_len_min, config.word_len_max
    lengths = rng.integers(lo, hi + 1, size=config.vocab_size)
    prototypes = _prototypes(config, lengths, rng)
    probs = zipf_probabilities(config.vocab_size, config.zipf_exponent)
    wlo, whi = config.words_per_utterance_min, config.words_per_utterance_max

    utterances = []
    gold = GoldAlignment()
    for i in range(config.n_utterances):
        uid = f"u{i:06d}"
        n_words = int(rng.integers(wlo, whi + 1))
        word_ids = rng.choice(config.vocab_size, size=n_words, p=probs)
        blocks = []
        word_ms = []
        phone_ms = []
        t = 0
        for w in word_ids:
            proto = prototypes[w]
            n = proto.shape[0] if config.mode == "continuous" else len(proto)
            word_ms.append((t * BLOCK_MS, (t + n) * BLOCK_MS))
            for b in range(n):
                label = (
                    str(int(proto[b])) if config.mode == "discrete" else None
                )
                phone_ms.append(((t + b) * BLOCK_MS, (t + b + 1) * BLOCK_MS, label))
            blocks.append(proto)
            t += n
        if config.mode == "continuous":
            frames = np.concatenate(blocks, axis=0)
            if config.noise_sigma > 0:
                frames = frames + rng.normal(
                    0.0, config.noise_sigma, size=frames.shape
                )
            utterances.append(FrameMatrix(uid, frames.astype("<f4")))
        else:
            utterances.append(
                SymbolSequence(uid, np.concatenate(blocks).astype("<i4"))
            )
        gold.words[uid] = word_ms
        gold.phones[uid] = phone_ms

    alphabet = (
        tuple(str(s) for s in range(config.alphabet_size))
        if config.mode == "discrete"
        else None
    )
    corpus = Corpus(utterances, mode=config.mode, alphabet=alphabet)
    words = [
        WordInfo(word_id=w, length=int(lengths[w]), rank=w + 1)
        for w in range(config.vocab_size)
    ]
    return corpus, gold, words


def _prototypes(config: GenConfig, lengths: np.ndarray, rng) -> list:
    if config.mode == "continuous":
        protos = []
        for n in lengths:
            blocks = rng.normal(size=(int(n), config.dim))
            norms = np.linalg.norm(blocks, axis=1, keepdims=True)
            protos.append(blocks / np.maximum(norms, 1e-12))
        return protos
    # Redrawing collisions ends only if each length has enough strings.
    drawn = np.bincount(lengths)
    for n in np.flatnonzero(drawn):
        strings = config.alphabet_size ** int(n)
        if drawn[n] > strings:
            raise ValueError(
                f"{drawn[n]} words of length {n} drawn, but only {strings} "
                f"strings of that length exist over {config.alphabet_size} symbols"
            )
    seen = set()
    protos = []
    for n in lengths:
        # Distinct symbol sequences per word type; collisions are redrawn.
        while True:
            symbols = tuple(int(s) for s in rng.integers(0, config.alphabet_size, int(n)))
            if symbols not in seen:
                seen.add(symbols)
                protos.append(np.array(symbols, dtype="<i4"))
                break
    return protos


def gold_segmentation(corpus: Corpus, gold: GoldAlignment) -> Segmentation:
    """Gold alignment expressed on the block grid (valid for synthetic data)."""
    bounds = {}
    for utt in corpus:
        words = gold.words[utt.utterance_id]
        edges = [s for s, _ in words] + [words[-1][1]]
        bounds[utt.utterance_id] = tuple(round(t / BLOCK_MS) for t in edges)
    return Segmentation(bounds)


def lexicon_lines(words: list[WordInfo]) -> list[str]:
    lines = ["word_id\tlength_blocks\tfrequency_rank"]
    lines += [f"{w.word_id}\t{w.length}\t{w.rank}" for w in words]
    return lines
