"""Outer segmentation loop: seed, precompute base tables, iterate.

Setup enumerates every candidate segment of the corpus once, as the rows
of one ``Candidates`` table (with a type id per row in discrete mode), and
builds the run's one frequency backend.  The base pool and each
iteration's lexicon are sets of its rows, and the priors and lexicon
frequencies are arrays aligned with them, each looked up in one pass over
the table.  Each iteration (1) rebuilds the token lexicon from the current
segmentation (``lexicon_word_probabilities``) and (2) re-segments every
utterance by sampling from the N-best paths of its scored lattice, which
reads the utterance's slice of those arrays.  The whole corpus is one
batch: the lexicon is frozen while utterances are decoded, so results do
not depend on utterance processing order or worker count.  Utterances
with equal blocks (a corpus may repeat utterances) are decoded one after
another, and equal lattices among them share one N-best search (and so
one softmax CDF); that memo lives for one group of one iteration.  An
arc's score adds a length term that depends only on the lattice's shape,
so each iteration computes the terms once per utterance length.  Each
utterance samples its path with its own uniform draw, keyed by (seed,
iteration, utterance id): it is the first double of numpy's
``default_rng(SeedSequence((seed, iteration, digest)))``, where the
digest hashes the utterance id.  One array pass per iteration computes
every utterance's draw (``_sampling_draws``), so no generator is built
per decode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from dpparse.core import (
    BLOCK_MS,
    Corpus,
    Segmentation,
    untileable_utterances,
    validate_corpus,
)
from dpparse.density import (
    DensityParams,
    DiscreteCountStore,
    InstanceIndex,
    KMeansModel,
    calibrate_beta,
)
from dpparse.embed import UtteranceEmbedder
from dpparse.lattice import (
    ScoredLattice,
    candidate_bounds,
    candidate_positions,
    n_candidates,
    nbest,
    sample_path,
)
from dpparse.scoring import (
    EPS,
    DPParams,
    arc_scores_batch,
    length_terms,
    word_probabilities,
)

logger = logging.getLogger(__name__)

# Continuous backends embed and look up candidates this many rows at a
# time, which bounds the query embeddings to rows x 4 dim x 8 bytes (512 KiB
# at dim 16).  A group's temporaries then fit in the heap that glibc keeps:
# at 4096 rows they did not, and every group touched fresh pages (8x the
# minor page faults, +30% iteration time on the benchmark corpus).  (Where
# the slices start fixes where the kNN GEMM blocks start, so another value
# may move continuous frequencies in their last bits.)
_GROUP_QUERIES = 1024

# Discrete candidates are added and counted in slices of this many.
_COUNT_SLICE = 2048

# The kernel's inverse width where the base pool gives no width to
# calibrate (``density.calibrate_beta`` returns None).
_FALLBACK_BETA = 1.0


@dataclass(frozen=True)
class TrainerConfig:
    n_iterations: int = 10
    beam: int = 10
    l0_subsample: int = 1_000_000
    seed: int = 0
    # Read by nothing in dpparse: kept only because the perfbench benchmark
    # sets and records it (``trainer.workers``).
    workers: int | None = None
    min_len: int = 1
    max_len: int = 20
    temperature: float = 1.0
    # 0: the instance lexicon (kNN).  N >= 1: the k-means type lexicon of N
    # clusters (continuous corpora only).
    kmeans_clusters: int = 0
    dp: DPParams = field(default_factory=DPParams)
    density: DensityParams = field(default_factory=DensityParams)
    # Base-pool entries that beta is calibrated on.
    calibration_sample: ClassVar[int] = 10_000

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("trainer.n_iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"trainer.seed must be >= 0, got {self.seed}")
        if self.l0_subsample < 1:
            raise ValueError("trainer.l0_subsample must be >= 1")
        if self.beam < 1:
            raise ValueError("trainer.beam must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(
                "need 1 <= trainer.min_len <= trainer.max_len, got "
                f"{self.min_len} and {self.max_len}"
            )
        if not 0 < self.temperature < np.inf:
            raise ValueError("trainer.temperature must be > 0 and finite")
        if self.kmeans_clusters < 0:
            raise ValueError("trainer.kmeans_clusters must be >= 0")
        with np.errstate(over="ignore"):  # the term grows with length
            longest = length_terms(self.max_len, self.dp)
        if not np.isfinite(longest):
            raise ValueError(
                f"the length term of a {self.max_len}-block token overflows "
                f"(dp.gamma {self.dp.gamma:g}, dp.delta {self.dp.delta:g})"
            )


@dataclass(frozen=True)
class Candidates:
    """Every candidate segment of a corpus, one row each.

    Rows are in corpus candidate order: utterance order, then
    ``candidate_bounds`` order.  Row r covers blocks ``[starts[r], ends[r])``
    of the utterance at corpus position ``codes[r]``, and the rows of the
    utterance at position p are ``offsets[p] : offsets[p + 1]``.  Every
    store holds rows of this table.  For a discrete corpus, ``type_ids``
    holds one int32 id per row: two rows share an id iff they cover equal
    symbol strings, and the ids are dense in ``0 .. n_types - 1``.  For a
    continuous corpus it is None.
    """

    codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    offsets: np.ndarray
    type_ids: np.ndarray | None = None
    n_types: int = 0

    def __len__(self) -> int:
        return len(self.codes)


@dataclass
class TrainerState:
    """Everything carried between iterations.

    ``tables``, the run's frequency backend (``_tables_for``) over its
    ``candidates``, ``base_probs``, the prior of each candidate,
    ``groups`` (``equal_block_groups``) and ``digests``, the uint64
    ``_utt_digest`` of each utterance in corpus order, are built once, in
    ``init_state``.
    """

    iteration: int
    segmentation: Segmentation
    base_probs: np.ndarray
    beta: float | None
    n_base: int
    tables: _EmbeddedTables | _DiscreteTables = field(compare=False)
    groups: tuple[tuple[int, ...], ...]
    digests: np.ndarray

    @property
    def candidates(self) -> Candidates:
        return self.tables.candidates


def init_segmentation(corpus: Corpus, max_len: int = 20) -> Segmentation:
    """Seed lexicon: whole short utterances as single tokens.

    Utterances longer than ``max_len`` blocks contribute nothing; an
    empty seed is legal (scores then reduce to the base distribution).
    """
    return Segmentation(
        {u.utterance_id: (0, u.n_blocks) for u in corpus if u.n_blocks <= max_len}
    )


def equal_block_groups(corpus: Corpus) -> tuple[tuple[int, ...], ...]:
    """Utterance positions grouped by equal blocks, groups in order of
    their first utterance; every utterance is in exactly one group."""
    groups: dict[bytes, list[int]] = {}
    for code, utt in enumerate(corpus):
        blocks = utt.symbols if corpus.mode == "discrete" else utt.data
        digest = hashlib.blake2b(np.ascontiguousarray(blocks)).digest()
        groups.setdefault(digest, []).append(code)
    return tuple(tuple(codes) for codes in groups.values())


# ---------------------------------------------------------------------------
# RNG derivation

def _utt_digest(utterance_id: str) -> int:
    return int.from_bytes(
        hashlib.sha256(utterance_id.encode("utf-8")).digest()[:8], "little"
    )


def _derived_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


# numpy's SeedSequence (a pool of four uint32 words) and PCG64 (XSL-RR),
# as far as ``default_rng(SeedSequence(entropy)).random()`` needs them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _words32(n: int, what: str) -> list[int]:
    """Little-endian 32-bit words of ``n``, as SeedSequence splits an int."""
    if n < 0:
        raise ValueError(f"{what} must be >= 0, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of each row of an
    ``(n, L)`` uint32 array.  The hash constant steps the same way for every
    row, so each step is one operation on a column; uint32 arrays wrap."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_L * x - _MIX_R * y
        return result ^ result >> 16

    n, length = entropy.shape
    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < length else zeros) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for i in range(4, length):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, i]))
    h = _INIT_B
    words = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        words[:, i] = value ^ value >> 16
    return words.view(np.uint64)


def _first_double(w0: int, w1: int, w2: int, w3: int) -> float:
    """First ``random()`` of a PCG64 seeded with the state words w0..w3."""
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    s = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
    s = (s * _PCG_MULT + inc) & _MASK128
    x = (s >> 64 ^ s) & _MASK64
    r = s >> 122
    x = (x >> r | x << (64 - r)) & _MASK64
    return (x >> 11) * 2.0**-53


def _sampling_draws(seed: int, iteration: int, digests: np.ndarray) -> np.ndarray:
    """The uniform draw of each utterance for one iteration, by its uint64
    ``_utt_digest``: bit for bit
    ``default_rng(SeedSequence((seed, iteration, digest))).random()``.

    A digest below 2**32 is one entropy word, a larger one two, so the
    utterances are seeded in two batches.
    """
    prefix = _words32(seed, "seed") + _words32(iteration, "iteration")
    lo = (digests & _MASK32).astype(np.uint32)
    hi = (digests >> 32).astype(np.uint32)
    draws = np.empty(len(digests))
    for rows, words in ((hi == 0, [lo]), (hi != 0, [lo, hi])):
        rows = np.flatnonzero(rows)
        entropy = np.empty((len(rows), len(prefix) + len(words)), dtype=np.uint32)
        entropy[:, : len(prefix)] = prefix
        for j, word in enumerate(words, len(prefix)):
            entropy[:, j] = word[rows]
        states = _seed_states(entropy).tolist()
        draws[rows] = [_first_double(*state) for state in states]
    return draws


_TAG_SUBSAMPLE = 101
_TAG_CALIBRATION = 102
_TAG_KMEANS_BASE = 103
_TAG_KMEANS_ITER = 104


# ---------------------------------------------------------------------------
# the candidate table

def candidate_table(corpus: Corpus, min_len: int, max_len: int) -> Candidates:
    """The ``Candidates`` of a corpus, with type ids if it is discrete.

    Per length L, the rows' symbol windows are gathered as one ``(rows, L)``
    array whose rows are viewed as opaque ``4 L``-byte strings and numbered
    by ``np.unique``; ids of longer strings follow.
    """
    counts = [n_candidates(u.n_blocks, min_len, max_len) for u in corpus]
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    # int32 rows: the table lives for the whole run, next to the stores.
    codes = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    bounds = [candidate_bounds(u.n_blocks, min_len, max_len) for u in corpus]
    empty = np.empty(0, dtype=np.int32)
    starts = np.concatenate([empty, *(s for s, _ in bounds)], dtype=np.int32)
    ends = np.concatenate([empty, *(e for _, e in bounds)], dtype=np.int32)
    if corpus.mode != "discrete":
        return Candidates(codes, starts, ends, offsets)
    n_blocks = np.array([u.n_blocks for u in corpus], dtype=np.int64)
    symbols = np.concatenate([u.symbols for u in corpus] or [np.empty(0, "<i4")])
    first_symbol = (np.cumsum(n_blocks) - n_blocks)[codes] + starts
    lengths = ends - starts
    type_ids = np.empty(len(codes), dtype=np.int32)
    n_types = 0
    for length in range(min_len, max_len + 1):
        rows = np.flatnonzero(lengths == length)
        if not len(rows):
            break
        windows = symbols[first_symbol[rows, None] + np.arange(length)]
        strings = windows.view(np.dtype((np.void, windows.itemsize * length)))
        unique, inverse = np.unique(strings.ravel(), return_inverse=True)
        type_ids[rows] = inverse + n_types
        n_types += len(unique)
    return Candidates(codes, starts, ends, offsets, type_ids, n_types)


def _token_rows(
    corpus: Corpus,
    config: TrainerConfig,
    candidates: Candidates,
    segmentation: Segmentation,
) -> np.ndarray:
    """Rows of a segmentation's tokens, in ``segmentation.tokens()`` order.

    A token with no row (of an utterance the corpus lacks, ending past its
    utterance, or of inadmissible length) is rejected here, before any
    backend counts or embeds it.  A ``Segmentation``'s boundaries already
    rise strictly from 0.
    """
    codes, sizes, starts, ends = [], [], [], []
    for utt_id, bounds in segmentation.items():
        if utt_id not in corpus:
            raise ValueError(
                f"segmentation names utterance {utt_id!r}, not in the corpus"
            )
        code = corpus.position(utt_id)
        n_blocks = corpus.utterances[code].n_blocks
        if bounds[-1] > n_blocks:
            raise ValueError(
                f"token [{bounds[-2]}, {bounds[-1]}) ends past utterance "
                f"{utt_id!r} of {n_blocks} blocks"
            )
        codes += [code] * (len(bounds) - 1)
        sizes += [n_blocks] * (len(bounds) - 1)
        starts += bounds[:-1]
        ends += bounds[1:]
    lengths = np.subtract(ends, starts)
    bad = np.flatnonzero((lengths < config.min_len) | (lengths > config.max_len))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"token [{starts[i]}, {ends[i]}) of utterance "
            f"{corpus.utterances[codes[i]].utterance_id!r} is not "
            f"{config.min_len}..{config.max_len} blocks long"
        )
    return candidates.offsets[codes] + candidate_positions(
        np.array(sizes), np.array(starts), lengths, config.min_len, config.max_len
    )


# ---------------------------------------------------------------------------
# frequency backends

class _EmbeddedTables:
    """Continuous-mode tables: candidates are embedded by one corpus-wide
    ``UtteranceEmbedder`` and looked up ``_GROUP_QUERIES`` rows at a time."""

    def __init__(self, corpus: Corpus, config: TrainerConfig, candidates: Candidates):
        self.config = config
        self.candidates = candidates
        self._embedder = UtteranceEmbedder(corpus.utterances)

    def _embeddings(self, rows) -> np.ndarray:
        c = self.candidates
        return self._embedder.embed_many(c.codes[rows], c.starts[rows], c.ends[rows])

    def frequencies(self, store, beta) -> np.ndarray:
        freqs = np.empty(len(self.candidates))
        for lo in range(0, len(freqs), _GROUP_QUERIES):
            rows = slice(lo, lo + _GROUP_QUERIES)
            freqs[rows] = self._lookup(store, rows, beta)
        return freqs


class _KnnTables(_EmbeddedTables):
    """Continuous-mode stores: exact-kNN indexes and kernel soft counts."""

    def build_base(self, rows: np.ndarray):
        index = self.build_lexicon(rows)
        return index, self._calibrate(index)

    def _calibrate(self, index: InstanceIndex) -> float:
        config = self.config
        rng = _derived_rng(config.seed, _TAG_CALIBRATION)
        m = min(config.calibration_sample, index.n)
        rows = np.sort(rng.choice(index.n, size=m, replace=False))
        beta = calibrate_beta(index, rows, config.density.k)
        if beta is not None:
            return beta
        logger.warning(
            "no kernel width to calibrate from a base pool of %d entries; "
            "using beta=%g",
            index.n,
            _FALLBACK_BETA,
        )
        return _FALLBACK_BETA

    def build_lexicon(self, rows: np.ndarray):
        c = self.candidates
        vectors = self._embeddings(rows)
        return InstanceIndex(vectors, c.codes[rows], c.starts[rows], c.ends[rows])

    def _lookup(self, index, rows, beta) -> np.ndarray:
        c = self.candidates
        vectors = self._embeddings(rows)
        k = self.config.density.k
        return index.kernel_frequencies_arrays(
            vectors, c.codes[rows], c.starts[rows], c.ends[rows], k, beta
        )


class _KMeansTables(_EmbeddedTables):
    """Ablation backend: frequencies are cluster sizes, no exclusion."""

    def build_base(self, rows: np.ndarray):
        return self._fit(rows, _TAG_KMEANS_BASE), None

    def build_lexicon(self, rows: np.ndarray):
        return self._fit(rows, _TAG_KMEANS_ITER)

    def _fit(self, rows: np.ndarray, tag: int) -> KMeansModel:
        config = self.config
        vectors = self._embeddings(rows)
        seed = int(np.random.SeedSequence((config.seed, tag)).generate_state(1)[0])
        model = KMeansModel(min(config.kmeans_clusters, len(vectors)), seed=seed)
        return model.fit(vectors)

    def _lookup(self, model, rows, beta) -> np.ndarray:
        return model.frequencies(self._embeddings(rows))


class _DiscreteTables:
    """Text-mode stores: exact multiset counts with overlap exclusion, keyed
    by candidate type id.  A store holds each row's utterance position and
    start; the type fixes the length, so a row's end is read only when it
    is counted.

    Rows are turned into Python ints ``_COUNT_SLICE`` at a time: those of a
    whole base pool would add to the setup's peak memory.
    """

    def __init__(self, candidates: Candidates):
        self.candidates = candidates

    def build_base(self, rows: np.ndarray):
        return self.build_lexicon(rows), None

    def build_lexicon(self, rows: np.ndarray):
        c = self.candidates
        store = DiscreteCountStore()
        add = store.add
        for lo in range(0, len(rows), _COUNT_SLICE):
            part = rows[lo : lo + _COUNT_SLICE]
            for key, code, start in zip(
                c.type_ids[part].tolist(),
                c.codes[part].tolist(),
                c.starts[part].tolist(),
            ):
                add(key, code, start)
        return store

    def frequencies(self, store, beta) -> np.ndarray:
        # A type the store does not hold counts 0, so only the candidates of
        # held types are asked.
        c = self.candidates
        held = np.zeros(c.n_types, dtype=bool)
        held[np.fromiter(store.keys(), dtype=np.int64)] = True
        asked = np.flatnonzero(held[c.type_ids])
        freqs = np.zeros(len(c))
        for lo in range(0, len(asked), _COUNT_SLICE):
            part = asked[lo : lo + _COUNT_SLICE]
            counts = map(
                store.count_excluding_overlaps,
                c.type_ids[part].tolist(),
                c.codes[part].tolist(),
                c.starts[part].tolist(),
                c.ends[part].tolist(),
            )
            freqs[part] = np.fromiter(counts, dtype=np.float64, count=len(part))
        return freqs


def _tables_for(corpus: Corpus, config: TrainerConfig, candidates: Candidates):
    """The run's backend: ``build_base``, ``build_lexicon``, ``frequencies``."""
    if corpus.mode == "discrete":
        return _DiscreteTables(candidates)
    if config.kmeans_clusters:
        return _KMeansTables(corpus, config, candidates)
    return _KnnTables(corpus, config, candidates)


# ---------------------------------------------------------------------------
# spec operations

def build_base(tables: _EmbeddedTables | _DiscreteTables, config: TrainerConfig):
    """Subsample the candidate pool, build the base store, cache priors.

    Returns (base store, base_probs, beta, n_base).  A candidate's prior is
    its frequency in the base store over the pool size ``n_base``; the
    priors are constant across iterations and cached in one array, a prior
    per row of ``tables.candidates``.
    """
    total = len(tables.candidates)
    if total == 0:
        raise ValueError("corpus has no candidate segments")
    n_base = min(config.l0_subsample, total)
    if n_base < total:
        rng = _derived_rng(config.seed, _TAG_SUBSAMPLE)
        sampled = np.sort(rng.choice(total, size=n_base, replace=False))
    else:
        sampled = np.arange(total)
    base, beta = tables.build_base(sampled)
    base_probs = tables.frequencies(base, beta) / n_base
    return base, base_probs, beta, n_base


def check_mode(mode: str, config: TrainerConfig) -> None:
    """Refuse settings that do not apply to a corpus of ``mode``."""
    if mode == "discrete" and config.kmeans_clusters:
        raise ValueError("trainer.kmeans_clusters is for continuous corpora only")


def _check_temperature(corpus: Corpus, config: TrainerConfig) -> None:
    """Refuse a temperature at which a path's total over it can overflow.

    A word probability is in [0, 1], so an arc scores at most -log(EPS)
    plus the length term of ``max_len`` in magnitude, and a path has at
    most one arc per block.  An infinite total over the temperature would
    make the sampling CDF NaN.
    """
    arc = -math.log(EPS) + abs(float(length_terms(config.max_len, config.dp)))
    longest = max(utt.n_blocks for utt in corpus.utterances)
    if not math.isfinite(longest * arc / config.temperature):
        raise ValueError(
            f"trainer.temperature {config.temperature!r} is too small: path "
            f"scores of a {longest}-block utterance over it overflow"
        )


def init_state(corpus: Corpus, config: TrainerConfig) -> TrainerState:
    """Validate, seed the segmentation, and precompute base tables."""
    report = validate_corpus(corpus)
    if not report.ok:
        raise ValueError(f"invalid corpus:\n{report}")
    untileable = untileable_utterances(corpus, config.min_len, config.max_len)
    if untileable:
        raise ValueError(
            f"utterances that segments of {config.min_len}..{config.max_len} "
            "blocks cannot tile: " + ", ".join(untileable[:10])
        )
    check_mode(corpus.mode, config)
    _check_temperature(corpus, config)
    seed_seg = init_segmentation(corpus, config.max_len)
    candidates = candidate_table(corpus, config.min_len, config.max_len)
    tables = _tables_for(corpus, config, candidates)
    _base, base_probs, beta, n_base = build_base(tables, config)
    return TrainerState(
        iteration=0,
        segmentation=seed_seg,
        base_probs=base_probs,
        beta=beta,
        n_base=n_base,
        tables=tables,
        groups=equal_block_groups(corpus),
        digests=np.array(
            [_utt_digest(u.utterance_id) for u in corpus], dtype=np.uint64
        ),
    )


def lexicon_word_probabilities(
    state: TrainerState,
    corpus: Corpus,
    config: TrainerConfig,
    segmentation: Segmentation,
) -> np.ndarray:
    """Word probability of every row of ``state.candidates``, with the
    tokens of ``segmentation`` as the lexicon of the state's backend."""
    n_lexicon = segmentation.n_tokens
    if n_lexicon:
        tables = state.tables
        lexicon = tables.build_lexicon(
            _token_rows(corpus, config, state.candidates, segmentation)
        )
        lex_freqs = tables.frequencies(lexicon, state.beta)
    else:
        lex_freqs = np.zeros(len(state.candidates))
    return word_probabilities(lex_freqs, state.base_probs, n_lexicon, config.dp)


def run_iteration(
    state: TrainerState, corpus: Corpus, config: TrainerConfig
) -> TrainerState:
    """One rebuild-lexicon / re-segment pass over the whole corpus.

    The new segmentation replaces the old only after every utterance has
    been decoded; its token count becomes the lexicon mass of the NEXT
    iteration, never this one.
    """
    word_probs = lexicon_word_probabilities(state, corpus, config, state.segmentation)
    offsets = state.candidates.offsets.tolist()
    iteration = state.iteration + 1
    draws = _sampling_draws(config.seed, iteration, state.digests).tolist()
    utterances = corpus.utterances
    bounds: list = [None] * len(utterances)
    # The length term of each arc, per utterance length: it depends on the
    # lattice's shape only.
    terms_of: dict[int, np.ndarray] = {}
    # Utterances with equal blocks are decoded one after another and share
    # a memo, so that equal lattices share one N-best list.  A memo lives
    # for one group, so it holds at most that group's lists.
    for group in state.groups:
        searched = {} if len(group) > 1 else None
        for code in group:
            utt = utterances[code]
            rows = slice(offsets[code], offsets[code + 1])
            terms = terms_of.get(utt.n_blocks)
            if terms is None:
                starts, ends = candidate_bounds(
                    utt.n_blocks, config.min_len, config.max_len
                )
                terms = terms_of[utt.n_blocks] = length_terms(ends - starts, config.dp)
            arc = arc_scores_batch(word_probs[rows], terms)
            lattice = ScoredLattice(
                utt.n_blocks, config.min_len, config.max_len, arc.tolist()
            )
            paths = nbest(lattice, config.beam, searched)
            bounds[code] = sample_path(paths, config.temperature, draws[code])
    new_bounds = {utt.utterance_id: b for utt, b in zip(utterances, bounds)}
    return dataclasses.replace(
        state, iteration=iteration, segmentation=Segmentation(new_bounds)
    )


def train(corpus: Corpus, config: TrainerConfig, log_stream=None) -> Segmentation:
    """Full run: seeding, base precompute, and the iteration budget.

    The iteration budget is fixed; no convergence test is applied.  One
    log line per iteration reports the token count, mean token length in
    ms, and wall time.
    """
    t0 = time.perf_counter()
    state = init_state(corpus, config)
    logger.info(
        "initialized: %d utterances, base pool %d, beta %s, %.2fs",
        len(corpus),
        state.n_base,
        f"{state.beta:.4g}" if state.beta is not None else "n/a",
        time.perf_counter() - t0,
    )
    for _ in range(config.n_iterations):
        t_iter = time.perf_counter()
        state = run_iteration(state, corpus, config)
        seg = state.segmentation
        line = (
            f"iteration={state.iteration} tokens={seg.n_tokens} "
            f"mean_token_ms={seg.mean_token_blocks() * BLOCK_MS:.1f} "
            f"wall_s={time.perf_counter() - t_iter:.2f}"
        )
        logger.info("%s", line)
        if log_stream is not None:
            log_stream.write(line + "\n")
    return state.segmentation

