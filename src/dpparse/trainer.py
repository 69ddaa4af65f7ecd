"""Outer segmentation loop: seed, precompute base tables, iterate.

Each iteration (1) rebuilds the token lexicon from the current
segmentation and (2) re-segments every utterance by sampling from the
N-best paths of its scored lattice.  The whole corpus is one batch: the
lexicon is frozen while utterances are decoded, so results do not depend
on utterance processing order or worker count.  Per-utterance RNG
streams are derived from (seed, iteration, utterance id).
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import time
from dataclasses import dataclass, field
from itertools import starmap
from typing import Protocol

import numpy as np

from dpparse.core import (
    Corpus,
    Segment,
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
    n_candidates,
    nbest,
    sample_path,
)
from dpparse.scoring import DPParams, arc_scores_batch, word_probabilities

logger = logging.getLogger(__name__)

# Queries are flushed to the kNN index in groups of roughly this many rows.
_GROUP_QUERIES = 16384

# What candidates are counted against: the base store built once from the
# sampled candidate pool, and the lexicon rebuilt from each segmentation.
# Which type is used depends on the frequency backend (see FrequencyTables).
Store = InstanceIndex | KMeansModel | DiscreteCountStore


@dataclass(frozen=True)
class TrainerConfig:
    n_iterations: int = 10
    beam: int = 10
    l0_subsample: int = 1_000_000
    seed: int = 0
    # Read by nothing in dpparse: kept only because the perfbench benchmark
    # sets and records it (``--workers``, ``trainer.workers``).
    workers: int | None = None
    min_len: int = 1
    max_len: int = 20
    temperature: float = 1.0
    frequency_backend: str = "knn"  # "knn" or "kmeans" (continuous corpora)
    kmeans_clusters: int = 0
    calibration_sample: int = 10_000
    normalize: bool = False
    dp: DPParams = field(default_factory=DPParams)
    density: DensityParams = field(default_factory=DensityParams)

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if self.l0_subsample < 1:
            raise ValueError("l0_subsample must be >= 1")
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if not self.temperature > 0:
            raise ValueError("temperature must be > 0")
        if self.frequency_backend not in ("knn", "kmeans"):
            raise ValueError(f"unknown frequency backend {self.frequency_backend!r}")
        if self.frequency_backend == "kmeans" and self.kmeans_clusters < 1:
            raise ValueError("kmeans backend needs kmeans_clusters >= 1")
        if self.calibration_sample < 100:
            raise ValueError("calibration_sample must be >= 100")


@dataclass
class TrainerState:
    """Everything carried between iterations."""

    iteration: int
    segmentation: Segmentation
    base_probs: dict[str, np.ndarray]
    beta: float | None
    n_base: int
    n_lexicon: int  # token mass of the last iteration's lexicon


def init_segmentation(corpus: Corpus, max_len: int = 20) -> Segmentation:
    """Seed lexicon: whole short utterances as single tokens.

    Utterances longer than ``max_len`` blocks contribute nothing; an
    empty seed is legal (scores then reduce to the base distribution).
    """
    seg = Segmentation()
    for utt in corpus:
        if utt.n_blocks <= max_len:
            seg.set_utterance(
                utt.utterance_id, [Segment(utt.utterance_id, 0, utt.n_blocks)]
            )
    return seg


# ---------------------------------------------------------------------------
# RNG derivation

def _utt_digest(utterance_id: str) -> int:
    return int.from_bytes(
        hashlib.sha256(utterance_id.encode("utf-8")).digest()[:8], "little"
    )


def _utterance_rng(seed: int, utterance_id: str, iteration: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed, iteration, _utt_digest(utterance_id)))
    )


def _derived_rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


_TAG_SUBSAMPLE = 101
_TAG_CALIBRATION = 102
_TAG_KMEANS_BASE = 103
_TAG_KMEANS_ITER = 104


# ---------------------------------------------------------------------------
# candidate groups
#
# A group is a sequence of (utterance, starts, ends): candidate segments
# of some utterances, in corpus order.  Frequencies and embeddings of a group
# are laid out in the same order.

def _utterance_groups(corpus: Corpus, config: TrainerConfig):
    """Yield utterance groups of roughly _GROUP_QUERIES candidates."""
    group, total = [], 0
    for utt in corpus:
        starts, ends = candidate_bounds(utt.n_blocks, config.min_len, config.max_len)
        group.append((utt, starts, ends))
        total += len(starts)
        if total >= _GROUP_QUERIES:
            yield group
            group, total = [], 0
    if group:
        yield group


def _sampled_group(corpus: Corpus, config: TrainerConfig, sampled: np.ndarray):
    """Yield the base pool: ``sampled`` holds sorted ordinals into the
    corpus-wide candidate enumeration."""
    offset = 0
    for utt in corpus:
        starts, ends = candidate_bounds(utt.n_blocks, config.min_len, config.max_len)
        lo, hi = np.searchsorted(sampled, [offset, offset + len(starts)])
        if lo < hi:
            local = sampled[lo:hi] - offset
            yield utt, starts[local], ends[local]
        offset += len(starts)


def _token_group(corpus: Corpus, segmentation: Segmentation):
    """The tokens of a segmentation, in ``segmentation.tokens()`` order.

    A token of an utterance the corpus lacks, or one that ends past its
    utterance, is rejected here, before any backend counts or embeds it (a
    ``Segment`` already has 0 <= start < end).
    """
    group = []
    for utt_id, segs in segmentation.items():
        if utt_id not in corpus:
            raise ValueError(
                f"segmentation names utterance {utt_id!r}, not in the corpus"
            )
        utt = corpus.utterance(utt_id)
        ends = [s.end for s in segs]
        if max(ends, default=0) > utt.n_blocks:
            bad = next(s for s in segs if s.end > utt.n_blocks)
            raise ValueError(
                f"token {bad} ends past utterance {utt_id!r} of {utt.n_blocks} blocks"
            )
        starts = np.array([s.start for s in segs], dtype=np.int64)
        group.append((utt, starts, np.array(ends, dtype=np.int64)))
    return group


def _split(group, values: np.ndarray):
    """Yield the per-utterance slices of ``values``."""
    offset = 0
    for _utt, starts, _ends in group:
        yield values[offset : offset + len(starts)]
        offset += len(starts)


def _group_embeddings(group, normalize: bool) -> np.ndarray:
    parts = [
        UtteranceEmbedder(utt, normalize).embed_many(starts, ends)
        for utt, starts, ends in group
    ]
    return np.concatenate(parts, axis=0)


def _provenance(corpus: Corpus, group):
    """(codes, starts, ends) of a group's candidates: the corpus position of
    each candidate's utterance and its block interval."""
    codes = [np.full(len(s), corpus.position(u.utterance_id)) for u, s, _ in group]
    starts = [s for _, s, _ in group]
    ends = [e for _, _, e in group]
    return np.concatenate(codes), np.concatenate(starts), np.concatenate(ends)


def _keyed_instances(corpus: Corpus, group):
    """Yield (key, code, start, end) per candidate of a discrete group, with
    provenance as in ``_provenance``; equal keys mean equal symbol strings."""
    for utt, starts, ends in group:
        code = corpus.position(utt.utterance_id)
        raw, size = utt.symbols.tobytes(), utt.symbols.itemsize
        for a, b in zip(starts.tolist(), ends.tolist()):
            yield raw[a * size : b * size], code, a, b


# ---------------------------------------------------------------------------
# frequency backends

class FrequencyTables(Protocol):
    """How a frequency backend counts candidates.

    Both stores are instance lexicons of the tables' corpus: the base store
    holds the sampled candidate pool, a lexicon the tokens of one segmentation.
    """

    def build_base(self, sampled: np.ndarray) -> tuple[Store, float | None]:
        """Base store of the candidates at the sorted corpus-wide ordinals
        ``sampled``, and the kernel beta (None when the backend has none)."""

    def build_lexicon(self, segmentation: Segmentation) -> Store:
        """Lexicon of a segmentation's tokens; it has at least one."""

    def lexicon_frequencies(
        self, lexicon: Store, group, beta: float | None
    ) -> np.ndarray:
        """Frequency of each candidate of ``group`` in a base store or a
        lexicon.  The kNN and discrete backends leave out instances that
        overlap the candidate in time."""


class _KnnTables:
    """Continuous-mode stores: exact-kNN indexes and kernel soft counts."""

    def __init__(self, corpus: Corpus, config: TrainerConfig):
        self.corpus = corpus
        self.config = config

    def build_base(self, sampled: np.ndarray):
        index = self._index(list(_sampled_group(self.corpus, self.config, sampled)))
        return index, self._calibrate(index)

    def _calibrate(self, index: InstanceIndex) -> float:
        config = self.config
        if index.n < 100:
            logger.warning(
                "base pool too small to calibrate (%d entries); using beta=%g",
                index.n,
                config.density.beta,
            )
            return config.density.beta
        rng = _derived_rng(config.seed, _TAG_CALIBRATION)
        m = min(config.calibration_sample, index.n)
        rows = np.sort(rng.choice(index.n, size=m, replace=False))
        return calibrate_beta(index, rows, config.density.k, config.density.epsilon_f)

    def build_lexicon(self, segmentation: Segmentation):
        return self._index(_token_group(self.corpus, segmentation))

    def _index(self, group) -> InstanceIndex:
        vectors = _group_embeddings(group, self.config.normalize)
        return InstanceIndex(vectors, *_provenance(self.corpus, group))

    def lexicon_frequencies(self, lexicon, group, beta) -> np.ndarray:
        config = self.config
        params = DensityParams(config.density.k, beta, config.density.epsilon_f)
        embs = _group_embeddings(group, config.normalize)
        return lexicon.kernel_frequencies_arrays(
            embs, *_provenance(self.corpus, group), params
        )


class _KMeansTables:
    """Ablation backend: frequencies are cluster sizes, no exclusion."""

    def __init__(self, corpus: Corpus, config: TrainerConfig):
        self.corpus = corpus
        self.config = config

    def build_base(self, sampled: np.ndarray):
        group = _sampled_group(self.corpus, self.config, sampled)
        return self._fit(group, _TAG_KMEANS_BASE), None

    def build_lexicon(self, segmentation: Segmentation):
        return self._fit(_token_group(self.corpus, segmentation), _TAG_KMEANS_ITER)

    def _fit(self, group, tag: int) -> KMeansModel:
        config = self.config
        vectors = _group_embeddings(group, config.normalize)
        seed = int(np.random.SeedSequence((config.seed, tag)).generate_state(1)[0])
        model = KMeansModel(min(config.kmeans_clusters, len(vectors)), seed=seed)
        return model.fit(vectors)

    def lexicon_frequencies(self, lexicon, group, beta) -> np.ndarray:
        return lexicon.frequencies(_group_embeddings(group, self.config.normalize))


class _DiscreteTables:
    """Text-mode stores: exact multiset counts with overlap exclusion."""

    def __init__(self, corpus: Corpus, config: TrainerConfig):
        self.corpus = corpus
        self.config = config

    def build_base(self, sampled: np.ndarray):
        return self._store(_sampled_group(self.corpus, self.config, sampled)), None

    def build_lexicon(self, segmentation: Segmentation):
        return self._store(_token_group(self.corpus, segmentation))

    def _store(self, group) -> DiscreteCountStore:
        store = DiscreteCountStore()
        for instance in _keyed_instances(self.corpus, group):
            store.add(*instance)
        return store

    def lexicon_frequencies(self, lexicon, group, beta) -> np.ndarray:
        counts = starmap(
            lexicon.count_excluding_overlaps, _keyed_instances(self.corpus, group)
        )
        return np.fromiter(counts, dtype=np.float64)


def _tables_for(corpus: Corpus, config: TrainerConfig) -> FrequencyTables:
    if corpus.mode == "discrete":
        return _DiscreteTables(corpus, config)
    if config.frequency_backend == "kmeans":
        return _KMeansTables(corpus, config)
    return _KnnTables(corpus, config)


# ---------------------------------------------------------------------------
# spec operations

def build_base(corpus: Corpus, config: TrainerConfig):
    """Subsample the candidate pool, build the base store, cache priors.

    Returns (base_index, base_probs, beta, n_base).  A candidate's prior
    is its frequency in the base store over the pool size ``n_base``; the
    priors are constant across iterations and cached per utterance in
    ``candidate_bounds`` order.
    """
    total = sum(
        n_candidates(u.n_blocks, config.min_len, config.max_len) for u in corpus
    )
    if total == 0:
        raise ValueError("corpus has no candidate segments")
    n_base = min(config.l0_subsample, total)
    if n_base < total:
        rng = _derived_rng(config.seed, _TAG_SUBSAMPLE)
        sampled = np.sort(rng.choice(total, size=n_base, replace=False))
    else:
        sampled = np.arange(total)
    tables = _tables_for(corpus, config)
    base_index, beta = tables.build_base(sampled)
    base_probs = {}
    for group in _utterance_groups(corpus, config):
        freqs = tables.lexicon_frequencies(base_index, group, beta)
        for (utt, _starts, _ends), probs in zip(group, _split(group, freqs / n_base)):
            base_probs[utt.utterance_id] = probs
    return base_index, base_probs, beta, n_base


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
    if corpus.mode == "discrete" and config.frequency_backend == "kmeans":
        raise ValueError("kmeans backend applies to continuous corpora only")
    seed_seg = init_segmentation(corpus, config.max_len)
    _base_index, base_probs, beta, n_base = build_base(corpus, config)
    return TrainerState(
        iteration=0,
        segmentation=seed_seg,
        base_probs=base_probs,
        beta=beta,
        n_base=n_base,
        n_lexicon=0,
    )


def run_iteration(
    state: TrainerState, corpus: Corpus, config: TrainerConfig
) -> TrainerState:
    """One rebuild-lexicon / re-segment pass over the whole corpus.

    The new segmentation replaces the old only after every utterance has
    been decoded; its token count becomes the lexicon mass of the NEXT
    iteration, never this one.
    """
    tables = _tables_for(corpus, config)
    n_lexicon = state.segmentation.n_tokens
    lexicon = tables.build_lexicon(state.segmentation) if n_lexicon else None
    iteration = state.iteration + 1
    dp = dataclasses.replace(config.dp, n_lexicon=float(n_lexicon))
    new_bounds: dict[str, tuple[int, ...]] = {}
    for group in _utterance_groups(corpus, config):
        if lexicon is None:
            lex_freqs = np.zeros(sum(len(s) for _, s, _ in group))
        else:
            lex_freqs = tables.lexicon_frequencies(lexicon, group, state.beta)
        for (utt, starts, ends), lex in zip(group, _split(group, lex_freqs)):
            uid = utt.utterance_id
            word_probs = word_probabilities(lex, state.base_probs[uid], dp)
            arc = arc_scores_batch(word_probs, ends - starts, dp)
            lattice = ScoredLattice(
                utt.n_blocks, config.min_len, config.max_len, arc.tolist()
            )
            paths = nbest(lattice, config.beam)
            rng = _utterance_rng(config.seed, uid, iteration)
            new_bounds[uid] = sample_path(paths, config.temperature, rng)
    new_seg = Segmentation.from_boundaries(new_bounds)
    return dataclasses.replace(
        state,
        iteration=iteration,
        segmentation=new_seg,
        n_lexicon=n_lexicon,
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
            f"mean_token_ms={seg.mean_token_blocks() * 40.0:.1f} "
            f"wall_s={time.perf_counter() - t_iter:.2f}"
        )
        logger.info("%s", line)
        if log_stream is not None:
            log_stream.write(line + "\n")
    return state.segmentation

