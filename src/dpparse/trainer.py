"""Outer segmentation loop: seed, precompute base tables, iterate.

Each iteration (1) rebuilds the token lexicon from the current
segmentation and (2) re-segments every utterance by sampling from the
N-best paths of its scored lattice.  The whole corpus is one batch: the
lexicon is frozen while utterances are decoded, so results do not depend
on utterance processing order or worker count.  Per-utterance RNG
streams are derived from (seed, iteration, utterance id).  In discrete
mode, setup gives every candidate a type id (``candidate_types``) that
keys the count stores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import time
from dataclasses import dataclass, field
from typing import Protocol

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
    n_candidates,
    nbest,
    sample_path,
)
from dpparse.scoring import DPParams, arc_scores_batch, word_probabilities

logger = logging.getLogger(__name__)

# Queries are flushed to the kNN index in groups of roughly this many rows.
_GROUP_QUERIES = 16384

# Discrete candidates are counted in slices of this many.
_COUNT_SLICE = 2048

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


@dataclass(frozen=True)
class CandidateTypes:
    """Type id of every candidate of a discrete corpus.

    ``ids`` holds one int32 id per candidate in corpus candidate order
    (utterance order, then ``candidate_bounds`` order); two candidates share
    an id iff they cover equal symbol strings, and the ids are dense in
    ``0 .. n_types - 1``.  The candidates of the utterance at corpus
    position ``p`` are ``ids[offsets[p] : offsets[p + 1]]``.
    """

    ids: np.ndarray
    offsets: np.ndarray
    n_types: int


@dataclass
class TrainerState:
    """Everything carried between iterations.

    ``types`` are computed once, in ``init_state``, for a discrete corpus
    (None for a continuous one).
    """

    iteration: int
    segmentation: Segmentation
    base_probs: dict[str, np.ndarray]
    beta: float | None
    n_base: int
    types: CandidateTypes | None


def init_segmentation(corpus: Corpus, max_len: int = 20) -> Segmentation:
    """Seed lexicon: whole short utterances as single tokens.

    Utterances longer than ``max_len`` blocks contribute nothing; an
    empty seed is legal (scores then reduce to the base distribution).
    """
    return Segmentation(
        {u.utterance_id: (0, u.n_blocks) for u in corpus if u.n_blocks <= max_len}
    )


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


def _token_bounds(corpus: Corpus, segmentation: Segmentation):
    """(position, utterance, boundaries) per utterance of a segmentation, in
    ``segmentation.tokens()`` order.

    A token of an utterance the corpus lacks, or one that ends past its
    utterance, is rejected here, before any backend counts or embeds it (a
    ``Segmentation``'s boundaries already rise strictly from 0).
    """
    checked = []
    for utt_id, bounds in segmentation.items():
        if utt_id not in corpus:
            raise ValueError(
                f"segmentation names utterance {utt_id!r}, not in the corpus"
            )
        utt = corpus.utterance(utt_id)
        if bounds[-1] > utt.n_blocks:
            raise ValueError(
                f"token [{bounds[-2]}, {bounds[-1]}) ends past utterance "
                f"{utt_id!r} of {utt.n_blocks} blocks"
            )
        checked.append((corpus.position(utt_id), utt, bounds))
    return checked


def _token_group(corpus: Corpus, segmentation: Segmentation):
    """The tokens of a segmentation as a group, checked by ``_token_bounds``."""
    group = []
    for _code, utt, bounds in _token_bounds(corpus, segmentation):
        b = np.array(bounds, dtype=np.int64)
        group.append((utt, b[:-1], b[1:]))
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


def _ordinals(n_blocks, starts, lengths, min_len: int, max_len: int):
    """Position of candidate [start, start + length) among the candidates of
    its ``n_blocks``-block utterance, in ``candidate_bounds`` order.

    Each start before ``start`` holds ``max_len - min_len + 1`` candidates
    while ``max_len`` blocks fit after it (the first ``full`` starts), then
    one candidate fewer per start.
    """
    full = np.clip(n_blocks - max_len + 1, 0, starts)
    rest = starts - full
    return (
        full * (max_len - min_len + 1)
        + rest * (n_blocks - min_len + 1)
        - rest * (full + starts - 1) // 2
        + lengths
        - min_len
    )


def candidate_types(corpus: Corpus, min_len: int, max_len: int) -> CandidateTypes:
    """Type ids of every candidate of a discrete corpus (see
    ``CandidateTypes``).

    Per length L, the candidates' symbol windows are gathered as one
    ``(rows, L)`` array whose rows are viewed as opaque ``4 L``-byte strings
    and numbered by ``np.unique``; ids of longer strings follow.
    """
    n_blocks = np.array([u.n_blocks for u in corpus], dtype=np.int64)
    counts = [n_candidates(n, min_len, max_len) for n in n_blocks.tolist()]
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    symbols = np.concatenate([u.symbols for u in corpus] or [np.empty(0, "<i4")])
    first_block = np.cumsum(n_blocks) - n_blocks
    ids = np.empty(offsets[-1], dtype=np.int32)
    n_types = 0
    for length in range(min_len, max_len + 1):
        utts = np.flatnonzero(n_blocks >= length)
        if not len(utts):
            break
        n_starts = n_blocks[utts] - length + 1
        utt = np.repeat(utts, n_starts)
        first_row = np.cumsum(n_starts) - n_starts
        starts = np.arange(len(utt)) - np.repeat(first_row, n_starts)
        windows = symbols[(first_block[utt] + starts)[:, None] + np.arange(length)]
        strings = windows.view(np.dtype((np.void, windows.itemsize * length)))
        unique, inverse = np.unique(strings.ravel(), return_inverse=True)
        ordinals = offsets[utt] + _ordinals(
            n_blocks[utt], starts, length, min_len, max_len
        )
        ids[ordinals] = inverse + n_types
        n_types += len(unique)
    return CandidateTypes(ids, offsets, n_types)


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
        lexicon.  ``group`` is one of ``_utterance_groups``: consecutive
        corpus utterances with all their candidates.  The kNN and discrete
        backends leave out instances that overlap the candidate in time."""


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
    """Text-mode stores: exact multiset counts with overlap exclusion, keyed
    by candidate type id (a lexicon token is a candidate, so it has one)."""

    def __init__(self, corpus: Corpus, config: TrainerConfig, types: CandidateTypes):
        self.corpus = corpus
        self.config = config
        self.types = types

    def build_base(self, sampled: np.ndarray):
        store = DiscreteCountStore()
        add = store.add
        ids = self.types.ids[sampled]
        done = 0
        for utt, starts, ends in _sampled_group(self.corpus, self.config, sampled):
            code = self.corpus.position(utt.utterance_id)
            keys = ids[done : done + len(starts)].tolist()
            for key, a, b in zip(keys, starts.tolist(), ends.tolist()):
                add(key, code, a, b)
            done += len(starts)
        return store, None

    def build_lexicon(self, segmentation: Segmentation):
        config = self.config
        codes, sizes, starts, ends = [], [], [], []
        for code, utt, bounds in _token_bounds(self.corpus, segmentation):
            codes += [code] * (len(bounds) - 1)
            sizes += [utt.n_blocks] * (len(bounds) - 1)
            starts += bounds[:-1]
            ends += bounds[1:]
        lengths = np.subtract(ends, starts)
        bad = np.flatnonzero((lengths < config.min_len) | (lengths > config.max_len))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"token [{starts[i]}, {ends[i]}) of utterance "
                f"{self.corpus.utterances[codes[i]].utterance_id!r} is not "
                f"{config.min_len}..{config.max_len} blocks long"
            )
        ordinals = self.types.offsets[codes] + _ordinals(
            np.array(sizes), np.array(starts), lengths, config.min_len, config.max_len
        )
        store = DiscreteCountStore()
        add = store.add
        for key, code, a, b in zip(
            self.types.ids[ordinals].tolist(), codes, starts, ends
        ):
            add(key, code, a, b)
        return store

    def lexicon_frequencies(self, lexicon, group, beta) -> np.ndarray:
        # A type the store does not hold counts 0, so only the candidates of
        # held types are asked.
        offsets = self.types.offsets
        first = offsets[self.corpus.position(group[0][0].utterance_id)]
        starts = np.concatenate([s for _, s, _ in group])
        ends = np.concatenate([e for _, _, e in group])
        types = self.types.ids[first : first + len(starts)]
        held = np.zeros(self.types.n_types, dtype=bool)
        held[np.fromiter(lexicon.keys(), dtype=np.int64)] = True
        asked = np.flatnonzero(held[types])
        freqs = np.zeros(len(types))
        # Asked in slices: the Python ints of a whole group's provenance
        # would add about 1.2 MB to the setup's peak memory.
        for lo in range(0, len(asked), _COUNT_SLICE):
            part = asked[lo : lo + _COUNT_SLICE]
            codes = np.searchsorted(offsets, first + part, side="right") - 1
            counts = map(
                lexicon.count_excluding_overlaps,
                types[part].tolist(),
                codes.tolist(),
                starts[part].tolist(),
                ends[part].tolist(),
            )
            freqs[part] = np.fromiter(counts, dtype=np.float64, count=len(part))
        return freqs


def _tables_for(
    corpus: Corpus, config: TrainerConfig, types: CandidateTypes | None
) -> FrequencyTables:
    if corpus.mode == "discrete":
        return _DiscreteTables(corpus, config, types)
    if config.frequency_backend == "kmeans":
        return _KMeansTables(corpus, config)
    return _KnnTables(corpus, config)


# ---------------------------------------------------------------------------
# spec operations

def build_base(
    corpus: Corpus, config: TrainerConfig, types: CandidateTypes | None = None
):
    """Subsample the candidate pool, build the base store, cache priors.

    Returns (base_index, base_probs, beta, n_base).  A candidate's prior
    is its frequency in the base store over the pool size ``n_base``; the
    priors are constant across iterations and cached per utterance in
    ``candidate_bounds`` order.  A discrete corpus's candidate ``types``
    are computed here when not given.
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
    if corpus.mode == "discrete" and types is None:
        types = candidate_types(corpus, config.min_len, config.max_len)
    tables = _tables_for(corpus, config, types)
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
    types = None
    if corpus.mode == "discrete":
        types = candidate_types(corpus, config.min_len, config.max_len)
    _base_index, base_probs, beta, n_base = build_base(corpus, config, types)
    return TrainerState(
        iteration=0,
        segmentation=seed_seg,
        base_probs=base_probs,
        beta=beta,
        n_base=n_base,
        types=types,
    )


def run_iteration(
    state: TrainerState, corpus: Corpus, config: TrainerConfig
) -> TrainerState:
    """One rebuild-lexicon / re-segment pass over the whole corpus.

    The new segmentation replaces the old only after every utterance has
    been decoded; its token count becomes the lexicon mass of the NEXT
    iteration, never this one.
    """
    tables = _tables_for(corpus, config, state.types)
    n_lexicon = state.segmentation.n_tokens
    lexicon = tables.build_lexicon(state.segmentation) if n_lexicon else None
    iteration = state.iteration + 1
    new_bounds: dict[str, tuple[int, ...]] = {}
    for group in _utterance_groups(corpus, config):
        if lexicon is None:
            lex_freqs = np.zeros(sum(len(s) for _, s, _ in group))
        else:
            lex_freqs = tables.lexicon_frequencies(lexicon, group, state.beta)
        for (utt, starts, ends), lex in zip(group, _split(group, lex_freqs)):
            uid = utt.utterance_id
            word_probs = word_probabilities(
                lex, state.base_probs[uid], n_lexicon, config.dp
            )
            arc = arc_scores_batch(word_probs, ends - starts, config.dp)
            lattice = ScoredLattice(
                utt.n_blocks, config.min_len, config.max_len, arc.tolist()
            )
            paths = nbest(lattice, config.beam)
            rng = _utterance_rng(config.seed, uid, iteration)
            new_bounds[uid] = sample_path(paths, config.temperature, rng)
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

