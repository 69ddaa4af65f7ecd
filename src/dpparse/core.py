"""Core domain types: frame matrices, segments, segmentations, alignments.

All time-like quantities are handled in 40ms block indices internally;
milliseconds appear only at file boundaries.  Conversion is floor for
start times and ceil for end times, which round-trips block-aligned
values exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BLOCK_MS = 40.0


def ms_to_start_block(ms: float) -> int:
    return int(math.floor(ms / BLOCK_MS))


def ms_to_end_block(ms: float) -> int:
    return int(math.ceil(ms / BLOCK_MS))


def block_to_ms(block: int) -> float:
    return block * BLOCK_MS


@dataclass(frozen=True)
class Segment:
    """Half-open block interval [start, end) within one utterance."""

    utterance_id: str
    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(
                f"invalid segment [{self.start}, {self.end}) in {self.utterance_id!r}"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


class FrameMatrix:
    """Dense per-utterance matrix of embedding blocks (n_blocks x dim)."""

    __slots__ = ("utterance_id", "data")

    def __init__(self, utterance_id: str, data: np.ndarray):
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"{utterance_id!r}: frame matrix must be 2-D")
        self.utterance_id = utterance_id
        self.data = data

    @property
    def n_blocks(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"FrameMatrix({self.utterance_id!r}, {self.n_blocks}x{self.dim})"


class SymbolSequence:
    """Per-utterance sequence of discrete unit ids (one symbol = one block)."""

    __slots__ = ("utterance_id", "symbols")

    def __init__(self, utterance_id: str, symbols):
        self.utterance_id = utterance_id
        self.symbols = np.ascontiguousarray(symbols, dtype="<i4")
        if self.symbols.ndim != 1:
            raise ValueError(f"{utterance_id!r}: symbols must be 1-D")

    @property
    def n_blocks(self) -> int:
        return self.symbols.shape[0]

    def __repr__(self):
        return f"SymbolSequence({self.utterance_id!r}, {self.n_blocks})"


@dataclass
class Corpus:
    """Ordered collection of utterances, all continuous or all discrete."""

    utterances: list
    mode: str = "continuous"
    alphabet: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"unknown corpus mode {self.mode!r}")
        self._positions = {u.utterance_id: i for i, u in enumerate(self.utterances)}

    def __len__(self):
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    def __contains__(self, utterance_id: str):
        return utterance_id in self._positions

    def position(self, utterance_id: str) -> int:
        """Index of the utterance in ``utterances``."""
        return self._positions[utterance_id]

    def utterance(self, utterance_id: str):
        return self.utterances[self._positions[utterance_id]]


class Segmentation:
    """Per-utterance ordered lists of contiguous, covering segments."""

    def __init__(self, segments: dict[str, list[Segment]] | None = None):
        self._segments: dict[str, tuple[Segment, ...]] = {}
        if segments:
            for utt_id, segs in segments.items():
                self.set_utterance(utt_id, segs)

    def set_utterance(self, utterance_id: str, segments) -> None:
        segs = tuple(segments)
        for s in segs:
            if s.utterance_id != utterance_id:
                raise ValueError(f"segment {s} filed under {utterance_id!r}")
        self._segments[utterance_id] = segs

    @staticmethod
    def from_boundaries(per_utterance: dict[str, tuple[int, ...]]) -> "Segmentation":
        seg = Segmentation()
        for utt_id, bounds in per_utterance.items():
            seg.set_utterance(
                utt_id,
                [Segment(utt_id, a, b) for a, b in zip(bounds[:-1], bounds[1:])],
            )
        return seg

    def __contains__(self, utterance_id: str):
        return utterance_id in self._segments

    def __getitem__(self, utterance_id: str) -> tuple[Segment, ...]:
        return self._segments[utterance_id]

    def get(self, utterance_id: str, default=()):
        return self._segments.get(utterance_id, default)

    def items(self):
        return self._segments.items()

    def utterance_ids(self):
        return self._segments.keys()

    def tokens(self):
        for segs in self._segments.values():
            yield from segs

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self._segments.values())

    def boundaries(self, utterance_id: str) -> tuple[int, ...]:
        segs = self._segments[utterance_id]
        return tuple(s.start for s in segs) + (segs[-1].end,)

    def mean_token_blocks(self) -> float:
        n = self.n_tokens
        if n == 0:
            return 0.0
        return sum(s.length for s in self.tokens()) / n

    def validate(self, corpus: Corpus) -> list[str]:
        """Return human-readable violations of the covering invariant."""
        errors = []
        for utt_id, segs in self._segments.items():
            if utt_id not in corpus:
                errors.append(f"{utt_id}: not in corpus")
                continue
            n_blocks = corpus.utterance(utt_id).n_blocks
            if not segs:
                errors.append(f"{utt_id}: empty segment list")
                continue
            if segs[0].start != 0:
                errors.append(f"{utt_id}: first segment starts at {segs[0].start}")
            for a, b in zip(segs[:-1], segs[1:]):
                if b.start != a.end:
                    errors.append(f"{utt_id}: gap/overlap at block {a.end}")
            if segs[-1].end != n_blocks:
                errors.append(
                    f"{utt_id}: last segment ends at {segs[-1].end}, expected {n_blocks}"
                )
        return errors

    def __eq__(self, other):
        return (
            isinstance(other, Segmentation) and self._segments == other._segments
        )

    def __len__(self):
        return len(self._segments)

    def __repr__(self):
        return f"Segmentation({len(self._segments)} utterances, {self.n_tokens} tokens)"


@dataclass
class GoldAlignment:
    """Reference word and phoneme intervals, in milliseconds.

    ``words`` maps utterance id to (start, end) pairs tiling the utterance;
    ``phones`` maps to (start, end, label) triples, label may be None.
    """

    words: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    phones: dict[str, list[tuple[float, float, str | None]]] = field(
        default_factory=dict
    )

    def validate(self) -> list[str]:
        errors = []
        for utt_id, ws in self.words.items():
            if not ws:
                errors.append(f"{utt_id}: no word intervals")
                continue
            if ws[0][0] != 0:
                errors.append(f"{utt_id}: first word starts at {ws[0][0]}")
            for (s, e) in ws:
                if not s < e:
                    errors.append(f"{utt_id}: empty word interval at {s}")
            for (_, e1), (s2, _) in zip(ws[:-1], ws[1:]):
                if s2 != e1:
                    errors.append(f"{utt_id}: word gap at {e1}")
            ph = self.phones.get(utt_id)
            if ph:
                edges = {p[0] for p in ph} | {p[1] for p in ph}
                for b in {w[0] for w in ws} | {w[1] for w in ws}:
                    if b not in edges:
                        errors.append(
                            f"{utt_id}: word boundary {b} is not a phoneme edge"
                        )
        return errors


@dataclass
class ValidationReport:
    """List of (utterance_id, message) invariant violations; empty means valid."""

    issues: list[tuple[str | None, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, utterance_id: str | None, message: str) -> None:
        self.issues.append((utterance_id, message))

    def __str__(self):
        if self.ok:
            return "corpus valid"
        return "\n".join(
            f"{utt or '<corpus>'}: {msg}" for utt, msg in self.issues
        )


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Check every corpus invariant, reporting all violations found."""
    report = ValidationReport()
    seen = set()
    dim = None
    for utt in corpus.utterances:
        uid = utt.utterance_id
        if uid in seen:
            report.add(uid, "duplicate utterance id")
        seen.add(uid)
        if utt.n_blocks < 1:
            report.add(uid, "utterance has no blocks")
        if isinstance(utt, FrameMatrix):
            if corpus.mode != "continuous":
                report.add(uid, "frame matrix in a discrete corpus")
            if utt.dim < 1:
                report.add(uid, "embedding dimension < 1")
            elif dim is None:
                dim = utt.dim
            elif utt.dim != dim:
                report.add(uid, f"dim {utt.dim} != corpus dim {dim}")
            if not np.all(np.isfinite(utt.data)):
                report.add(uid, "non-finite value in frame matrix")
        elif isinstance(utt, SymbolSequence):
            if corpus.mode != "discrete":
                report.add(uid, "symbol sequence in a continuous corpus")
            if utt.n_blocks and utt.symbols.min() < 0:
                report.add(uid, "negative symbol id")
        else:
            report.add(uid, f"unknown utterance type {type(utt).__name__}")
    return report


def untileable_utterances(corpus: Corpus, min_len: int, max_len: int) -> list[str]:
    """Ids of utterances that no segments of min_len..max_len blocks can tile.

    k segments can tile n blocks iff k*min_len <= n <= k*max_len, so some k
    can iff the fewest that reach n, k = ceil(n / max_len), can.
    """
    return [
        u.utterance_id
        for u in corpus
        if -(-u.n_blocks // max_len) * min_len > u.n_blocks
    ]


def pair_frames(frames: np.ndarray, utterance_id: str = "") -> FrameMatrix:
    """Tie successive 20ms rows into 40ms blocks by concatenation.

    Output block t is the concatenation of input rows 2t and 2t+1; a
    trailing odd row is dropped.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValueError("frames must be 2-D")
    n = frames.shape[0]
    if n < 2:
        raise ValueError(f"{utterance_id!r}: utterance too short")
    n_pairs = n // 2
    paired = frames[: 2 * n_pairs].reshape(n_pairs, 2 * frames.shape[1])
    return FrameMatrix(utterance_id, paired)
