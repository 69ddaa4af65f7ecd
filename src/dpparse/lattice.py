"""Segmentation lattice, N-best beam search, and softmax path sampling.

Nodes sit between blocks (0..n_blocks); each arc (i, j) is a candidate
token whose length respects the configured bounds.  A path is a chain of
arcs covering the whole utterance.  Work per utterance is
O(n_blocks * max_len * beam).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4096)
def candidate_bounds(n_blocks: int, min_len: int, max_len: int):
    """(starts, ends) arrays of all candidates, by start then length.

    This order numbers the arcs of a lattice: the candidate at position
    ``o`` is the arc whose score is ``ScoredLattice.scores[o]``.
    """
    starts, ends = [], []
    for i in range(n_blocks):
        top = min(max_len, n_blocks - i)
        for length in range(min_len, top + 1):
            starts.append(i)
            ends.append(i + length)
    s = np.array(starts, dtype=np.int64)
    e = np.array(ends, dtype=np.int64)
    s.setflags(write=False)
    e.setflags(write=False)
    return s, e


def n_candidates(n_blocks: int, min_len: int, max_len: int) -> int:
    return len(candidate_bounds(n_blocks, min_len, max_len)[0])


@dataclass
class ScoredLattice:
    """All admissible arcs of one utterance with their scores.

    ``scores`` holds one score per arc, in ``candidate_bounds`` order.
    """

    n_blocks: int
    min_len: int
    max_len: int
    scores: list[float]

    def __post_init__(self):
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.n_blocks < self.min_len:
            raise ValueError(
                "utterance shorter than minimum segment "
                f"({self.n_blocks} < {self.min_len})"
            )
        n = n_candidates(self.n_blocks, self.min_len, self.max_len)
        if len(self.scores) != n:
            raise ValueError(f"{len(self.scores)} arc scores for {n} arcs")

    @property
    def n_arcs(self) -> int:
        return len(self.scores)


@dataclass
class NBestList:
    """Complete paths with non-increasing total scores.

    Each path is the full boundary sequence (0, ..., n_blocks); its score
    is the sum of its arc scores.
    """

    paths: list[tuple[tuple[int, ...], float]]

    def __len__(self):
        return len(self.paths)

    def boundaries(self, i: int) -> tuple[int, ...]:
        return self.paths[i][0]

    def scores(self) -> np.ndarray:
        return np.array([s for _, s in self.paths], dtype=np.float64)


def nbest(lattice: ScoredLattice, beam: int) -> NBestList:
    """The ``beam`` best complete paths, best first, for any ``beam``.

    Extending paths by the same arc keeps their order, so each node's beam
    holds every prefix of the best ``beam`` paths through it.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    n, min_len, max_len = lattice.n_blocks, lattice.min_len, lattice.max_len
    scores = lattice.scores
    # Arc (i, j) sits at ordinal first[i] + (j - i - min_len).
    starts, _ends = candidate_bounds(n, min_len, max_len)
    first = np.searchsorted(starts, np.arange(n)).tolist()
    # hypothesis = (negated score, segment count, boundary tuple), so plain
    # tuple order ranks it: higher score first; ties prefer fewer segments,
    # then the lexicographically smallest boundary sequence.  Negating is
    # exact: (-s) - a == -(s + a) under round-to-nearest.
    beams: list[list] = [[] for _ in range(n + 1)]
    beams[0] = [(0.0, 0, (0,))]
    for j in range(1, n + 1):
        # A candidate keeps its predecessor's count and boundaries until it
        # survives the cut: the arc into j adds one segment and the boundary
        # j to all of them, and two with equal counts end at different
        # nodes, so they differ before j.  The order is the same.
        candidates = []
        for i in range(max(0, j - max_len), j - min_len + 1):
            arc = scores[first[i] + j - i - min_len]
            candidates += [(neg - arc, k, b) for neg, k, b in beams[i]]
        candidates.sort()
        beams[j] = [(neg, k + 1, b + (j,)) for neg, k, b in candidates[:beam]]
    if not beams[n]:
        raise ValueError(f"no complete segmentation path over {n} blocks")
    # 0.0 - neg, not -neg: a zero total stays +0.0, as a plain sum gives it.
    return NBestList([(bounds, 0.0 - neg) for neg, _, bounds in beams[n]])


def sample_path(
    nbest_list: NBestList, temperature: float, rng: np.random.Generator
) -> tuple[int, ...]:
    """Draw one path from the softmax of total scores (max-subtracted)."""
    if not nbest_list.paths:
        raise ValueError("empty n-best list")
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    logits = nbest_list.scores() / temperature
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    u = rng.random()
    i = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    i = min(i, len(probs) - 1)
    return nbest_list.paths[i][0]
