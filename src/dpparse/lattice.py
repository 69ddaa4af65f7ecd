"""Segmentation lattice, N-best beam search, and softmax path sampling.

Nodes sit between blocks (0..n_blocks); each arc (i, j) is a candidate
token whose length respects the configured bounds.  A path is a chain of
arcs covering the whole utterance.  The N-best search keeps a beam of
prefixes per node and a running cut on their scores: a candidate prefix
is built only if it can still enter its node's beam, and the scan of a
predecessor's beam stops at the first one that cannot.  Work per
utterance is at most O(n_blocks * max_len * beam), and usually far less.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf

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


@lru_cache(maxsize=4096)
def arc_offsets(n_blocks: int, min_len: int, max_len: int) -> tuple[int, ...]:
    """Position of each start's first arc in ``candidate_bounds`` order.

    Arc (i, j) sits at ``arc_offsets(...)[i] + (j - i - min_len)``.
    """
    starts, _ends = candidate_bounds(n_blocks, min_len, max_len)
    return tuple(np.searchsorted(starts, np.arange(n_blocks)).tolist())


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
    is the sum of its arc scores.  ``cdf`` caches the softmax CDF of the
    last temperature it was asked for, so decodes that share a list (through
    the N-best memo) share its CDF.
    """

    paths: list[tuple[tuple[int, ...], float]]
    _cdf: tuple[float, list[float]] | None = field(
        default=None, compare=False, repr=False
    )

    def __len__(self):
        return len(self.paths)

    def boundaries(self, i: int) -> tuple[int, ...]:
        return self.paths[i][0]

    def scores(self) -> np.ndarray:
        return np.array([s for _, s in self.paths], dtype=np.float64)

    def cdf(self, temperature: float) -> list[float]:
        """Cumulative softmax of total scores over ``temperature``
        (max-subtracted), one entry per path."""
        if self._cdf is None or self._cdf[0] != temperature:
            logits = self.scores() / temperature
            logits -= logits.max()
            probs = np.exp(logits)
            probs /= probs.sum()
            self._cdf = (temperature, np.cumsum(probs).tolist())
        return self._cdf[1]


def nbest(lattice: ScoredLattice, beam: int, memo: dict | None = None) -> NBestList:
    """The ``beam`` best complete paths, best first, for any ``beam``.

    Each node keeps its ``beam`` best prefixes, ranked like the paths (see
    below), and only those are extended.  Extending two prefixes by one
    arc keeps their order, so the result is the top of a ranking of all
    paths, unless rounding makes two different prefix totals equal once
    an arc is added: the tie-breaks then decide, and may favour a prefix
    the node already dropped.

    With ``memo``, a lattice whose sizes and arc score bits equal an
    earlier one's returns that earlier result without a search.  The
    caller owns the dict and decides how long it lives.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    n, min_len, max_len = lattice.n_blocks, lattice.min_len, lattice.max_len
    scores = lattice.scores
    if memo is not None:
        key = (n, min_len, max_len, beam, array("d", scores).tobytes())
        found = memo.get(key)
        if found is not None:
            return found
    first = arc_offsets(n, min_len, max_len)
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
        #
        # ``cut`` is the beam-th smallest negated score among the candidates
        # kept so far; one above it has ``beam`` strictly better ones and is
        # never built.  A beam is sorted and subtracting one arc is monotone,
        # so the first such candidate ends its predecessor's scan.  Ties at
        # the cut are kept: count and boundaries decide among them.  The
        # kept list is cut back to ``beam`` only once it holds twice that,
        # which sorts less often.
        candidates = []
        cut = inf
        for i in range(max(0, j - max_len), j - min_len + 1):
            arc = scores[first[i] + j - i - min_len]
            for neg, k, b in beams[i]:
                shifted = neg - arc
                if shifted > cut:
                    break
                candidates.append((shifted, k, b))
            if len(candidates) >= 2 * beam:
                candidates.sort()
                del candidates[beam:]
                cut = candidates[-1][0]
        candidates.sort()
        beams[j] = [(neg, k + 1, b + (j,)) for neg, k, b in candidates[:beam]]
    if not beams[n]:
        raise ValueError(f"no complete segmentation path over {n} blocks")
    # 0.0 - neg, not -neg: a zero total stays +0.0, as a plain sum gives it.
    result = NBestList([(bounds, 0.0 - neg) for neg, _, bounds in beams[n]])
    if memo is not None:
        memo[key] = result
    return result


def sample_path(nbest_list: NBestList, temperature: float, u: float) -> tuple[int, ...]:
    """Draw one path from the softmax of total scores: the first whose
    cumulative probability exceeds the uniform draw ``u`` in [0, 1)."""
    if not nbest_list.paths:
        raise ValueError("empty n-best list")
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    cum = nbest_list.cdf(temperature)
    i = min(bisect_right(cum, u), len(cum) - 1)
    return nbest_list.paths[i][0]
