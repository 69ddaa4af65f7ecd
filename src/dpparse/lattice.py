"""Segmentation lattice, lazy N-best beam search, and softmax path sampling.

Nodes sit between blocks (0..n_blocks); each arc (i, j) is a candidate
token whose length respects the configured bounds.  A path is a chain of
arcs covering the whole utterance.  The N-best search returns what a beam
of ``beam`` prefixes per node returns, but lazily: each node merges the
streams of its incoming arcs in a heap, finds its best prefix in node
order, and builds a deeper one only when a later node needs it.  Work per
utterance is O(n_blocks * max_len) to start every stream, plus one heap
step per prefix pushed.  A node pushes about one prefix per prefix it
builds and builds at most ``beam``, usually far fewer; only where many
totals tie can the pushes approach the O(n_blocks * max_len * beam) of
building every node's full beam.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import inf, nextafter

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


def candidate_positions(n_blocks, starts, lengths, min_len: int, max_len: int):
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


@lru_cache(maxsize=4096)
def predecessors(n_blocks: int, min_len: int, max_len: int):
    """For each node j (0..n_blocks), the ``candidate_bounds`` positions of
    its incoming arcs as one ``array("l")``, nearest source first: the r-th
    is arc (j - min_len - r, j).
    """
    ends = np.arange(n_blocks + 1)[:, None]
    starts = np.maximum(ends - min_len - np.arange(max_len - min_len + 1), 0)
    table = candidate_positions(n_blocks, starts, ends - starts, min_len, max_len)
    counts = np.clip(ends[:, 0] - min_len + 1, 0, max_len - min_len + 1)
    return tuple(
        array("l", row[:count]) for row, count in zip(table.tolist(), counts.tolist())
    )


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

    The result is what a beam search of width ``beam`` returns, and
    ``tests/oracles.beam_paths`` is its spec: each node keeps its ``beam``
    best prefixes, ranked like the paths (higher total summed left to right
    first; ties prefer fewer segments, then the lexicographically smallest
    boundaries), and only those are extended.  That is the top of the
    ranking of all paths, unless rounding makes two different prefix
    totals equal once an arc is added: the tie-breaks then decide, and may
    favour a prefix the node already dropped.

    The search is lazy (Huang & Chiang, "Better k-best parsing", 2005).
    Node j merges one stream per arc (i, j), node i's prefixes with the arc
    added, in a heap.  Every node's best prefix is found in node order; a
    deeper one is built only when a later node takes the one before it.
    Adding an arc keeps a stream sorted except where rounding ties two
    different totals, and then a later prefix of the stream may rank
    first.  So before node j takes a prefix at a total it has not taken
    yet, every stream whose next prefix can round to that total is pushed
    up to the last one that does.

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
    # A prefix is (negated score, segment count, boundary tuple), so plain
    # tuple order ranks it.  Negating is exact: (-s) - a == -(s + a) under
    # round-to-nearest.  kept[j] holds node j's best prefixes, in order, and
    # never more than ``beam`` of them.
    kept: list[list] = [[] for _ in range(n + 1)]
    kept[0].append((0.0, 0, (0,)))
    # A heap entry is a prefix of node i with arc (i, j) added, still with
    # i's count and boundaries: every entry of node j gains one segment and
    # the boundary j, and two with equal counts end at different nodes, so
    # they differ before j and the order is the same.  Then come its rank q
    # in kept[i], i, and the arc's position o.  ahead[o] is the rank of the
    # next prefix stream o has not pushed.  owed[j] is the entry node j took
    # last if no later one of its stream is in the heap: that stream still
    # has to push its next prefix.  level[j] is the total at which node j's
    # streams were last pushed up to a tie.
    heaps: list[list] = [[] for _ in range(n + 1)]
    owed: list = [None] * (n + 1)
    level: list = [None] * (n + 1)
    ahead = [1] * len(scores)
    preds = predecessors(n, min_len, max_len)
    # (node, rank) requests: grow kept[node] to rank + 1 prefixes, or as far
    # as it goes.  A node that needs a deeper prefix of a source puts itself
    # and the request for the source on the stack, and is taken up again
    # once the source is served, so the depth is that of a list, not of
    # Python calls.
    stack = []
    for j in range(1, n + 1):
        heap = heaps[j]
        i = j - min_len
        for o in preds[j]:
            if kept[i]:
                neg, k, b = kept[i][0]
                heap.append((neg - scores[o], k, b, 0, i, o))
            i -= 1
        heapify(heap)
        rank = beam - 1 if j == n else 0
        while True:
            heap = heaps[j]
            e = owed[j]
            # The stream of the entry taken last pushes its next prefix.  If
            # node i has not built it yet and still can (its heap or its own
            # owed stream is not empty), node i is asked for it first.
            if e is not None:
                q = e[3] + 1
                i = e[4]
                src = kept[i]
                if q < len(src):
                    o = e[5]
                    neg, k, b = src[q]
                    heappush(heap, (neg - scores[o], k, b, q, i, o))
                    ahead[o] = q + 1
                elif q < beam and (heaps[i] or owed[i] is not None):
                    stack.append((j, rank))
                    j, rank = i, q
                    continue
                owed[j] = None
            if heap:
                e = heap[0]
                t = e[0]
                if t != level[j]:
                    # A new total: first the top's own stream, whose next
                    # prefix may round to t (nextafter tells if any prefix
                    # above the last one can), then any other entry at t.
                    q = e[3] + 1
                    o = e[5]
                    tied = False
                    if ahead[o] == q and q < beam:
                        i = e[4]
                        src = kept[i]
                        a = scores[o]
                        if nextafter(src[q - 1][0], inf) - a == t:
                            if q < len(src):
                                tied = src[q][0] - a == t
                            elif heaps[i] or owed[i] is not None:
                                stack.append((j, rank))
                                j, rank = i, q
                                continue
                    if not tied:
                        heappop(heap)
                        if heap and heap[0][0] == t:
                            heappush(heap, e)
                            tied = True
                    if tied:
                        needs = _push_ties(
                            heap, t, kept, ahead, scores, heaps, owed, beam
                        )
                        if needs:
                            stack.append((j, rank))
                            stack += needs
                            j, rank = stack.pop()
                            continue
                        e = heappop(heap)
                    level[j] = t
                else:
                    heappop(heap)
                out = kept[j]
                out.append((t, e[1] + 1, e[2] + (j,)))
                if ahead[e[5]] == e[3] + 1:
                    owed[j] = e
                if len(out) <= rank:
                    continue
            # Back to the latest request not yet served: several requests
            # for one node can be on the stack, and one serves the others.
            while stack:
                j, rank = stack.pop()
                if len(kept[j]) <= rank:
                    break
            else:
                break
    if not kept[n]:
        raise ValueError(f"no complete segmentation path over {n} blocks")
    # 0.0 - neg, not -neg: a zero total stays +0.0, as a plain sum gives it.
    result = NBestList([(bounds, 0.0 - neg) for neg, _, bounds in kept[n]])
    if memo is not None:
        memo[key] = result
    return result


def _push_ties(heap, t, kept, ahead, scores, heaps, owed, beam):
    """Push each stream whose last pushed entry is at the heap's lowest
    total ``t`` on to its last prefix that is at ``t`` once shifted.

    Returns the (node, rank) of every prefix that must be built before a
    stream can go on; none when every stream that can reach ``t`` is in
    the heap up to it.  Run again once they are built, each stream goes on
    where it stopped.
    """
    pushes = []
    needs = []
    for e in heap:
        if e[0] != t:
            continue
        q, i, o = e[3] + 1, e[4], e[5]
        if ahead[o] != q:
            continue
        src = kept[i]
        a = scores[o]
        v = src[q - 1][0]
        while q < beam and nextafter(v, inf) - a == t:
            if q == len(src):
                if heaps[i] or owed[i] is not None:
                    needs.append((i, q))
                break
            v, k, b = src[q]
            if v - a != t:
                break
            pushes.append((t, k, b, q, i, o))
            q += 1
        ahead[o] = q
    for x in pushes:
        heappush(heap, x)
    return needs


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
