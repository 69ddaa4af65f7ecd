"""Independent reference implementations used only by tests.

These deliberately avoid the library's code paths: nearest neighbours by
pointwise linear scan, n-best by exhaustive path enumeration (or, for
the beam search's own definition, by ranking every prefix at every node),
overlap exclusion by a loop over neighbours, and score formulas
evaluated directly.
"""

import math
import statistics

import numpy as np


def linear_scan_knn(vectors: np.ndarray, query: np.ndarray, k: int):
    """Exact kNN by pointwise distances; ties break on the smaller index."""
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    d = np.empty(vectors.shape[0])
    for i in range(vectors.shape[0]):
        diff = vectors[i] - query
        d[i] = float(np.dot(diff, diff))
    order = np.lexsort((np.arange(vectors.shape[0]), d))[: min(k, len(d))]
    return order, d[order]


def enumerate_paths(n_blocks: int, scores: dict, min_len: int, max_len: int):
    """All complete boundary sequences with totals summed left-to-right,
    sorted by (-score, n_segments, boundaries)."""
    paths = []

    def walk(pos, bounds, total):
        if pos == n_blocks:
            paths.append((bounds, total))
            return
        for length in range(min_len, min(max_len, n_blocks - pos) + 1):
            arc = scores.get((pos, pos + length))
            if arc is None:
                continue
            walk(pos + length, bounds + (pos + length,), total + arc)

    walk(0, (0,), 0.0)
    paths.sort(key=lambda p: (-p[1], len(p[0]) - 1, p[0]))
    return paths


def beam_paths(n_blocks: int, scores: dict, min_len: int, max_len: int, beam: int):
    """What a beam search of width ``beam`` returns: each node keeps its
    ``beam`` best prefixes, ranked like ``enumerate_paths`` ranks paths
    (totals summed left to right), and only those are extended.  Every
    candidate prefix at every node is ranked, none skipped."""
    kept = {0: [((0,), 0.0)]}
    for j in range(1, n_blocks + 1):
        prefixes = [
            (bounds + (j,), total + scores[(i, j)])
            for i in range(j)
            if min_len <= j - i <= max_len and (i, j) in scores
            for bounds, total in kept[i]
        ]
        prefixes.sort(key=lambda p: (-p[1], len(p[0]) - 1, p[0]))
        kept[j] = prefixes[:beam]
    return kept[n_blocks]


def direct_word_probability(lexicon_freq, base_prob, alpha0, n_lexicon):
    # Single-fraction form: algebraically equal to the two-term mix but
    # rounded differently, which is the point of an independent oracle.
    return (lexicon_freq + alpha0 * base_prob) / (n_lexicon + alpha0)


def direct_length_penalty(len_blocks, gamma, delta):
    x = (len_blocks - 1) / delta
    if x == 0.0:
        return 0.0
    return math.exp(gamma * math.log(x)) if x > 0 else x**gamma


def direct_arc_score(word_prob, len_blocks, *, epsilon_log, gamma, delta, sign):
    return math.log(word_prob + epsilon_log) + sign * direct_length_penalty(
        len_blocks, gamma, delta
    )


def count_excluding_overlaps(instances, key, code: int, start: int, end: int):
    """Instances ``(key, code, start, end)`` with an equal key, less those of
    utterance ``code`` whose interval strictly intersects ``[start, end)``."""
    same = [(c, s, e) for k, c, s, e in instances if k == key]
    crossing = [1 for c, s, e in same if c == code and s < end and start < e]
    return len(same) - len(crossing)


def overlap_mask(
    codes, starts, ends, neighbor_idx, query_codes, query_starts, query_ends
):
    """True where neighbour ``neighbor_idx[r, c]`` of query ``r`` has the
    query's code and an interval strictly intersecting the query's."""
    mask = np.zeros(np.shape(neighbor_idx), dtype=bool)
    for r, row in enumerate(neighbor_idx):
        for c, j in enumerate(row):
            mask[r, c] = (
                codes[j] == query_codes[r]
                and starts[j] < query_ends[r]
                and query_starts[r] < ends[j]
            )
    return mask


def subspan_sums(data, start: int, end: int, parts: int = 4) -> np.ndarray:
    """Blocks ``[start, end)`` of ``data`` summed into ``parts`` consecutive
    sub-spans, block by block: part k holds the blocks from
    ``start + L*k // parts`` up to ``start + L*(k+1) // parts``, L = end -
    start, and is zero where that range is empty.  Parts are concatenated."""
    data = np.asarray(data, dtype=np.float64)
    length = end - start
    out = np.zeros((parts, data.shape[1]))
    for k in range(parts):
        for i in range(start + length * k // parts, start + length * (k + 1) // parts):
            out[k] += data[i]
    return out.ravel()


def calibrated_beta(vectors, codes, starts, ends, rows, k: int, scale: float):
    """``scale`` over the median, over sample ``rows``, of the squared
    distance from each entry to its nearest entry among its ``k`` nearest
    (``linear_scan_knn``) that lies in another utterance or does not
    strictly intersect it; rows with no such entry are skipped.  None when
    no row is left or the median is 0."""
    nearest = []
    for r in rows:
        order, d2 = linear_scan_knn(vectors, vectors[r], k)
        for j, d in zip(order, d2):
            if not (codes[j] == codes[r] and starts[j] < ends[r] and starts[r] < ends[j]):
                nearest.append(float(d))
                break
    if not nearest:
        return None
    median = statistics.median(nearest)
    return scale / median if median > 0 else None
