"""Segment embedding: sums of frame blocks over four equal sub-spans."""

from __future__ import annotations

import numpy as np

from dpparse.core import FrameMatrix

PARTS = 4  # a segment's vector concatenates this many sub-span sums


class UtteranceEmbedder:
    """Cumulative-sum sub-span embedder for segments of a list of utterances.

    Each utterance keeps its own float64 prefix sums, with a leading zero
    row; they are stacked in utterance order.  Each part matches a direct
    float64 sum of its blocks to rounding.
    """

    def __init__(self, utterances: list[FrameMatrix]):
        self._n_blocks = np.array([u.n_blocks for u in utterances], dtype=np.int64)
        # Utterance i's prefix sums are rows _first[i] .. _first[i] + n_blocks[i].
        self._first = np.cumsum(self._n_blocks + 1) - (self._n_blocks + 1)
        self._csum = np.zeros((int(np.sum(self._n_blocks + 1)), utterances[0].dim))
        for u, first in zip(utterances, self._first.tolist()):
            rows = self._csum[first + 1 : first + 1 + u.n_blocks]
            np.cumsum(u.data, axis=0, dtype=np.float64, out=rows)

    def embed_many(
        self, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """Blocks ``[starts[i], ends[i])`` of utterance ``codes[i]``, as
        ``PARTS`` sums, ``PARTS * dim`` wide: part k of ``[a, a + L)`` sums
        blocks ``[a + L*k // PARTS, a + L*(k+1) // PARTS)``, zero if empty."""
        bad = np.flatnonzero(
            (starts < 0) | (ends <= starts) | (ends > self._n_blocks[codes])
        )
        if len(bad):
            i = bad[0]
            raise IndexError(
                f"segment [{starts[i]}, {ends[i]}) is empty or out of bounds of "
                f"utterance {codes[i]} ({self._n_blocks[codes[i]]} blocks)"
            )
        lengths = ends - starts
        first = self._first[codes] + starts
        cuts = first[:, None] + lengths[:, None] * np.arange(PARTS + 1) // PARTS
        parts = np.diff(np.take(self._csum, cuts, axis=0), axis=1)
        return parts.reshape(len(cuts), -1)
