"""Segment embedding: mean-pooling of frame blocks."""

from __future__ import annotations

import numpy as np

from dpparse.core import FrameMatrix


class UtteranceEmbedder:
    """Cumulative-sum mean-pooler for segments of a list of utterances.

    Each utterance keeps its own float64 prefix sums, with a leading zero
    row; they are stacked in utterance order.  Each row matches a direct
    float64 mean of the covered blocks to rounding.
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
        """Mean of blocks ``[starts[i], ends[i])`` of utterance ``codes[i]``."""
        bad = np.flatnonzero(
            (starts < 0) | (ends <= starts) | (ends > self._n_blocks[codes])
        )
        if len(bad):
            i = bad[0]
            raise IndexError(
                f"segment [{starts[i]}, {ends[i]}) is empty or out of bounds of "
                f"utterance {codes[i]} ({self._n_blocks[codes[i]]} blocks)"
            )
        first = self._first[codes]
        lengths = (ends - starts).astype(np.float64)
        return (self._csum[first + ends] - self._csum[first + starts]) / lengths[:, None]
