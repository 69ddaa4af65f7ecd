"""Segment embedding: mean-pooling of frame blocks."""

from __future__ import annotations

import numpy as np

from dpparse.core import FrameMatrix


class UtteranceEmbedder:
    """Cumulative-sum mean-pooler for many segments of one utterance.

    Sums are accumulated in float64, so each row matches a direct float64
    mean of the covered blocks to rounding.
    """

    def __init__(self, frames: FrameMatrix):
        csum = np.cumsum(frames.data, axis=0, dtype=np.float64)
        self._csum = np.vstack([np.zeros((1, frames.dim)), csum])

    def embed_many(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        lengths = (ends - starts).astype(np.float64)
        return (self._csum[ends] - self._csum[starts]) / lengths[:, None]
