"""Segment embedding: mean-pooling of frame blocks."""

from __future__ import annotations

import numpy as np

from dpparse.core import FrameMatrix


class UtteranceEmbedder:
    """Cumulative-sum mean-pooler for many segments of one utterance.

    Sums are accumulated in float64, so each row matches a direct float64
    mean of the covered blocks to rounding.  Optionally L2-normalizes
    outputs (off by default; inputs are passed through unmodified
    otherwise).
    """

    def __init__(self, frames: FrameMatrix, normalize: bool = False):
        self.normalize = normalize
        csum = np.cumsum(frames.data, axis=0, dtype=np.float64)
        self._csum = np.vstack([np.zeros((1, frames.dim)), csum])

    def embed_many(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        lengths = (ends - starts).astype(np.float64)
        out = (self._csum[ends] - self._csum[starts]) / lengths[:, None]
        if self.normalize:
            norms = np.linalg.norm(out, axis=1, keepdims=True)
            np.maximum(norms, np.finfo(np.float64).tiny, out=norms)
            out = out / norms
        return out
