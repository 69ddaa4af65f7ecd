"""Word probabilities and arc scores for the segmentation lattice.

A candidate's probability interpolates its soft count in the current
token lexicon with a base distribution over all candidate segments,
weighted by the Dirichlet-process concentration.  Arc scores subtract a
length-dependent term from the log probability, so long tokens are
penalized, matching the "favors short tokens" behaviour.

All arithmetic is 64-bit regardless of 32-bit input storage: path scores
sum many logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Added to a word probability before its log, so that 0 scores finitely.
EPS = 1e-10


@dataclass(frozen=True)
class DPParams:
    """Dirichlet-process concentration and the length term's shape."""

    alpha0: float = 100.0
    gamma: float = 1.8
    delta: float = 4.0

    def __post_init__(self):
        if not 0 < self.alpha0 < np.inf:
            raise ValueError("dp.alpha0 must be > 0 and finite")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("dp.gamma must be >= 0 and finite")
        if not 0 < self.delta < np.inf:
            raise ValueError("dp.delta must be > 0 and finite")


def word_probabilities(
    lexicon_freqs: np.ndarray,
    base_probs: np.ndarray,
    n_lexicon: float,
    params: DPParams,
) -> np.ndarray:
    """Dirichlet-process mix of lexicon soft counts and base priors, where
    ``n_lexicon`` is the lexicon's token mass."""
    denom = n_lexicon + params.alpha0
    return lexicon_freqs / denom + params.alpha0 * base_probs / denom


def length_terms(lengths: np.ndarray, params: DPParams) -> np.ndarray:
    """The length term of each length in blocks:
    ``-((len - 1) / delta) ** gamma``, pinned to 0 at length 1 for every
    gamma."""
    lengths = np.asarray(lengths, dtype=np.float64)
    base = (lengths - 1.0) / params.delta
    q = np.where(base == 0.0, 0.0, base**params.gamma)
    return -q


def arc_scores_batch(word_probs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Log word probability (guarded by ``EPS``) plus the arc's
    ``length_terms`` value."""
    return np.log(np.asarray(word_probs, dtype=np.float64) + EPS) + terms
