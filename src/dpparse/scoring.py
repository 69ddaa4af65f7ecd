"""Word probabilities and arc scores for the segmentation lattice.

A candidate's probability interpolates its soft count in the current
token lexicon with a base distribution over all candidate segments,
weighted by the Dirichlet-process concentration.  Arc scores add a
length-dependent term to the log probability; by default long tokens
are penalized (``penalty_sign=-1``), matching the "favors short tokens"
behaviour.  ``penalty_sign=+1`` gives the additive variant where the
term acts as a length bonus.

All arithmetic is 64-bit regardless of 32-bit input storage: path scores
sum many logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DPParams:
    """Dirichlet-process concentration and the length term's shape."""

    alpha0: float = 100.0
    gamma: float = 1.8
    delta: float = 4.0
    epsilon_log: float = 1e-10
    penalty_sign: float = -1.0

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        if not self.epsilon_log > 0:
            raise ValueError("epsilon_log must be > 0")
        if self.penalty_sign not in (-1.0, 1.0):
            raise ValueError("penalty_sign must be -1 or +1")


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
    """The signed length term of each length in blocks:
    ``penalty_sign * ((len - 1) / delta) ** gamma``, pinned to 0 at
    length 1 for every gamma."""
    lengths = np.asarray(lengths, dtype=np.float64)
    base = (lengths - 1.0) / params.delta
    q = np.where(base == 0.0, 0.0, base**params.gamma)
    return params.penalty_sign * q


def arc_scores_batch(
    word_probs: np.ndarray, terms: np.ndarray, params: DPParams
) -> np.ndarray:
    """Log word probability (guarded) plus the arc's ``length_terms``
    value."""
    return np.log(np.asarray(word_probs, dtype=np.float64) + params.epsilon_log) + terms
