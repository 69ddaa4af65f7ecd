"""Segmentation evaluation: token/boundary F1 and a fixed-rate baseline segmenter.

Hypothesis boundaries are first snapped onto phoneme edges: a boundary
falling inside a phoneme moves to that phoneme's end when it lies more
than 30ms or more than half the phoneme past its start, else to the
start.  A token is correct iff both snapped edges equal a gold word's
edges.  Boundary precision/recall cover internal boundaries only
(utterance edges are trivially correct), micro-averaged over the corpus.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass

from dpparse.core import BLOCK_MS, Corpus, GoldAlignment, Segmentation

SNAP_THRESHOLD_MS = 30.0


@dataclass
class EvalReport:
    token_precision: float
    token_recall: float
    token_f1: float
    boundary_precision: float
    boundary_recall: float
    boundary_f1: float
    n_hyp_tokens: int
    n_gold_tokens: int
    n_token_hits: int
    n_hyp_boundaries: int
    n_gold_boundaries: int
    n_boundary_hits: int

    def as_dict(self) -> dict:
        return {k: round(v, 6) for k, v in asdict(self).items()}


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _ratio(num: int, denom: int) -> float:
    return num / denom if denom else 0.0


# ---------------------------------------------------------------------------
# boundary snapping

def _snapper(phones):
    """The function that snaps one boundary time onto the edges of
    ``phones``, (start, end[, label]) intervals covering an utterance
    without overlap; the identity when there are none.  A boundary on an
    edge stays put, so snapping a snapped boundary changes nothing."""
    if not phones:
        return lambda b: b
    phones = sorted(phones, key=lambda p: p[0])
    starts = [p[0] for p in phones]

    def snap(b: float) -> float:
        pos = bisect_right(starts, b) - 1
        if pos < 0:
            raise ValueError(f"boundary {b} before phone coverage")
        s, e = phones[pos][0], phones[pos][1]
        if b == s:
            return b
        if b >= e:
            if b == e:
                return b
            raise ValueError(f"boundary {b} outside phone coverage")
        into = b - s
        if into > SNAP_THRESHOLD_MS or into > (e - s) / 2:
            return e
        return s

    return snap


# ---------------------------------------------------------------------------
# token and boundary F1

def token_boundary_f1(hyp: Segmentation, gold: GoldAlignment) -> EvalReport:
    """Corpus-level scores of a hypothesis against a gold alignment.

    Every hypothesized utterance must have gold word intervals.  When no
    phoneme intervals exist for an utterance, boundaries are used
    unsnapped.
    """
    tok_hits = tok_found = tok_hyp = tok_gold = 0
    bnd_hits = bnd_hyp = bnd_gold = 0
    for utt_id, bounds in hyp.items():
        if utt_id not in gold.words:
            raise ValueError(f"missing gold alignment for {utt_id!r}")
        gold_words = gold.words[utt_id]
        snap = _snapper(gold.phones.get(utt_id))
        snapped = [snap(b * BLOCK_MS) for b in bounds]
        hyp_tokens = list(zip(snapped, snapped[1:]))
        gold_tokens = set(gold_words)
        tok_hits += sum(1 for t in hyp_tokens if t in gold_tokens)
        tok_found += len(gold_tokens & set(hyp_tokens))
        tok_hyp += len(hyp_tokens)
        tok_gold += len(gold_words)
        # internal boundaries only; snapped hypothesis edges, deduplicated
        duration = gold_words[-1][1]
        hyp_bounds = set(snapped) - {0.0, duration}
        gold_bounds = {w[0] for w in gold_words} - {0.0}
        bnd_hits += len(hyp_bounds & gold_bounds)
        bnd_hyp += len(hyp_bounds)
        bnd_gold += len(gold_bounds)
    tp, tr = _ratio(tok_hits, tok_hyp), _ratio(tok_found, tok_gold)
    bp, br = _ratio(bnd_hits, bnd_hyp), _ratio(bnd_hits, bnd_gold)
    return EvalReport(
        token_precision=tp,
        token_recall=tr,
        token_f1=_f1(tp, tr),
        boundary_precision=bp,
        boundary_recall=br,
        boundary_f1=_f1(bp, br),
        n_hyp_tokens=tok_hyp,
        n_gold_tokens=tok_gold,
        n_token_hits=tok_hits,
        n_hyp_boundaries=bnd_hyp,
        n_gold_boundaries=bnd_gold,
        n_boundary_hits=bnd_hits,
    )


# ---------------------------------------------------------------------------
# naive baseline

def fixed_rate_segmenter(corpus: Corpus, period_blocks: int = 3) -> Segmentation:
    """Boundaries at every multiple of the period, content ignored.

    A final residue shorter than the period becomes a shorter last token.
    """
    if period_blocks < 1:
        raise ValueError("period_blocks must be >= 1")
    return Segmentation(
        {
            u.utterance_id: (*range(0, u.n_blocks, period_blocks), u.n_blocks)
            for u in corpus
        }
    )
