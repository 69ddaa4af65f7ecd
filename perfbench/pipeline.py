"""One timed pass of the ``dpparse segment`` sequence, plus its output check.

The sequence is the one ``cmd_segment`` runs, called through the library's
public functions: load -> ``validate_corpus`` -> ``init_state`` ->
``run_iteration`` x N -> ``write_segmentation``.  Functions are looked up
on their modules at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

from dpparse import core, io as dpio, trainer
from dpparse.core import Corpus
from dpparse.trainer import TrainerConfig


@dataclass
class PassResult:
    setup_s: float
    iterate_s: float
    total_s: float
    n_base: int
    beta: float | None
    digest: str


def load_input(input_path: Path, mode: str) -> Corpus:
    """Read a corpus as ``dpparse segment`` does, without validating it."""
    if mode == "discrete":
        return dpio.load_text_corpus(input_path)
    return dpio.load_corpus(input_path)


def run_pass(
    input_path: Path, mode: str, config: TrainerConfig, out_path: Path
) -> PassResult:
    """Load, segment and write; time setup, iterations and the whole."""
    # Start each pass as a fresh process would: no cached candidate
    # bounds, no garbage left by the previous pass.
    trainer.candidate_bounds.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    corpus = load_input(input_path, mode)
    report = core.validate_corpus(corpus)
    if not report.ok:
        raise ValueError(f"invalid corpus {input_path}:\n{report}")
    t_setup = time.perf_counter()
    state = trainer.init_state(corpus, config)
    setup_s = time.perf_counter() - t_setup
    iterate_s = 0.0
    for _ in range(config.n_iterations):
        t_iter = time.perf_counter()
        state = trainer.run_iteration(state, corpus, config)
        iterate_s += time.perf_counter() - t_iter
    dpio.write_segmentation(out_path, state.segmentation)
    total_s = time.perf_counter() - t0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    return PassResult(
        setup_s,
        iterate_s,
        total_s,
        state.n_base,
        state.beta,
        digest,
    )


def check_output(
    segmentation: core.Segmentation, corpus: Corpus, config: TrainerConfig
) -> list[str]:
    """Every utterance tiled by segments of admissible length."""
    errors = segmentation.validate(corpus)
    for utt in corpus:
        if utt.utterance_id not in segmentation:
            errors.append(f"{utt.utterance_id}: not segmented")
    for seg in segmentation.tokens():
        if not config.min_len <= seg.length <= config.max_len:
            errors.append(f"{seg}: length {seg.length} not admissible")
    return errors
