"""Spans and counts around dpparse's layer entry points, from outside.

``Tracer.installed()`` replaces each entry point with a wrapper, on the
name its caller looks up (``dpparse.trainer.nbest``, not
``dpparse.lattice.nbest``; methods on their class), and restores the
originals on exit.  Every span records its duration, the time its child
spans cover, and its phase: ``setup`` inside ``init_state``,
``iteration`` inside ``run_iteration``, ``io`` otherwise.  Spans are
aggregated in memory per (phase, name); nothing is written until the
benchmark reports.  The program's source is not touched.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from dpparse import core, density, io as dpio, trainer
from dpparse.embed import UtteranceEmbedder

PHASE_SPANS = ("trainer.init_state", "trainer.run_iteration")


class Tracer:
    def __init__(self):
        # (phase, name) -> [calls, total seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (phase, name) -> summed count
        self.counts = defaultdict(float)
        self.phase = "io"
        self._child_time: list[list[float]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def _span(self, fn, name, phase=None, count=None):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer._child_time
            children = [0.0]
            stack.append(children)
            outer_phase = tracer.phase
            if phase is not None:
                tracer.phase = phase
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec = tracer.spans[(tracer.phase, name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - children[0]
                tracer.phase = outer_phase
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def _hook(self, fn, count):
        """Count-only wrapper: its time stays in the enclosing span."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        index = density.InstanceIndex
        store = density.DiscreteCountStore
        spans = [
            (dpio, "load_corpus", "io.load_corpus", None, None),
            (dpio, "load_text_corpus", "io.load_corpus", None, None),
            (dpio, "write_segmentation", "io.write_segmentation", None, None),
            (core, "validate_corpus", "core.validate_corpus", None, None),
            (trainer, "validate_corpus", "core.validate_corpus", None, None),
            (trainer, "init_state", "trainer.init_state", "setup", None),
            (trainer, "run_iteration", "trainer.run_iteration", "iteration", None),
            (trainer, "calibrate_beta", "density.calibrate_beta", None, None),
            (index, "__init__", "density.index_build", None, None),
            (index, "query", "density.query", None, _count_query),
            (index, "kernel_frequencies_arrays", "density.kernel_weights", None, None),
            (density, "topk_select", "kernels.topk_select", None, _count_topk),
            (store, "add", "density.count_store", None, None),
            (store, "count_excluding_overlaps", "density.count_store", None, None),
            (UtteranceEmbedder, "embed_many", "embed.embed_many", None, _count_embed),
            (trainer, "arc_scores_batch", "scoring.arc_scores_batch", None, None),
            (trainer, "nbest", "lattice.nbest", None, _count_nbest),
            (trainer, "sample_path", "lattice.sample_path", None, _count_sample),
        ]
        wrappers = [
            (owner, attr, self._span(owner.__dict__[attr], name, phase, count))
            for owner, attr, name, phase, count in spans
        ]
        wrappers.append(
            (index, "overlap_mask", self._hook(index.__dict__["overlap_mask"], _count_overlap))
        )
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _w in wrappers]
        try:
            for owner, attr, wrapper in wrappers:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(
            rec[0]
            for (p, n), rec in self.spans.items()
            if n == name and phase in (None, p)
        )

    def seconds(self, name: str, phase: str | None = None, own: bool = False) -> float:
        col = 2 if own else 1
        return sum(
            rec[col]
            for (p, n), rec in self.spans.items()
            if n == name and phase in (None, p)
        )

    def count(self, name: str, phase: str | None = None) -> float:
        return sum(
            v for (p, n), v in self.counts.items() if n == name and phase in (None, p)
        )

    def layer_seconds(self) -> float:
        """Time covered by spans below the trainer's own phase spans."""
        return sum(
            rec[2] for (_p, n), rec in self.spans.items() if n not in PHASE_SPANS
        )


def _count_query(tracer, args, result):
    index, queries = args[0], args[1]
    m = queries.shape[0]
    tracer.add("density.query.rows", m)
    tracer.add("density.query.dist_entries", m * index.n)
    tracer.add("density.query.flop", 2.0 * m * index.n * index.dim)


def _count_topk(tracer, args, result):
    tracer.add("kernels.topk_select.rows", args[0].shape[0])


def _count_embed(tracer, args, result):
    tracer.add("embed.rows", len(args[1]))


def _count_nbest(tracer, args, result):
    tracer.add("lattice.arcs", args[0].n_arcs)


def _count_sample(tracer, args, result):
    tracer.add("lattice.sample_1best", result == args[0].boundaries(0))


def _count_overlap(tracer, args, result):
    tracer.add("density.overlap.excluded", int(result.sum()))
    tracer.add("density.overlap.neighbours", result.size)


def layer_metrics(tracer: Tracer, total_s: float) -> dict[str, float]:
    """Per-layer seconds and counts of one traced pass, by metric name."""
    t = tracer
    neighbours = t.count("density.overlap.neighbours")
    samples = t.calls("lattice.sample_path")
    return {
        "density.query_base.s": t.seconds("density.query", "setup"),
        "density.query_lexicon.s": t.seconds("density.query", "iteration"),
        "density.distance.s": t.seconds("density.query", own=True),
        "density.query.rows": t.count("density.query.rows"),
        "density.query.dist_entries": t.count("density.query.dist_entries"),
        "density.query.gflop": t.count("density.query.flop") / 1e9,
        "kernels.topk_select.s": t.seconds("kernels.topk_select"),
        "kernels.topk_select.rows": t.count("kernels.topk_select.rows"),
        "density.index_build.s": t.seconds("density.index_build"),
        "density.calibrate_beta.s": t.seconds("density.calibrate_beta", own=True),
        "density.kernel_weights.s": t.seconds("density.kernel_weights", own=True),
        "density.overlap_excluded_frac": (
            t.count("density.overlap.excluded") / neighbours if neighbours else 0.0
        ),
        "density.count_store.s": t.seconds("density.count_store"),
        "density.count_store.calls": t.calls("density.count_store"),
        "lattice.nbest.s": t.seconds("lattice.nbest"),
        "lattice.nbest.calls": t.calls("lattice.nbest"),
        "lattice.arcs": t.count("lattice.arcs"),
        "lattice.sample_path.s": t.seconds("lattice.sample_path"),
        "lattice.sample_1best_frac": (
            t.count("lattice.sample_1best") / samples if samples else 0.0
        ),
        "scoring.arc_scores_batch.s": t.seconds("scoring.arc_scores_batch"),
        "embed.embed_many.s": t.seconds("embed.embed_many"),
        "embed.rows": t.count("embed.rows"),
        "trainer.setup_self.s": t.seconds("trainer.init_state", own=True),
        "trainer.iteration_self.s": t.seconds("trainer.run_iteration", own=True),
        "io.load_corpus.s": t.seconds("io.load_corpus"),
        "core.validate_corpus.s": t.seconds("core.validate_corpus"),
        "io.write_segmentation.s": t.seconds("io.write_segmentation"),
        "trace.outside_layers_frac": (total_s - t.layer_seconds()) / total_s,
    }


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(".gflop"):
        return "GFLOP"
    return "count"


def coverage_errors(
    tracer: Tracer,
    *,
    mode: str,
    n_utterances: int,
    n_iterations: int,
    n_candidates: int,
    n_base: int,
    calibration_sample: int,
) -> list[str]:
    """Counts that must add up if every call went through a wrapper."""
    t = tracer
    decodes = n_utterances * n_iterations
    expected = {
        "trainer.init_state calls": (t.calls("trainer.init_state"), 1),
        "trainer.run_iteration calls": (t.calls("trainer.run_iteration"), n_iterations),
        "io.load_corpus calls": (t.calls("io.load_corpus"), 1),
        "io.write_segmentation calls": (t.calls("io.write_segmentation"), 1),
        "lattice.nbest calls": (t.calls("lattice.nbest"), decodes),
        "lattice.sample_path calls": (t.calls("lattice.sample_path"), decodes),
        "scoring.arc_scores_batch calls": (t.calls("scoring.arc_scores_batch"), decodes),
        "kernels.topk_select.rows": (
            t.count("kernels.topk_select.rows"),
            t.count("density.query.rows"),
        ),
    }
    if mode == "discrete":
        expected["density.query.rows"] = (t.count("density.query.rows"), 0)
        expected["density.index_build calls"] = (t.calls("density.index_build"), 0)
        expected["setup density.count_store calls"] = (
            t.calls("density.count_store", "setup"),
            n_base + n_candidates,
        )
    else:
        calibration = min(calibration_sample, n_base) if n_base >= 100 else 0
        expected["setup density.query.rows"] = (
            t.count("density.query.rows", "setup"),
            n_candidates + calibration,
        )
        expected["setup embed.rows"] = (
            t.count("embed.rows", "setup"),
            n_base + n_candidates,
        )
        expected["density.count_store calls"] = (t.calls("density.count_store"), 0)
    return [
        f"{what}: traced {got:g}, expected {want:g}"
        for what, (got, want) in expected.items()
        if got != want
    ]
