#!/usr/bin/env python3
"""Time ``dpparse segment`` end to end on a synthgen workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cont-lexicon --seed 1 --seconds 30 --trace 0

The seed picks the synthetic corpus (see ``workloads.py``).  A child
process writes it and its gold alignment to disk, as ``dpparse gen``
would; then the ``segment`` sequence (see ``pipeline.py``) runs again and
again in this process for ``--seconds`` seconds, each pass timed.  Every pass's output must tile each utterance with admissible
segments, and all passes must write byte-identical files; the sha256 of
that file is printed so two commits can be compared.

``--trace 0`` reports the end-to-end metrics: medians over passes of
``setup_s`` (``init_state``), ``iterate_s`` (all ``run_iteration`` calls),
``total_s`` (corpus load to written segmentation) and the process's
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes and
reports per-layer seconds and counts from the traced ones (medians),
token/boundary F1 against gold, and the tracing overhead.  The last line
of output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS and dpparse's workers are pinned to one thread before numpy loads.
# On a shared 2-core host, two BLAS threads made passes of the same corpus
# vary by about 12%, one thread by about 2%; kNN top-k and decoding are
# single-threaded on the numpy backend either way.
MAX_THREADS = 1
MIN_PASSES = 3
GENERATE_TIMEOUT_S = 120


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_threads() -> int:
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def _generate_inputs(workload: str, seed: int, work_dir: Path) -> Path:
    """Write the workload's corpus and gold alignment from a child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(work_dir)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=GENERATE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"generating inputs failed:\n{proc.stderr}")
    return Path(proc.stdout.strip())


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dpparse" / "__init__.py").is_file():
        print(f"error: dpparse sources not found under {SRC}", file=sys.stderr)
        return 2
    # Exit through SystemExit on SIGTERM so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    threads = _pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np

    from dpparse import io as dpio
    from dpparse._kernels import BACKEND
    from dpparse.metrics import token_boundary_f1
    from dpparse.trainer import n_candidates as candidates_of
    from pipeline import check_output, load_input, run_pass
    from tracer import Tracer, coverage_errors, layer_metrics, layer_unit
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    config = workload.trainer_config(args.seed, threads)

    plain, traced, layers = [], [], []
    digests, errors, failed = set(), [], 0
    quality = None
    with tempfile.TemporaryDirectory(prefix="tmp-run-", dir=HERE) as tmp:
        input_path = _generate_inputs(workload.name, args.seed, Path(tmp))
        corpus = load_input(input_path, workload.mode)
        gold = dpio.read_alignment(Path(tmp) / "alignment.tsv")
        n_candidates = sum(
            candidates_of(u.n_blocks, config.min_len, config.max_len) for u in corpus
        )
        out_path = Path(tmp) / "seg.tsv"
        start = time.perf_counter()
        while True:
            # With --trace 1, untraced and traced passes alternate.
            tracer = Tracer() if args.trace and len(plain) > len(traced) else None
            try:
                if tracer is None:
                    result = run_pass(input_path, workload.mode, config, out_path)
                else:
                    with tracer.installed():
                        result = run_pass(input_path, workload.mode, config, out_path)
                segmentation = dpio.read_segmentation(out_path)
                problems = check_output(segmentation, corpus, config)
                if tracer is not None:
                    problems += coverage_errors(
                        tracer,
                        mode=workload.mode,
                        n_utterances=len(corpus),
                        n_iterations=config.n_iterations,
                        n_candidates=n_candidates,
                        n_base=result.n_base,
                        calibration_sample=config.calibration_sample,
                    )
            except Exception:  # a failed pass is counted, the run goes on
                traceback.print_exc()
                problems = ["pass raised"]
            if problems:
                failed += 1
                errors.extend(problems[:5])
                if failed >= MIN_PASSES:
                    break
                continue
            digests.add(result.digest)
            if quality is None:
                quality = token_boundary_f1(segmentation, gold)
            if tracer is None:
                plain.append(result)
            else:
                traced.append(result)
                layers.append(layer_metrics(tracer, result.total_s))
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (len(plain) + len(traced))
            enough = len(plain) >= MIN_PASSES and (traced or not args.trace)
            if enough and elapsed + per_pass > args.seconds:
                break

    attempted = len(plain) + len(traced) + failed
    if not plain or (args.trace and not traced):
        print("error: no pass completed; no result", file=sys.stderr)
        return 1
    if len(digests) > 1:
        errors.append(f"passes wrote {len(digests)} different segmentations")
    first = plain[0]
    env = {
        "backend": BACKEND,
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "workers": config.workers,
        "git_sha": _git_sha(),
        "utterances": len(corpus),
        "blocks": sum(u.n_blocks for u in corpus),
        "candidates": n_candidates,
        "n_base": first.n_base,
        "beta": first.beta,
    }
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("digest sha256:" + " ".join(sorted(digests)))
    print(
        f"quality token_f1={quality.token_f1:.6f} "
        f"boundary_f1={quality.boundary_f1:.6f}"
    )
    for problem in errors:
        print(f"check failed: {problem}")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain_total = statistics.median(p.total_s for p in plain)
    if args.trace:
        traced_total = statistics.median(p.total_s for p in traced)
        metrics = {
            name: (statistics.median(rec[name] for rec in layers), layer_unit(name))
            for name in layers[0]
        }
        metrics["metrics.token_f1"] = (quality.token_f1, "frac")
        metrics["metrics.boundary_f1"] = (quality.boundary_f1, "frac")
        metrics["trace.overhead_frac"] = (traced_total / plain_total - 1.0, "frac")
        print(f"passes untraced={len(plain)} traced={len(traced)} failed={failed}")
    else:
        metrics = {
            "setup_s": (statistics.median(p.setup_s for p in plain), "s"),
            "iterate_s": (statistics.median(p.iterate_s for p in plain), "s"),
            "total_s": (plain_total, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"passes={len(plain)} failed={failed}")
        for name in ("setup_s", "iterate_s", "total_s"):
            q1, q2, q3 = statistics.quantiles([getattr(p, name) for p in plain], n=4)
            print(f"{name} median={q2:.4f} q1={q1:.4f} q3={q3:.4f} s")
        print("total_s per pass " + " ".join(f"{p.total_s:.3f}" for p in plain))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not errors and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
