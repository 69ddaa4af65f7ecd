#!/usr/bin/env python3
"""Self-checks of the benchmark, run before trusting its numbers.

Usage, from the repository root:

    python3 perfbench/selfcheck.py                 # a few seconds
    python3 perfbench/selfcheck.py --known-values  # adds about a minute

Checks, each on a tiny synthgen corpus in both modes:

* the written segmentation is byte-identical with ``workers=1`` and
  ``workers=nproc``, and, when the compiled top-k kernel is importable,
  with ``DPPARSE_NO_NATIVE=1`` and without it;
* a traced pass passes the coverage check (every call went through a
  wrapper, so the counts add up), makes no kNN call in discrete mode, and
  leaves every wrapped entry point restored afterwards;
* with ``--known-values``: at synthgen seed 7 (vocab 50), the discrete
  corpus of 2000 utterances reaches token F1 1.0 after 5 iterations; the
  continuous corpus of 250 utterances has a full base pool of 30,311
  entries and token F1 about 0.01 after 3 iterations.

Exits 1 and names the failed check when one fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from dpparse import core, density, io as dpio, trainer  # noqa: E402
from dpparse.config import RunConfig  # noqa: E402
from dpparse.embed import UtteranceEmbedder  # noqa: E402
from dpparse.metrics import token_boundary_f1  # noqa: E402
from pipeline import check_output, run_pass  # noqa: E402
from tracer import Tracer, coverage_errors  # noqa: E402
from workloads import make_corpus, write_inputs  # noqa: E402

TINY_UTTERANCES = 40
SUBPROCESS_TIMEOUT_S = 120


def _config(mode: str, seed: int, workers: int, iterations: int = 2):
    return RunConfig(
        {
            "trainer.seed": seed,
            "trainer.workers": workers,
            "trainer.n_iterations": iterations,
        }
    ).trainer_config(mode)


def _tiny_pass(mode: str, workers: int, work_dir: Path, tracer: Tracer | None = None):
    corpus, gold = make_corpus(mode, 3, TINY_UTTERANCES)
    config = _config(mode, 3, workers)
    input_path = write_inputs(corpus, gold, work_dir / mode)
    out_path = work_dir / mode / f"seg-{workers}.tsv"
    if tracer is None:
        result = run_pass(input_path, mode, config, out_path)
    else:
        with tracer.installed():
            result = run_pass(input_path, mode, config, out_path)
    problems = check_output(dpio.read_segmentation(out_path), corpus, config)
    return corpus, config, result, problems


def digest_main(mode: str, workers: int) -> int:
    """Print the digest of one tiny pass; used for the backend comparison."""
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        _corpus, _config_, result, problems = _tiny_pass(mode, workers, Path(tmp))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(result.digest)
    return 0


def _digest_subprocess(mode: str, workers: int, no_native: bool) -> str:
    env = dict(os.environ)
    env.pop("DPPARSE_NO_NATIVE", None)
    if no_native:
        env["DPPARSE_NO_NATIVE"] = "1"
    proc = subprocess.run(
        [sys.executable, __file__, "--digest", mode, str(workers)],
        env=env,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
        check=True,
    )
    return proc.stdout.strip()


def check_determinism(work_dir: Path) -> list[str]:
    failures = []
    nproc = os.cpu_count() or 1
    native = importlib.util.find_spec("dpparse._kernels._topk") is not None
    for mode in ("continuous", "discrete"):
        digests = {
            w: _tiny_pass(mode, w, work_dir)[2].digest for w in sorted({1, nproc})
        }
        if len(set(digests.values())) != 1:
            failures.append(f"{mode}: digest differs across workers {digests}")
        if native:
            pair = {flag: _digest_subprocess(mode, nproc, flag) for flag in (False, True)}
            if pair[False] != pair[True]:
                failures.append(f"{mode}: digest differs native vs numpy {pair}")
    if not native:
        print("note: compiled top-k kernel not importable; backend comparison skipped")
    return failures


def check_trace(work_dir: Path) -> list[str]:
    failures = []
    entry_points = [
        (trainer, "nbest"),
        (density, "topk_select"),
        (density.InstanceIndex, "query"),
        (density.DiscreteCountStore, "add"),
        (UtteranceEmbedder, "embed_many"),
        (dpio, "load_corpus"),
        (core, "validate_corpus"),
    ]
    before = [owner.__dict__[attr] for owner, attr in entry_points]
    for mode in ("continuous", "discrete"):
        tracer = Tracer()
        corpus, config, result, problems = _tiny_pass(mode, 1, work_dir, tracer)
        failures += [f"{mode}: {p}" for p in problems]
        n_candidates = sum(
            trainer.n_candidates(u.n_blocks, config.min_len, config.max_len)
            for u in corpus
        )
        failures += [
            f"{mode}: {e}"
            for e in coverage_errors(
                tracer,
                mode=mode,
                n_utterances=len(corpus),
                n_iterations=config.n_iterations,
                n_candidates=n_candidates,
                n_base=result.n_base,
                calibration_sample=config.calibration_sample,
            )
        ]
        if mode == "continuous" and tracer.count("density.query.rows") == 0:
            failures.append("continuous: no kNN query was traced")
        if mode == "discrete" and tracer.calls("density.count_store") == 0:
            failures.append("discrete: no count-store call was traced")
    after = [owner.__dict__[attr] for owner, attr in entry_points]
    if any(a is not b for a, b in zip(before, after)):
        failures.append("tracer left a wrapper installed")
    return failures


def check_known_values() -> list[str]:
    failures = []
    corpus, gold = make_corpus("discrete", 7, 2000)
    config = _config("discrete", 7, 2, iterations=5)
    seg = trainer.train(corpus, config)
    f1 = token_boundary_f1(seg, gold).token_f1
    print(f"known: discrete 2000 utterances token_f1={f1:.6f}")
    if f1 != 1.0:
        failures.append(f"discrete token_f1 {f1} != 1.0")

    corpus, gold = make_corpus("continuous", 7, 250)
    config = _config("continuous", 7, 2, iterations=3)
    state = trainer.init_state(corpus, config)
    for _ in range(config.n_iterations):
        state = trainer.run_iteration(state, corpus, config)
    f1 = token_boundary_f1(state.segmentation, gold).token_f1
    print(f"known: continuous 250 utterances n_base={state.n_base} token_f1={f1:.6f}")
    if state.n_base != 30_311:
        failures.append(f"continuous n_base {state.n_base} != 30311")
    if not 0.005 <= f1 <= 0.02:
        failures.append(f"continuous token_f1 {f1} not about 0.01")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--known-values", action="store_true")
    parser.add_argument("--digest", nargs=2, metavar=("MODE", "WORKERS"))
    args = parser.parse_args(argv)
    if args.digest:
        return digest_main(args.digest[0], int(args.digest[1]))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        failures = check_determinism(Path(tmp)) + check_trace(Path(tmp))
    if args.known_values:
        failures += check_known_values()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
