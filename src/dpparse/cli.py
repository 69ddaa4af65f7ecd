"""Command-line interface: gen, segment, baseline, eval, abx, ablate-kmeans.

Every command is deterministic given --seed.  All randomness flows from
that single seed; per-utterance streams are derived from it so results
do not depend on scheduling or --workers.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from dpparse import io as dpio
from dpparse.config import load_run_config
from dpparse.core import Corpus, ms_to_end_block, validate_corpus
from dpparse.metrics import abx_score, fixed_rate_segmenter, token_boundary_f1
from dpparse.synthgen import generate, lexicon_lines
from dpparse.trainer import train

logger = logging.getLogger("dpparse")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (section.key = value lines)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key, e.g. --set dp.gamma=0",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--mode", choices=("continuous", "discrete"), default="continuous"
    )
    parser.add_argument("--verbose", action="store_true")


def _run_config(args) -> "RunConfig":
    direct = {}
    if args.seed is not None:
        direct["trainer.seed"] = args.seed
    if args.workers is not None:
        direct["trainer.workers"] = args.workers
    return load_run_config(args.config, args.overrides, **direct)


def _load_input_corpus(path: str, mode: str) -> Corpus:
    if mode == "discrete":
        corpus = dpio.load_text_corpus(path)
    else:
        corpus = dpio.load_corpus(path)
    report = validate_corpus(corpus)
    if not report.ok:
        raise ValueError(f"invalid corpus {path}:\n{report}")
    return corpus


def _reject(path: str, what: str, errors: list[str]) -> None:
    """Refuse the input file ``path`` when it has ``errors``."""
    if errors:
        raise ValueError(f"invalid {what} {path}:\n" + "\n".join(errors))


def _check_output_dirs(*paths) -> None:
    """Fail before any training when an output file's directory is missing."""
    for path in paths:
        if path is not None and not Path(path).parent.is_dir():
            raise ValueError(f"directory of {path} does not exist")


def cmd_gen(args) -> int:
    cfg = _run_config(args)
    gen_cfg = cfg.gen_config(args.mode)
    corpus, gold, words = generate(gen_cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "continuous":
        frames_dir = out / "frames"
        frames_dir.mkdir(exist_ok=True)
        entries = []
        for utt in corpus:
            rel = f"frames/{utt.utterance_id}.dppf"
            dpio.write_frame_file(out / rel, utt)
            entries.append((utt.utterance_id, rel))
        dpio.write_manifest(out / "manifest.tsv", entries)
        corpus_path = out / "manifest.tsv"
    else:
        corpus_path = out / "corpus.txt"
        dpio.write_text_corpus(corpus_path, corpus)
    dpio.write_alignment(out / "alignment.tsv", gold)
    with open(out / "lexicon.tsv", "w", encoding="utf-8") as f:
        f.write("\n".join(lexicon_lines(words)) + "\n")
    logger.info("wrote %s (%d utterances)", corpus_path, len(corpus))
    print(str(corpus_path))
    return 0


def cmd_segment(args) -> int:
    _check_output_dirs(args.out, args.log)
    cfg = _run_config(args)
    corpus = _load_input_corpus(args.input, args.mode)
    trainer_cfg = cfg.trainer_config(args.mode)
    log_stream = open(args.log, "w", encoding="utf-8") if args.log else None
    try:
        segmentation = train(corpus, trainer_cfg, log_stream=log_stream)
    finally:
        if log_stream is not None:
            log_stream.close()
    dpio.write_segmentation(args.out, segmentation)
    logger.info("wrote %s (%d tokens)", args.out, segmentation.n_tokens)
    return 0


def cmd_baseline(args) -> int:
    corpus = _load_input_corpus(args.input, args.mode)
    period_blocks = max(1, round(args.period_ms / 40.0))
    segmentation = fixed_rate_segmenter(corpus, period_blocks)
    dpio.write_segmentation(args.out, segmentation)
    logger.info(
        "wrote %s (period %d blocks, %d tokens)",
        args.out,
        period_blocks,
        segmentation.n_tokens,
    )
    return 0


def cmd_eval(args) -> int:
    hyp = dpio.read_segmentation(args.segmentation)
    gold = dpio.read_alignment(args.alignment)
    _reject(args.alignment, "alignment", gold.validate())
    errors = []
    for utt_id, segs in hyp.items():
        words = gold.words.get(utt_id)
        if [s.start for s in segs] != [0] + [s.end for s in segs[:-1]]:
            errors.append(f"{utt_id}: tokens are not contiguous from block 0")
        elif words and segs[-1].end != ms_to_end_block(words[-1][1]):
            errors.append(
                f"{utt_id}: tokens end at block {segs[-1].end}, "
                f"gold words at block {ms_to_end_block(words[-1][1])}"
            )
    _reject(args.segmentation, "segmentation", errors)
    report = token_boundary_f1(hyp, gold)
    for line in dpio.report_lines(report):
        print(line)
    if args.out:
        dpio.write_report(args.out, report)
    return 0


def cmd_abx(args) -> int:
    a, b, x = dpio.read_triplets(args.triplets)
    score = abx_score(np.stack([a, b, x], axis=1).astype(np.float64))
    print(f"abx_score\t{score:.6f}")
    return 0


def cmd_ablate_kmeans(args) -> int:
    _check_output_dirs(args.out)
    cfg = _run_config(args)
    corpus = _load_input_corpus(args.input, args.mode)
    gold = dpio.read_alignment(args.alignment)
    _reject(args.alignment, "alignment", gold.validate())
    results = {}
    for backend in ("knn", "kmeans"):
        overrides = dict(cfg.values)
        overrides["trainer.frequency_backend"] = backend
        if backend == "kmeans":
            overrides["trainer.kmeans_clusters"] = args.n_clusters
        trainer_cfg = type(cfg)(overrides).trainer_config(args.mode)
        segmentation = train(corpus, trainer_cfg)
        report = token_boundary_f1(segmentation, gold)
        results[backend] = report.token_f1
        logger.info("%s backend: token F1 %.4f", backend, report.token_f1)
    lines = [
        f"backend.knn.token_f1\t{results['knn']:.6f}",
        f"backend.kmeans.token_f1\t{results['kmeans']:.6f}",
        "SUMMARY\t"
        + json.dumps(
            {
                "knn_token_f1": round(results["knn"], 6),
                "kmeans_token_f1": round(results["kmeans"], 6),
            },
            sort_keys=True,
        ),
    ]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpparse",
        description="Instance-lexicon Dirichlet-process word segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus with gold alignment")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("segment", help="train and write a segmentation")
    p.add_argument("input", help="manifest (continuous) or text corpus (discrete)")
    p.add_argument("--out", required=True, help="segmentation output file")
    p.add_argument("--log", help="per-iteration run log")
    _add_common(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("baseline", help="fixed-rate segmenter, content ignored")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--period-ms", type=float, default=120.0)
    _add_common(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="token/boundary F1 against a gold alignment")
    p.add_argument("segmentation")
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", help="write the report here as well")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("abx", help="ABX discrimination score over a triplet file")
    p.add_argument("triplets")
    _add_common(p)
    p.set_defaults(func=cmd_abx)

    p = sub.add_parser(
        "ablate-kmeans",
        help="train with kNN and k-means frequency backends, report both",
    )
    p.add_argument("input")
    p.add_argument("--alignment", required=True)
    p.add_argument("--n-clusters", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_ablate_kmeans)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, dpio.FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
