"""Command-line interface: gen, segment, baseline, eval.

Every command is deterministic given --seed, a non-negative integer that
is checked, with the other settings, before any input is read.  All
randomness flows from that single seed: each utterance's sampling draw is
keyed by (seed, iteration, utterance id), so results do not depend on
decode order.
"""

from __future__ import annotations

import argparse
import io
import logging
import math
import sys
from pathlib import Path

from dpparse import io as dpio
from dpparse.config import RunConfig, load_run_config
from dpparse.core import BLOCK_MS, Corpus, ms_to_end_block, validate_corpus
from dpparse.metrics import fixed_rate_segmenter, token_boundary_f1
from dpparse.synthgen import generate, lexicon_lines
from dpparse.trainer import train

logger = logging.getLogger("dpparse")


def _add_config(parser: argparse.ArgumentParser) -> None:
    """The flags that settings are read from, and --mode."""
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
    _add_mode(parser)


def _add_mode(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", choices=("continuous", "discrete"), default="continuous"
    )


def _run_config(args) -> RunConfig:
    """The settings flags' config; ``--seed N`` is ``--set trainer.seed=N``
    given last."""
    seed = [] if args.seed is None else [f"trainer.seed={args.seed}"]
    return load_run_config(args.config, [*args.overrides, *seed])


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
    trainer_cfg = _run_config(args).trainer_config(args.mode)
    corpus = _load_input_corpus(args.input, args.mode)
    # The log is kept in memory and written with the segmentation, so a
    # refused or failed run leaves neither file behind.
    log_stream = io.StringIO()
    segmentation = train(corpus, trainer_cfg, log_stream=log_stream)
    dpio.write_segmentation(args.out, segmentation)
    if args.log:
        Path(args.log).write_text(log_stream.getvalue(), encoding="utf-8")
    logger.info("wrote %s (%d tokens)", args.out, segmentation.n_tokens)
    return 0


def _period_ms(text: str) -> float:
    """A ``--period-ms`` value: a finite number of milliseconds above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def cmd_baseline(args) -> int:
    _check_output_dirs(args.out)
    corpus = _load_input_corpus(args.input, args.mode)
    period_blocks = max(1, round(args.period_ms / BLOCK_MS))
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
    _check_output_dirs(args.out)
    hyp = dpio.read_segmentation(args.segmentation)
    gold = dpio.read_alignment(args.alignment)
    _reject(args.alignment, "alignment", gold.validate())
    gold_ends = {u: ms_to_end_block(words[-1][1]) for u, words in gold.words.items()}
    errors = []
    for utt_id, bounds in hyp.items():
        if utt_id not in gold_ends:
            errors.append(f"{utt_id}: no gold words in {args.alignment}")
        elif bounds[-1] != gold_ends[utt_id]:
            errors.append(
                f"{utt_id}: tokens end at block {bounds[-1]}, "
                f"gold words at block {gold_ends[utt_id]}"
            )
    missing = [utt_id for utt_id in gold.words if utt_id not in hyp]
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        errors.append(
            "gold utterances with no tokens: " + ", ".join(missing[:10]) + more
        )
    _reject(args.segmentation, "segmentation", errors)
    report = token_boundary_f1(hyp, gold)
    for line in dpio.report_lines(report):
        print(line)
    if args.out:
        dpio.write_report(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpparse",
        description="Instance-lexicon Dirichlet-process word segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=func)
        return p

    p = command("gen", cmd_gen, "generate a synthetic corpus with gold alignment")
    p.add_argument("--out-dir", required=True)
    _add_config(p)

    p = command("segment", cmd_segment, "train and write a segmentation")
    p.add_argument("input", help="manifest (continuous) or text corpus (discrete)")
    p.add_argument("--out", required=True, help="segmentation output file")
    p.add_argument("--log", help="per-iteration run log, written when the run ends")
    _add_config(p)

    p = command("baseline", cmd_baseline, "fixed-rate segmenter, content ignored")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--period-ms", type=_period_ms, default=120.0)
    _add_mode(p)

    p = command("eval", cmd_eval, "token/boundary F1 against a gold alignment")
    p.add_argument("segmentation")
    p.add_argument("--alignment", required=True)
    p.add_argument("--out", help="write the report here as well")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, dpio.FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
