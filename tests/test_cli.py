import json
import re
import shlex
from pathlib import Path

import pytest

from dpparse import io as dpio
from dpparse.cli import build_parser, main
from dpparse.config import _SCHEMA, DELTA_BY_MODE, load_run_config, read_config_file
from dpparse.core import Segmentation
from dpparse.scoring import DPParams
from dpparse.synthgen import GenConfig
from dpparse.trainer import TrainerConfig


def _gen(tmp_path, mode="continuous", extra=()):
    out = tmp_path / "data"
    args = [
        "gen",
        "--out-dir",
        str(out),
        "--mode",
        mode,
        "--seed",
        "5",
        "--set",
        "gen.vocab_size=8",
        "--set",
        "gen.n_utterances=25",
        "--set",
        "gen.dim=8",
        "--set",
        "gen.word_len_min=2",
        "--set",
        "gen.word_len_max=4",
        "--set",
        "gen.words_per_utterance_min=2",
        "--set",
        "gen.words_per_utterance_max=3",
        *extra,
    ]
    assert main(args) == 0
    corpus_file = out / ("manifest.tsv" if mode == "continuous" else "corpus.txt")
    return out, corpus_file


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = load_run_config()
        assert cfg["trainer.n_iterations"] == 10
        assert cfg["trainer.beam"] == 10
        assert cfg["trainer.l0_subsample"] == 1_000_000
        assert cfg["dp.alpha0"] == 100.0
        assert cfg["dp.gamma"] == 1.8
        assert cfg["density.k"] == 100
        assert cfg["trainer.min_len"] == 1
        assert cfg["trainer.max_len"] == 20

    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_defaults_are_the_dataclass_defaults(self, mode):
        cfg = load_run_config()
        expected = TrainerConfig(dp=DPParams(delta=DELTA_BY_MODE[mode]))
        assert cfg.trainer_config(mode) == expected
        assert cfg.gen_config(mode) == GenConfig(mode=mode)

    def test_key_names_unchanged(self):
        sections = {
            "trainer": "n_iterations beam l0_subsample seed workers min_len max_len "
            "temperature frequency_backend kmeans_clusters calibration_sample",
            "dp": "alpha0 gamma delta epsilon_log penalty_sign",
            "density": "k beta",
            "gen": "vocab_size n_utterances dim zipf_exponent word_len_min "
            "word_len_max words_per_utterance_min words_per_utterance_max "
            "noise_sigma alphabet_size",
        }
        names = {f"{s}.{f}" for s, fields in sections.items() for f in fields.split()}
        assert set(_SCHEMA) == names

    @pytest.mark.parametrize("key", list(_SCHEMA))
    def test_key_set_to_its_default_changes_nothing(self, key):
        default = _SCHEMA[key][1]
        cfg = load_run_config(overrides=[f"{key}={default}"])
        plain = load_run_config()
        for mode in ("continuous", "discrete"):
            assert cfg.trainer_config(mode) == plain.trainer_config(mode)
            assert cfg.gen_config(mode) == plain.gen_config(mode)

    def test_delta_resolved_by_mode(self):
        cfg = load_run_config()
        assert cfg.trainer_config("continuous").dp.delta == 4.0
        assert cfg.trainer_config("discrete").dp.delta == 2.0
        explicit = load_run_config(overrides=["dp.delta=3.5"])
        assert explicit.trainer_config("discrete").dp.delta == 3.5

    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trainer.beam = 4\ndp.gamma = 0.5  # comment\n")
        assert read_config_file(path) == {"trainer.beam": 4, "dp.gamma": 0.5}
        cfg = load_run_config(path, overrides=["trainer.beam=7"])
        assert cfg["trainer.beam"] == 7
        assert cfg["dp.gamma"] == 0.5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trainer.bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            read_config_file(path)
        with pytest.raises(ValueError, match="unknown config key"):
            load_run_config(overrides=["nope=3"])

    def test_bad_value_reported_with_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trainer.beam = fast\n")
        with pytest.raises(ValueError, match="run.cfg:1"):
            read_config_file(path)


class TestReadme:
    """The README's examples parse and its settings are the real defaults."""

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def _commands(self):
        """Each ``dpparse ...`` line of the sh blocks, continuations joined."""
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", self.readme, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["dpparse"]:
                    commands.append(words[1:])
        return commands

    def test_examples_parse(self):
        commands = self._commands()
        assert commands
        for argv in commands:
            build_parser().parse_args(argv)

    def test_set_keys_exist(self):
        keys = [
            argv[i + 1].split("=", 1)[0]
            for argv in self._commands()
            for i, word in enumerate(argv)
            if word == "--set"
        ]
        assert keys
        assert [k for k in keys if k not in _SCHEMA] == []

    def test_documented_defaults(self):
        bullets = re.findall(r"^- `([\w.]+)` \(default `([^`]*)`\)", self.readme, re.M)
        assert bullets
        for key, text in bullets:
            assert key in _SCHEMA, key
            parser, default = _SCHEMA[key]
            assert parser(text) == default, key


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "seg.tsv", "--alignment", "gold.tsv", "--seed", "1"],
            ["baseline", "manifest.tsv", "--out", "b.tsv", "--set", "dp.gamma=0"],
        ],
        ids=["eval-seed", "baseline-set"],
    )
    def test_unread_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


    @pytest.mark.parametrize("period", ["inf", "-inf", "nan", "0", "-100", "x"])
    def test_baseline_rejects_bad_period(self, capsys, period):
        with pytest.raises(SystemExit) as exc:
            main(["baseline", "manifest.tsv", "--out", "b.tsv", "--period-ms", period])
        assert exc.value.code == 2
        assert "argument --period-ms" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "gen", "ablate-kmeans"])
    def test_negative_seed_refused_before_any_input(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # The input files do not exist, and generating a corpus fails the
        # test: the seed must be refused before either is reached.
        def fail(*_args):
            raise AssertionError("corpus generated before the seed was checked")

        monkeypatch.setattr("dpparse.cli.generate", fail)
        corpus, out = str(tmp_path / "corpus.txt"), str(tmp_path / "seg.tsv")
        argv = {
            "segment": ["segment", corpus, "--mode", "discrete", "--out", out],
            "gen": ["gen", "--out-dir", str(tmp_path / "data")],
            "ablate-kmeans": [
                "ablate-kmeans", corpus, "--alignment", "gold.tsv", "--n-clusters", "5"
            ],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: trainer.seed must be >= 0, got -1"]
        assert list(tmp_path.iterdir()) == []

    def test_discrete_kmeans_refused_before_any_input(self, tmp_path, capsys):
        # The input file does not exist: the settings must be refused first.
        argv = [
            "segment", str(tmp_path / "missing.txt"), "--mode", "discrete",
            "--out", str(tmp_path / "seg.tsv"),
            "--set", "trainer.frequency_backend=kmeans",
            "--set", "trainer.kmeans_clusters=5",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: kmeans backend applies to continuous corpora only"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_length_term_refused_before_any_input(self, tmp_path, capsys):
        argv = [
            "segment", str(tmp_path / "missing.txt"), "--mode", "discrete",
            "--out", str(tmp_path / "seg.tsv"),
            "--set", "dp.gamma=500", "--set", "dp.delta=4",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: the length term of a 20-block token overflows "
            "(dp.gamma 500, dp.delta 4)"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_temperature_refused(self, tmp_path, capsys):
        _out, corpus_file = _gen(tmp_path, mode="discrete")
        seg_file = tmp_path / "seg.tsv"
        argv = [
            "segment", str(corpus_file), "--mode", "discrete",
            "--out", str(seg_file), "--set", "trainer.temperature=1e-320",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: trainer.temperature 1e-320 is too small")
        assert not seg_file.exists()


class TestGenSegmentEval:
    def test_end_to_end_continuous(self, tmp_path, capsys):
        out, manifest = _gen(tmp_path)
        seg_file = tmp_path / "seg.tsv"
        assert (
            main(
                [
                    "segment",
                    str(manifest),
                    "--out",
                    str(seg_file),
                    "--log",
                    str(tmp_path / "run.log"),
                    "--seed",
                    "5",
                    "--set",
                    "trainer.n_iterations=2",
                ]
            )
            == 0
        )
        seg = dpio.read_segmentation(seg_file)
        corpus = dpio.load_corpus(manifest)
        assert seg.validate(corpus) == []
        assert len(seg) == len(corpus)
        log_lines = (tmp_path / "run.log").read_text().strip().splitlines()
        assert len(log_lines) == 2
        capsys.readouterr()
        assert (
            main(
                ["eval", str(seg_file), "--alignment", str(out / "alignment.tsv")]
            )
            == 0
        )
        printed = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("token_f1\t") for line in printed)
        summary = json.loads(printed[-1].split("\t", 1)[1])
        assert 0.0 <= summary["token_f1"] <= 1.0

    def test_corrupt_frame_magic_nonzero_exit(self, tmp_path, capsys):
        out, manifest = _gen(tmp_path)
        victim = out / "frames" / "u000002.dppf"  # manifest line 3
        victim.write_bytes(b"EVIL" + victim.read_bytes()[4:])
        code = main(["segment", str(manifest), "--out", str(tmp_path / "seg.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {manifest}:3: u000002: {victim}: bad frame-file magic" in err

    def test_missing_frame_file_names_manifest_line(self, tmp_path, capsys):
        out, manifest = _gen(tmp_path)
        victim = out / "frames" / "u000002.dppf"
        victim.unlink()
        code = main(["segment", str(manifest), "--out", str(tmp_path / "seg.tsv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {manifest}:3: u000002: " in err
        assert victim.name in err

    @pytest.mark.parametrize(
        "mode, name", [("continuous", "manifest.tsv"), ("discrete", "corpus.txt")]
    )
    def test_empty_corpus_refused_naming_file(self, tmp_path, capsys, mode, name):
        corpus_file = tmp_path / name
        corpus_file.write_bytes(b"")
        argv = ["segment", str(corpus_file), "--out", str(tmp_path / "seg.tsv")]
        assert main([*argv, "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert f"error: invalid corpus {corpus_file}:\n" in err
        assert "corpus has no utterances" in err

    def test_gen_refuses_too_small_alphabet_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "data"
        argv = ["gen", "--out-dir", str(out), "--mode", "discrete"]
        argv += ["--set", "gen.alphabet_size=2", "--set", "gen.n_utterances=10"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: 14 words of length 2 drawn, but only 4 strings of that "
            "length exist over 2 symbols\n"
        )
        assert not out.exists()

    def test_missing_output_directory_fails_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        _, manifest = _gen(tmp_path)
        trained = []
        monkeypatch.setattr(
            "dpparse.cli.train", lambda *a, **k: trained.append(a) or Segmentation()
        )
        for flag in ("--out", "--log"):
            paths = {"--out": tmp_path / "seg.tsv", "--log": tmp_path / "run.log"}
            paths[flag] = tmp_path / "nodir" / paths[flag].name
            argv = ["segment", str(manifest)]
            for name, path in paths.items():
                argv += [name, str(path)]
            assert main(argv) != 0
            assert "nodir" in capsys.readouterr().err
        assert trained == []

    def test_baseline_and_eval(self, tmp_path, capsys):
        out, manifest = _gen(tmp_path)
        base_file = tmp_path / "base.tsv"
        assert main(["baseline", str(manifest), "--out", str(base_file)]) == 0
        seg = dpio.read_segmentation(base_file)
        assert all(s.length <= 3 for s in seg.tokens())
        assert (
            main(["eval", str(base_file), "--alignment", str(out / "alignment.tsv")])
            == 0
        )

    def test_discrete_mode_runs(self, tmp_path):
        out, corpus_file = _gen(tmp_path, mode="discrete")
        seg_file = tmp_path / "seg.tsv"
        assert (
            main(
                [
                    "segment",
                    str(corpus_file),
                    "--out",
                    str(seg_file),
                    "--mode",
                    "discrete",
                    "--seed",
                    "5",
                    "--set",
                    "trainer.n_iterations=2",
                ]
            )
            == 0
        )
        corpus = dpio.load_text_corpus(corpus_file)
        assert dpio.read_segmentation(seg_file).validate(corpus) == []

    def test_determinism_across_seeds_and_workers(self, tmp_path):
        _, manifest = _gen(tmp_path)
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            seg_file = tmp_path / f"seg_{name}.tsv"
            assert (
                main(
                    [
                        "segment",
                        str(manifest),
                        "--out",
                        str(seg_file),
                        "--seed",
                        "9",
                        "--workers",
                        workers,
                        "--set",
                        "trainer.n_iterations=2",
                    ]
                )
                == 0
            )
            outs.append(seg_file.read_bytes())
        assert outs[0] == outs[1] == outs[2]


_GOLD = "u1\tWORD\t0\t80\nu1\tWORD\t80\t160\n"
_HYP = "u1\t0\t80\nu1\t80\t160\n"


class TestEvalInputs:
    @pytest.mark.parametrize(
        "bad, gold, hyp, named",
        [
            ("gold", "u1\tWORD\t0\t80\nu1\tWORD\t40\t160\n", _HYP, "u1"),  # overlap
            ("gold", "u1\tWORD\t0\t80\nu1\tWORD\t120\t160\n", _HYP, "u1"),  # gap
            ("hyp", _GOLD, "u1\t0\t80\nu1\t40\t160\n", "u1"),  # overlapping tokens
            ("hyp", _GOLD, "u1\t40\t80\nu1\t80\t160\n", "u1"),  # not from block 0
            ("hyp", _GOLD, "u1\t0\t80\n", "u1"),  # stops before the last gold word
            ("hyp", _GOLD + "u3\tWORD\t0\t80\n", _HYP, "u3"),  # u3 not segmented
            ("hyp", _GOLD, _HYP + "u2\t0\t40\n", "u2"),  # u2 has no gold words
        ],
        ids=[
            "gold-overlap",
            "gold-gap",
            "hyp-overlap",
            "hyp-late-start",
            "hyp-short",
            "hyp-missing-utterance",
            "hyp-no-gold",
        ],
    )
    def test_malformed_input_rejected_with_file_named(
        self, tmp_path, capsys, bad, gold, hyp, named
    ):
        files = {"gold": tmp_path / "gold.tsv", "hyp": tmp_path / "hyp.tsv"}
        files["gold"].write_text(gold)
        files["hyp"].write_text(hyp)
        argv = ["eval", str(files["hyp"]), "--alignment", str(files["gold"])]
        assert main(argv) != 0
        captured = capsys.readouterr()
        what = "alignment" if bad == "gold" else "segmentation"
        assert f"invalid {what} {files[bad]}" in captured.err
        assert named in captured.err
        assert "token_f1" not in captured.out

    def test_ablate_kmeans_rejects_bad_gold_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        out, manifest = _gen(tmp_path)
        lines = (out / "alignment.tsv").read_text().splitlines(keepends=True)
        last_word = [l for l in lines if l.startswith("u000000\tWORD\t")][-1]
        cases = {
            "overlap.tsv": ("u1\tWORD\t0\t80\nu1\tWORD\t40\t160\n", "u1"),
            # covers every corpus utterance but u000003
            "uncovered.tsv": (
                "".join(l for l in lines if not l.startswith("u000003\t")),
                "u000003",
            ),
            # u000000's last word left out: its words stop short of its end
            "short.tsv": (
                "".join(l for l in lines if l != last_word),
                "u000000: utterance ends at block",
            ),
        }
        trained = []
        monkeypatch.setattr(
            "dpparse.cli.train", lambda *a, **k: trained.append(a) or Segmentation()
        )
        for name, (text, named) in cases.items():
            gold = tmp_path / name
            gold.write_text(text)
            argv = ["ablate-kmeans", str(manifest), "--alignment", str(gold)]
            assert main(argv + ["--n-clusters", "4"]) != 0
            err = capsys.readouterr().err
            assert f"invalid alignment {gold}" in err
            assert named in err
        assert trained == []


class TestAblateKmeans:
    def test_reports_both_backends(self, tmp_path, capsys):
        out, manifest = _gen(tmp_path)
        report = tmp_path / "ablate.tsv"
        code = main(
            [
                "ablate-kmeans",
                str(manifest),
                "--alignment",
                str(out / "alignment.tsv"),
                "--n-clusters",
                "8",
                "--out",
                str(report),
                "--seed",
                "5",
                "--set",
                "trainer.n_iterations=2",
            ]
        )
        assert code == 0
        text = report.read_text()
        assert "backend.knn.token_f1" in text
        assert "backend.kmeans.token_f1" in text
        summary = json.loads(text.strip().splitlines()[-1].split("\t", 1)[1])
        assert set(summary) == {"knn_token_f1", "kmeans_token_f1"}

    @pytest.mark.parametrize(
        "mode,n_clusters,message",
        [
            ("discrete", "4", "ablate-kmeans needs --mode continuous"),
            ("continuous", "0", "kmeans backend needs kmeans_clusters >= 1"),
        ],
        ids=["mode-discrete", "n-clusters-0"],
    )
    def test_refused_before_training(
        self, tmp_path, capsys, monkeypatch, mode, n_clusters, message
    ):
        out, corpus = _gen(tmp_path, mode)

        def fail(*_args, **_kwargs):
            raise AssertionError("trained before the settings were checked")

        monkeypatch.setattr("dpparse.cli.train", fail)
        argv = ["ablate-kmeans", str(corpus), "--alignment", str(out / "alignment.tsv")]
        argv += ["--mode", mode, "--n-clusters", n_clusters]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
