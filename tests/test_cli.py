import json

import numpy as np
import pytest

from dpparse import io as dpio
from dpparse.cli import main
from dpparse.config import load_run_config, read_config_file
from dpparse.core import Segmentation


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
        victim = next((out / "frames").glob("*.dppf"))
        victim.write_bytes(b"EVIL" + victim.read_bytes()[4:])
        code = main(
            ["segment", str(manifest), "--out", str(tmp_path / "seg.tsv")]
        )
        assert code != 0
        err = capsys.readouterr().err
        assert victim.name in err

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
        "bad, gold, hyp",
        [
            ("gold", "u1\tWORD\t0\t80\nu1\tWORD\t40\t160\n", _HYP),  # overlap
            ("gold", "u1\tWORD\t0\t80\nu1\tWORD\t120\t160\n", _HYP),  # gap
            ("hyp", _GOLD, "u1\t0\t80\nu1\t40\t160\n"),  # overlapping tokens
            ("hyp", _GOLD, "u1\t40\t80\nu1\t80\t160\n"),  # not from block 0
            ("hyp", _GOLD, "u1\t0\t80\n"),  # stops before the last gold word
        ],
        ids=["gold-overlap", "gold-gap", "hyp-overlap", "hyp-late-start", "hyp-short"],
    )
    def test_malformed_input_rejected_with_file_named(
        self, tmp_path, capsys, bad, gold, hyp
    ):
        files = {"gold": tmp_path / "gold.tsv", "hyp": tmp_path / "hyp.tsv"}
        files["gold"].write_text(gold)
        files["hyp"].write_text(hyp)
        argv = ["eval", str(files["hyp"]), "--alignment", str(files["gold"])]
        assert main(argv) != 0
        captured = capsys.readouterr()
        what = "alignment" if bad == "gold" else "segmentation"
        assert f"invalid {what} {files[bad]}" in captured.err
        assert "token_f1" not in captured.out

    def test_ablate_kmeans_rejects_bad_gold_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        _, manifest = _gen(tmp_path)
        gold = tmp_path / "gold.tsv"
        gold.write_text("u1\tWORD\t0\t80\nu1\tWORD\t40\t160\n")
        trained = []
        monkeypatch.setattr(
            "dpparse.cli.train", lambda *a, **k: trained.append(a) or Segmentation()
        )
        argv = ["ablate-kmeans", str(manifest), "--alignment", str(gold)]
        assert main(argv + ["--n-clusters", "4"]) != 0
        assert f"invalid alignment {gold}" in capsys.readouterr().err
        assert trained == []


class TestAbxCommand:
    def test_scores_triplet_file(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 8)).astype(np.float32)
        noise = 0.01 * rng.normal(size=(50, 8)).astype(np.float32)
        b = rng.normal(size=(50, 8)).astype(np.float32)
        path = tmp_path / "t.dppt"
        dpio.write_triplets(path, x + noise, b, x)
        assert main(["abx", str(path)]) == 0
        out = capsys.readouterr().out
        score = float(out.split("\t")[1])
        assert score > 0.9


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
