"""The benchmark's self-check and a recorded output, against the current
sources.

perfbench wraps dpparse entry points by name and counts their calls, so
renaming or removing one fails here instead of first in a benchmark run.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout


def test_disc_decode_digest_reproduces(tmp_path, monkeypatch):
    # One disc-decode pass writes the segmentation recorded in
    # perfbench/baseline.json.  Discrete counts are integers, so any change
    # to how they are kept must reproduce it bit for bit.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    pipeline = importlib.import_module("pipeline")
    workloads = importlib.import_module("workloads")
    workload, seed = workloads.WORKLOADS["disc-decode"], 201
    corpus, gold = workloads.workload_corpus(workload, seed)
    input_path = workloads.write_inputs(corpus, gold, tmp_path / "inputs")
    config = workload.trainer_config(seed, 1)
    result = pipeline.run_pass(input_path, workload.mode, config, tmp_path / "seg.tsv")
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    recorded = baseline["workloads"]["disc-decode"]["seeds"][str(seed)]
    assert result.digest == recorded["digest_sha256"]


def test_cont_lexicon_digest_reproduces(tmp_path, monkeypatch):
    # One cont-lexicon pass writes the segmentation recorded for seed 201 in
    # CHANGES.md's entry on the continuous-mode fix (sub-span-sum embeddings
    # and the calibrated kernel width); perfbench/baseline.json predates it.
    # Exact kNN is held to the same bits, so a faster search must reproduce it.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    pipeline = importlib.import_module("pipeline")
    workloads = importlib.import_module("workloads")
    workload, seed = workloads.WORKLOADS["cont-lexicon"], 201
    corpus, gold = workloads.workload_corpus(workload, seed)
    input_path = workloads.write_inputs(corpus, gold, tmp_path / "inputs")
    config = workload.trainer_config(seed, 1)
    result = pipeline.run_pass(input_path, workload.mode, config, tmp_path / "seg.tsv")
    assert result.digest == (
        "42556cfa917bc9b367fdf056d8fdb624d72873929f85549d6e942295b420dfc1"
    )


def test_benchmark_command_runs():
    # The benchmark command imports more of dpparse than the pipeline does
    # (its env record names the top-k backend), so it is run as a whole.
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            "disc-decode",
            "--seed",
            "201",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
