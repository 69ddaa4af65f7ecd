"""The top-k selection benchmark, run on its quick cases.

``benchmarks/bench_knn.py`` imports the kernel entry points by name, so
renaming or removing one fails here instead of first in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_knn_quick_runs():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    script = ROOT / "benchmarks" / "bench_knn.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--quick", "--threads", "1"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith("selection threads: 1")
    assert len(lines) == 4  # banner, header, one row per quick case
