"""The layer benchmark (benchmarks/bench_layers.py) reads the package's
stages, engines and builders directly; a change to one of them must fail
here, not only when the benchmark is next recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincavity

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmark_runs_against_the_package():
    pytest.importorskip("pytest_benchmark")
    src = Path(spincavity.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/bench_layers.py", "--benchmark-disable",
         "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
