"""The micro-benchmarks under `bench/` still run against the current code.

They reach into simulator internals (device fields, scheduler entries), so
a refactor can break them while every test here passes.  With timing
disabled each benchmark runs its body once.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_micro_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
