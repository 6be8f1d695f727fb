"""Make `wbansim` importable from the checkout, so the micro-benchmarks run
with a plain `python -m pytest bench -q --benchmark-only`."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
