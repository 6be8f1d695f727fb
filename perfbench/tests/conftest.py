import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))


@pytest.fixture
def short_scenario(tmp_path):
    """Write a shipped scenario with a shorter horizon; returns its path."""

    def make(name: str, key: str, value: int) -> Path:
        text = (ROOT / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
        text, n = re.subn(rf"^{key}: .*$", f"{key}: {value}", text, flags=re.M)
        assert n == 1
        path = tmp_path / f"{name}.yaml"
        path.write_text(text, encoding="utf-8")
        return path

    return make
