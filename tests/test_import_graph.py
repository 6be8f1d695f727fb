"""Start-up guard: `import wbansim.cli` stays free of the modules that made
a cold start slow.  `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize` and compiles each decorated class's methods at import; `fractions`
pulls in `decimal` and `numbers`.  A change that brings one back fails here
by name, not by a timing."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KEPT_OUT = ("dataclasses", "inspect", "fractions")


def test_cli_import_adds_none_of_the_slow_modules():
    code = ("import sys; bare = set(sys.modules); import wbansim.cli; "
            "print(*sorted(set(sys.modules) - bare))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    added = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, text=True, check=True, timeout=60).stdout.split()
    assert "wbansim.cli" in added
    assert [m for m in KEPT_OUT if m in added] == []


def test_no_dataclass_in_the_package():
    hits = [f"{p.name}:{i}" for p in sorted((SRC / "wbansim").glob("*.py"))
            for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if "dataclass" in line]
    assert hits == []
