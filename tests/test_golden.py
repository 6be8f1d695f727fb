"""Golden gate: every CSV and trace byte of the shipped scenarios is pinned.

For each scenario under `scenarios/`, a three-seed sweep with `--trace`
writes per-seed node and summary CSVs, per-seed trace logs and the aggregate
CSVs.  Their sha256 digests must equal the ones in `golden_digests.json`.
A change that alters any of them changes what the simulator computes and
must say why, together with a regenerated digest file:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from wbansim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))
DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SEEDS = "1..3"


def sweep_digests(scenario: Path, out: Path) -> dict[str, str]:
    assert main(["--scenario", str(scenario), f"--seeds={SEEDS}", "--trace",
                 "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda p: p.stem)
def test_outputs_match_golden_digests(scenario, tmp_path):
    golden = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))[scenario.stem]
    assert sweep_digests(scenario, tmp_path) == golden


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden.py --write")
    digests = {}
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            digests[scenario.stem] = sweep_digests(scenario, Path(tmp))
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
