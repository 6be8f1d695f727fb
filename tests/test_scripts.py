"""The scripts in `scripts/` run in-process at their smallest setting.  They
build scenarios from hand-edited dicts and call the channel directly, so a
change to the loader or the records that breaks them fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, argv", [
    ("cca_distance_sweep", []),
    ("priority_latency_sweep", ["--seeds", "1"]),
    ("wakeup_duty_cycle", []),
])
def test_script_prints_a_table(script, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{script}", SCRIPTS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    assert module.main() is None
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) >= 3, rows  # a header and at least two rows
