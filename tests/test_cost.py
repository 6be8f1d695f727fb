"""Cost record: how many Python and C calls a run makes.

A profile hook (`sys.setprofile`) counts the `call` and `c_call` events of
`Simulation.run()` for the four shipped scenarios and criterion 6's deferral
scenario, at seed 1 and at horizons short enough for a quick test.  At a
fixed seed the counts are a pure function of the source and the Python
version, so host noise cannot move them, and `cost_record.json` keeps them
per Python version (`major.minor`).  The test asserts equality, like a
digest: a change that moves a count must say why, together with the
re-recorded entries:

    PYTHONPATH=src python tests/test_cost.py --write [NAME ...]

With names, only those entries are rewritten; without, every entry is.  Each
count that changed is printed, and an unknown name exits non-zero with the
file untouched.  A Python version with no record skips the test until it is
recorded.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from wbansim.scenario import load_scenario, parse_scenario
from wbansim.simulation import Simulation

from test_acceptance import DEFERRAL

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
RECORD_FILE = Path(__file__).with_name("cost_record.json")
VERSION = "%d.%d" % sys.version_info[:2]
SEED = 1
# name -> horizon in us, or None for the scenario's own
HORIZONS = {
    "deferral": 20_000 * 30_720,
    "emergency_8bn": None,
    "priority_saturated": 5_000_000,
    "tdma_three_links": 2_000 * 30_720,
    "wakeup_patterns_10_43": None,
}
NAMES = sorted(HORIZONS)


def scenario(name: str):
    if name == "deferral":
        scn = parse_scenario(DEFERRAL, name=name)
    else:
        scn = load_scenario(SCENARIOS / f"{name}.yaml")
    if HORIZONS[name] is not None:
        scn.horizon_us = HORIZONS[name]
    return scn


def count_calls(name: str) -> dict[str, int]:
    """Python and C calls made by `run()` of `name`'s simulation; the
    simulation is built before the hook is set.  The same run goes once
    unprofiled first: the process keeps caches across runs (the first
    `Counter(dict)` fills an ABC's subclass cache), and the count must not
    depend on what ran before it."""
    Simulation(scenario(name), seed=SEED).run()
    sim = Simulation(scenario(name), seed=SEED)
    events: Counter[str] = Counter()

    def hook(frame, event, arg):
        events[event] += 1

    sys.setprofile(hook)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    return {"python_calls": events["call"], "c_calls": events["c_call"]}


@pytest.mark.parametrize("name", NAMES)
def test_calls_match_the_record(name):
    record = json.loads(RECORD_FILE.read_text(encoding="utf-8"))
    if VERSION not in record:
        pytest.skip(f"no cost record for Python {VERSION}; record it with --write")
    assert count_calls(name) == record[VERSION][name]


def write(names: list[str]) -> None:
    """Rewrite this Python version's entries of `names` (every entry if none
    is named) and print each count that changed."""
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        raise SystemExit(f"unknown name(s) {', '.join(unknown)}; known: {', '.join(NAMES)}")
    record = json.loads(RECORD_FILE.read_text(encoding="utf-8"))
    old = record.get(VERSION, {})
    counts = dict(old) if names else {}
    for name in names or NAMES:
        counts[name] = count_calls(name)
        before, after = old.get(name, {}), counts[name]
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"{VERSION} {name}: {key} {before.get(key)} -> {after.get(key)}")
    record[VERSION] = dict(sorted(counts.items()))
    RECORD_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def test_write_rejects_an_unknown_name():
    before = RECORD_FILE.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, __file__, "--write", NAMES[0], "no_such_scenario"],
                          capture_output=True, text=True, env=env)
    assert done.returncode != 0 and "no_such_scenario" in done.stderr
    assert RECORD_FILE.read_bytes() == before


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        raise SystemExit("usage: test_cost.py --write [NAME ...]")
    write(sys.argv[2:])
