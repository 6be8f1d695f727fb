"""Metamorphic relations: properties between runs that need no oracle.

A golden digest pins one run.  These relations tie two runs together, so a
hidden coupling (dict order, a shared RNG stream, a leftover at the horizon)
breaks them on any seed.

Horizon prefix: the `--trace` of a run to T, without its horizon
`MeasurementTick` line, is line for line a prefix of the trace of the same
run to T' > T.  Nothing a run does before T may depend on where its horizon
lies.  Each shipped scenario runs at seed 3 to 0.3x and 0.6x its horizon;
`emergency_8bn` runs to 310 s and 500 s, because the loader rejects its
300 s query past a shorter horizon.
"""

from pathlib import Path

import pytest
import yaml

from wbansim.cli import run_one
from wbansim.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEED = 3
# scenario -> the two horizons, as (key, value) in the scenario's own unit
HORIZONS = {
    "emergency_8bn": [("horizon_s", 310), ("horizon_s", 500)],
    "priority_saturated": [("horizon_s", 4.5), ("horizon_s", 9)],
    "tdma_three_links": [("horizon_superframes", 3015), ("horizon_superframes", 6030)],
    "wakeup_patterns_10_43": [("horizon_superframes", 129), ("horizon_superframes", 258)],
}


def traced_run(name, key, value, out_dir):
    """The `--trace` lines of `name` run to the given horizon at SEED, and
    the horizon in us."""
    raw = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    raw.pop("horizon_s", None)
    raw.pop("horizon_superframes", None)
    scenario = parse_scenario({**raw, key: value}, name=name)
    out_dir.mkdir()
    run_one(scenario, SEED, out_dir, trace=True)
    trace = out_dir / f"{name}_seed{SEED}_trace.log"
    return trace.read_text(encoding="utf-8").splitlines(), scenario.horizon_us


@pytest.mark.parametrize("name", sorted(HORIZONS))
def test_a_shorter_run_traces_a_prefix_of_a_longer_one(name, tmp_path):
    (key, short), (_, long) = HORIZONS[name]
    lines, horizon_us = traced_run(name, key, short, tmp_path / "short")
    longer, longer_horizon_us = traced_run(name, key, long, tmp_path / "long")
    assert horizon_us < longer_horizon_us
    tick = f"{horizon_us} MeasurementTick -"
    assert lines.count(tick) == 1
    lines.remove(tick)
    assert len(lines) < len(longer)
    first = next((k for k, (a, b) in enumerate(zip(lines, longer)) if a != b), None)
    assert first is None, (first, lines[first], longer[first])
