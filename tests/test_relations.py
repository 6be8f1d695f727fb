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

Node order: the order of a scenario's `nodes:` list is not an input.  Any
permutation of it gives the same node and summary CSV rows.  Each shipped
scenario runs at seed 1, the busy ones to a shorter horizon.

Merge order: a sweep's aggregate is a sum over its runs, so the order in
which the per-seed ledgers merge is not an input.  Merged in any order, the
ledgers of a 12-seed `wbansim --seeds` sweep give the aggregate node and
summary CSVs that sweep wrote, byte for byte.
"""

import functools
import io
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.cli import run_one
from wbansim.metrics import merge_ledgers, write_node_csv, write_summary_csv
from wbansim.scenario import parse_scenario
from wbansim.simulation import Simulation

from conftest import run_sweep

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


# scenario -> the horizon of its node-order runs, as (key, value), or None
# for its own
NODE_ORDER_HORIZONS = {
    "emergency_8bn": ("horizon_s", 400),
    "priority_saturated": ("horizon_s", 3),
    "tdma_three_links": ("horizon_superframes", 1000),
    "wakeup_patterns_10_43": None,
}


@functools.cache
def node_order_raw(name):
    raw = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    if NODE_ORDER_HORIZONS[name] is not None:
        key, value = NODE_ORDER_HORIZONS[name]
        raw.pop("horizon_s", None)
        raw.pop("horizon_superframes", None)
        raw[key] = value
    return raw


@functools.cache
def csv_rows(name, order):
    """The node and summary CSV text of `name` at seed 1, with its nodes
    listed in `order` (indices into the file's own list)."""
    raw = node_order_raw(name)
    scenario = parse_scenario({**raw, "nodes": [raw["nodes"][i] for i in order]}, name=name)
    ledger = Simulation(scenario, seed=1).run()
    node_csv, summary_csv = io.StringIO(), io.StringIO()
    write_node_csv(node_csv, ledger, name, 1, scenario.mac, scenario.energy)
    write_summary_csv(summary_csv, ledger, name, 1, scenario.mac, scenario.energy)
    return node_csv.getvalue(), summary_csv.getvalue()


@pytest.mark.parametrize("name", sorted(NODE_ORDER_HORIZONS))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_order_of_the_nodes_changes_no_row(name, data):
    count = len(node_order_raw(name)["nodes"])
    order = tuple(data.draw(st.permutations(range(count)), label="order"))
    assert csv_rows(name, order) == csv_rows(name, tuple(range(count)))


MERGE_ORDER_SEEDS = 12
# scenario -> the horizon of its merge-order sweep, as (key, value)
MERGE_ORDER_HORIZONS = {
    "emergency_8bn": ("horizon_s", 310),
    "priority_saturated": ("horizon_s", 3),
}


@pytest.fixture(scope="module", params=sorted(MERGE_ORDER_HORIZONS))
def sweep(request, tmp_path_factory):
    """The scenario of one merge-order sweep, its per-seed ledgers and the
    bytes of the aggregate node and summary CSVs it wrote."""
    name = request.param
    key, value = MERGE_ORDER_HORIZONS[name]
    raw = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    raw[key] = value
    out_dir = tmp_path_factory.mktemp(name)
    ledgers = run_sweep(raw, name, MERGE_ORDER_SEEDS, out_dir)
    aggregate = tuple((out_dir / f"{name}_aggregate{suffix}.csv").read_bytes()
                      for suffix in ("", "_summary"))
    return parse_scenario(raw, name=name), ledgers, aggregate


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(order=st.permutations(range(MERGE_ORDER_SEEDS)))
def test_the_merge_order_changes_no_aggregate_byte(sweep, order):
    scenario, ledgers, aggregate = sweep
    merged = merge_ledgers(ledgers[i] for i in order)
    run_id = f"{scenario.name}-aggregate"
    node_csv, summary_csv = io.StringIO(), io.StringIO()
    write_node_csv(node_csv, merged, run_id, "", scenario.mac, scenario.energy)
    write_summary_csv(summary_csv, merged, run_id, "", scenario.mac, scenario.energy)
    assert (node_csv.getvalue().encode(), summary_csv.getvalue().encode()) == aggregate
