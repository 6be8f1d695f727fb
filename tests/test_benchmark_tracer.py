"""The benchmark's traced run patches simulator names from outside the
package (`perfbench/tracer.py`).  Entering and leaving its patch context here
makes a deleted or renamed name fail the unit tests too, in well under a
second, instead of only the benchmark's traced run; one short traced run
per MAC checks that the patched hooks still see the events, CCAs,
deliveries, backoff draws, slot starts, arrivals, wakeup-pattern lookups and
the ledger's delivery counts."""

import importlib.util
from pathlib import Path

import pytest
import yaml

from wbansim import cli, simulation

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    tracer = load_tracer()
    before = (simulation.resolve_wakeup_targets, simulation.Simulation.begin_tx)
    with tracer.installed(tracer.SpanRecorder()):
        assert simulation.resolve_wakeup_targets is not before[0]
        assert simulation.Simulation.begin_tx is not before[1]
    assert (simulation.resolve_wakeup_targets, simulation.Simulation.begin_tx) == before


# Per scenario: the edit that shortens it, and the counts its traced run must
# see.  The TDMA run guards the hooks on the slot path: an inlining that
# bypasses a patched name would read 0 there.
TRACED_RUNS = {
    "priority_saturated": ({"horizon_s": 1}, (
        "channel.cca_calls", "channel.deliver_calls", "mac_csma.backoff_draw_calls",
        "mac_csma.tx_per_delivery", "wakeup.is_awake_calls")),
    "tdma_three_links": ({"horizon_superframes": 200}, (
        "simulation.begin_tx_calls", "channel.register_tx_calls", "channel.deliver_calls",
        "mac_tdma.slot_starts", "traffic.arrival_calls", "wakeup.is_awake_calls")),
}


@pytest.mark.parametrize("name", TRACED_RUNS)
def test_traced_run_sees_every_dispatch_and_the_mac_hooks(tmp_path, name):
    tracer = load_tracer()
    edit, counts = TRACED_RUNS[name]
    raw = yaml.safe_load((ROOT / "scenarios" / f"{name}.yaml").read_text())
    raw.update(edit)
    scenario = tmp_path / f"{name}.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    rec = tracer.SpanRecorder()
    with tracer.installed(rec):
        assert cli.main(["--scenario", str(scenario), "--seed", "1", "--trace",
                         "--out", str(tmp_path / "out")]) == 0
    summary = tracer.summarize(rec, import_ns=0)
    trace = tmp_path / "out" / f"{name}_seed1_trace.log"
    assert summary["engine.dispatched"] == len(trace.read_text().splitlines()) > 0
    for count in counts:
        assert summary[count] > 0, count
    if name == "priority_saturated":
        assert 0 < summary["channel.cca_busy_frac"] < 1
