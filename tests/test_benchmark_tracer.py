"""The benchmark's traced run patches simulator names from outside the
package (`perfbench/tracer.py`).  Entering and leaving its patch context here
makes a deleted or renamed name fail the unit tests too, in well under a
second, instead of only the benchmark's traced run; one short traced run
checks that the patched hooks still see the events, CCAs, deliveries,
backoff draws, wakeup-pattern lookups and the ledger's delivery counts."""

import importlib.util
from pathlib import Path

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


def test_traced_run_sees_every_dispatch_and_the_csma_hooks(tmp_path):
    tracer = load_tracer()
    raw = yaml.safe_load((ROOT / "scenarios" / "priority_saturated.yaml").read_text())
    raw["horizon_s"] = 1
    scenario = tmp_path / "priority_saturated.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    rec = tracer.SpanRecorder()
    with tracer.installed(rec):
        assert cli.main(["--scenario", str(scenario), "--seed", "1", "--trace",
                         "--out", str(tmp_path / "out")]) == 0
    summary = tracer.summarize(rec, import_ns=0)
    trace = tmp_path / "out" / "priority_saturated_seed1_trace.log"
    assert summary["engine.dispatched"] == len(trace.read_text().splitlines()) > 0
    for count in ("channel.cca_calls", "channel.deliver_calls", "mac_csma.backoff_draw_calls",
                  "mac_csma.tx_per_delivery", "wakeup.is_awake_calls"):
        assert summary[count] > 0, count
    assert 0 < summary["channel.cca_busy_frac"] < 1
