"""The benchmark's traced run patches simulator names from outside the
package (`perfbench/tracer.py`).  Entering and leaving its patch context here
makes a deleted or renamed name fail the unit tests too, in well under a
second, instead of only the benchmark's traced run."""

import importlib.util
from pathlib import Path

from wbansim import simulation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
