"""A hold ends only where it was raised.

A device's one awake hold, `hold_awake_until`, is raised in two places:
`Simulation.hold` files the hold's end as an event of its own, and
`Simulation.hold_to_beacon` files the device under the next beacon, which
applies the rule to it.  `Device.__init__` sets it to 0, and no other code
assigns it.  So every hold-end event finds its hold in place, and neither
MAC schedules anything when a superframe starts.
"""

import ast
from pathlib import Path

import pytest

from wbansim.engine import ARGS, FIRE_AT, FN
from wbansim.simulation import Simulation

from conftest import make_scenario
from test_golden import variant_scenario

SRC = Path(__file__).resolve().parent.parent / "src" / "wbansim"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["emergency_8bn_lossy", "tdma_three_links_wakeup"])
def test_every_hold_end_finds_its_hold(name, seed):
    # Once, a CSMA listener that lost its beacon still got the end event of
    # a CAP hold it never raised (433 on the lossy variant at seeds 1-3), and
    # a TDMA window that opened on an empty queue still ended a coordinator
    # hold (8 on the wakeup variant).
    sim = Simulation(variant_scenario(name), seed=seed)
    ends, unheld = 0, []

    def sink(entry):
        nonlocal ends
        if getattr(entry[FN], "__func__", None) is Simulation.set_state:
            dev, until = entry[ARGS]
            assert until == entry[FIRE_AT]
            ends += 1
            if dev.hold_awake_until < until:
                unheld.append((until, dev.id, dev.hold_awake_until))

    sim.scheduler.trace_sink = sink
    sim.run()
    assert ends > 100
    assert unheld == []


@pytest.mark.parametrize("mac", ["csma", "tdma"])
def test_starting_a_superframe_schedules_nothing(mac):
    tdma = {"mac": "tdma", "tdma": {"slot_duration_ms": 4.0, "slots": {1: 0}}}
    sim = Simulation(make_scenario(**(tdma if mac == "tdma" else {})), seed=1)
    calendar = sim.scheduler._calendar
    before = {at: list(entries) for at, entries in calendar.items()}
    sim.mac.start_superframe(0)
    assert calendar == before


def test_only_the_two_holds_and_the_constructor_assign_the_hold():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        scopes = []

        class Visitor(ast.NodeVisitor):
            def visit_scope(self, node):
                scopes.append(node.name)
                self.generic_visit(node)
                scopes.pop()

            visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

            def visit_Attribute(self, node):
                if node.attr == "hold_awake_until" and isinstance(node.ctx, ast.Store):
                    sites.append(".".join(scopes))
                self.generic_visit(node)

        Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(sites) == ["Device.__init__", "Simulation.hold", "Simulation.hold_to_beacon"]
