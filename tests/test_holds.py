"""A hold ends only where it was raised, and every fact change applies the rule.

A device's one awake hold, `hold_awake_until`, is raised in two places:
`Simulation.hold` files the hold's end as an event of its own, and
`Simulation.hold_to_beacon` files the device under the next beacon, which
applies the rule to it.  Both apply the rule at once, as every other site
that changes one of the rule's three facts does.  `Device.__init__` sets
the hold to 0, and no other code assigns it.  So every hold-end event finds
its hold in place, and neither MAC schedules anything when a superframe
starts.
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


def functions(path):
    """Each function in `path` as (dotted scope, its `ast.FunctionDef`)."""
    found = []

    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = [*scopes, child.name]
                if isinstance(child, ast.FunctionDef):
                    found.append((".".join(inner), child))
                visit(child, inner)
            else:
                visit(child, scopes)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


SOURCE_FUNCTIONS = [item for path in sorted(SRC.glob("*.py")) for item in functions(path)]


def stored(node):
    """The attribute names `node` assigns, augmented assignments included."""
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}


def called(node):
    """The method names `node` calls."""
    return {n.func.attr for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}


def test_only_the_two_holds_and_the_constructor_assign_the_hold():
    sites = [scope for scope, fn in SOURCE_FUNCTIONS if "hold_awake_until" in stored(fn)]
    assert sorted(sites) == ["Device.__init__", "Simulation.hold", "Simulation.hold_to_beacon"]


def test_every_change_of_a_fact_applies_the_rule():
    # Once, both holds left the rule to their callers.
    writers = [(scope, "set_state" in called(fn)) for scope, fn in SOURCE_FUNCTIONS
               if scope != "Device.__init__"
               and stored(fn) & {"tx_until", "incoming", "hold_awake_until"}]
    assert len(writers) >= 5
    assert [scope for scope, applies in writers if not applies] == []


def method_call(stmt):
    """The method name of a statement that is one method call, else None."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call) \
            and isinstance(stmt.value.func, ast.Attribute):
        return stmt.value.func.attr
    return None


def test_no_caller_applies_the_rule_right_after_a_hold():
    # Once, four callers did, because neither hold applied it.
    repeats = []
    for scope, fn in SOURCE_FUNCTIONS:
        for node in ast.walk(fn):
            for field in ("body", "orelse"):
                block = getattr(node, field, None)
                if isinstance(block, list):
                    repeats += [scope for a, b in zip(block, block[1:])
                                if method_call(a) in ("hold", "hold_to_beacon")
                                and method_call(b) == "set_state"]
    assert repeats == []


def test_the_simulation_reaches_the_mac_through_its_five_calls():
    tree = ast.parse((SRC / "simulation.py").read_text(encoding="utf-8"))
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "mac"
             and isinstance(n.value, ast.Name) and n.value.id == "self"
             and isinstance(n.ctx, ast.Load)]
    uses = sorted((n.attr, type(n.ctx).__name__) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.value in reads)
    assert len(uses) == len(reads)  # no bare `self.mac` read, such as an alias
    assert sorted(set(uses)) == [
        ("grant_emergency", "Load"), ("offer", "Load"), ("on_beacon_received", "Load"),
        ("on_tx_end", "Load"), ("sim", "Store"), ("start_superframe", "Load"),
    ]
    assert uses.count(("sim", "Store")) == 1  # the teardown in `run`
