"""Slotted CSMA/CA keeps every contention step and transaction inside a CAP.

IEEE Std 802.15.4-2006, 7.5.1.4: a backoff countdown that would cross the
end of the contention access period (CAP) carries its remaining periods to
the next CAP, and an attempt whose two CCAs and acked transaction do not fit
before the CAP end waits for the next CAP.  `CsmaMac` decides both where it
schedules the countdown and the first CCA, so at a CAP end nothing is left
to pause or cancel.  These runs check that from the outside:

* every backoff expiry and CCA is dispatched while its device is in a CAP,
  from its `cap_anchor` and before its `cap_end`;
* at every CAP end, the `set_state` event at its device's `cap_end`, the
  scheduler holds no live backoff or CCA entry for the device (read off the
  calendar, not off the device);
* every data or command transaction, with its turnaround and ack, ends by
  its sender's `cap_end`.

Besides two shipped scenarios, a seeded generator builds valid CSMA
scenarios over BO 0-6, SO <= BO, 1-8 nodes, every traffic class and arrival
process, both wakeup modes and a lossy wakeup radio.
"""

import random
from pathlib import Path

import pytest

from wbansim.core import FrameKind, TrafficClass
from wbansim.engine import ARGS, FIRE_AT, FN
from wbansim.scenario import load_scenario
from wbansim.simulation import Simulation
from wbansim.traffic import ArrivalProcess

from conftest import make_scenario, pending_entries

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CONTENTION = {"on_backoff_expired", "on_cca_due"}
RATES_PER_HOUR = (360.0, 3600.0, 36000.0)


def generated_scenario(rng: random.Random, index: int):
    """One valid CSMA scenario drawn from `rng`."""
    bo = rng.randint(0, 6)
    n = rng.randint(1, 8)
    nodes, on_demand = [], []
    for node_id in range(1, n + 1):
        cls = rng.choice(list(TrafficClass))
        node = {"id": node_id, "class": cls.value,
                "criticality": rng.choice(["critical", "non_critical"]),
                "wakeup_multiplier": rng.randint(1, 4),
                "payload_bits": rng.choice([400, 800, 1600]),
                "placement": {"kind": "on_body", "x_m": round(rng.uniform(-0.5, 0.5), 3),
                              "y_m": round(rng.uniform(-0.5, 0.5), 3)}}
        if cls.is_on_demand:
            t = round(rng.uniform(0.0, 2.0), 4)
            if cls is TrafficClass.ON_DEMAND_CONTINUOUS:
                on_demand.append({"time_s": t, "target": node_id, "mode": "continuous",
                                  "rate_per_s": rng.choice([5, 20, 50]),
                                  "duration_s": rng.choice([0.5, 1.0])})
            else:
                on_demand.append({"time_s": t, "target": node_id, "mode": "non_continuous"})
        else:
            arrival = rng.choice(list(ArrivalProcess))
            traffic = {"arrival": arrival.value}
            if arrival is not ArrivalProcess.SATURATED:
                traffic["rate_per_hour"] = rng.choice(RATES_PER_HOUR)
                traffic["phase_s"] = round(rng.uniform(0.0, 0.5), 4)
            node["traffic"] = traffic
        nodes.append(node)
    wakeup = {"mode": rng.choice(["broadcast", "frequency_addressed"])}
    if wakeup["mode"] == "frequency_addressed":
        wakeup["frequencies"] = {node_id: node_id for node_id in range(1, n + 1)}
    return make_scenario(
        name=f"generated{index}", horizon_s=3.0, seed=index,
        superframe={"beacon_order": bo, "superframe_order": rng.randint(0, bo)},
        channel={"wakeup_loss_p": rng.choice([0.0, 0.3])},
        wakeup=wakeup, nodes=nodes, on_demand=on_demand,
    )


GENERATED = 20
CASES = [("priority_saturated", 2_000_000), ("emergency_8bn", 60_000_000)] + [
    (f"generated{i}", None) for i in range(GENERATED)]


def build(name: str, horizon_us):
    if name.startswith("generated"):
        rng = random.Random(f"cap-boundary/{name}")
        scn = generated_scenario(rng, int(name[len("generated"):]))
    else:
        scn = load_scenario(SCENARIOS / f"{name}.yaml")
    sim = Simulation(scn)
    return sim, horizon_us or sim.horizon_us


@pytest.mark.parametrize("name,horizon_us", CASES, ids=[c[0] for c in CASES])
def test_contention_and_transactions_stay_inside_the_cap(name, horizon_us):
    sim, horizon_us = build(name, horizon_us)
    ack_tail = sim.sf.turnaround_us + sim.air_us(sim.fp.ack_bits)
    seen, late, pending, overruns = [], [], [], []

    def sink(entry):
        fn_name = entry[FN].__name__
        if fn_name in CONTENTION:
            dev, now = entry[ARGS][0], entry[FIRE_AT]
            seen.append(fn_name)
            if not dev.cap_anchor <= now < dev.cap_end:
                late.append((now, fn_name, dev.id, dev.cap_anchor, dev.cap_end))
        elif fn_name == "set_state" and entry[FIRE_AT] == entry[ARGS][0].cap_end:
            dev = entry[ARGS][0]
            pending.extend((entry[FIRE_AT], e[FIRE_AT], e[FN].__name__, dev.id)
                           for e in pending_entries(sim.scheduler, entry)
                           if e[FN] is not None and e[FN].__name__ in CONTENTION
                           and e[ARGS][0] is dev)

    register = sim.channel.register_tx

    def observed_register(frame, placement, start, air_us):
        if frame.kind is FrameKind.DATA or frame.kind is FrameKind.COMMAND:
            cap_end = sim.devices[frame.src].cap_end
            if start + air_us + ack_tail > cap_end:
                overruns.append((start, frame.src, cap_end))
        return register(frame, placement, start, air_us)

    sim.channel.register_tx = observed_register
    sim.scheduler.trace_sink = sink
    sim.scheduler.run_until(horizon_us)
    assert not late, late[:5]
    assert not pending, pending[:5]
    assert not overruns, overruns[:5]
    if not name.startswith("generated"):
        assert "on_cca_due" in seen


def test_generated_scenarios_cover_the_space():
    """The generated cases span both wakeup modes, a lossy wakeup radio,
    every traffic class and arrival process, and contend for the channel."""
    scenarios = [build(f"generated{i}", None)[0].scn for i in range(GENERATED)]
    assert {s.wakeup.mode.value for s in scenarios} == {"broadcast", "frequency_addressed"}
    assert {s.channel_params.wakeup_loss_p for s in scenarios} == {0.0, 0.3}
    classes = {n.profile.traffic_class for s in scenarios for n in s.nodes}
    assert classes == set(TrafficClass)
    arrivals = {n.generator.arrival for s in scenarios for n in s.nodes if n.generator}
    assert arrivals == set(ArrivalProcess)
    orders = {(s.superframe.beacon_order, s.superframe.superframe_order) for s in scenarios}
    assert len(orders) > 8
