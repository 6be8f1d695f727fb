"""Exact radio time of a network where nothing but the beacons happens.

A silent node is an on-demand node that no query reaches.  In a network of
silent nodes, over N superframes, the radio time of every device follows from
the superframe timing and the wakeup multipliers alone.  A node with
multiplier k listens to ceil(N/k) beacons:

* its `rx` is ceil(N/k) beacon airtimes;
* under CSMA it listens through the rest of each CAP it joins, so its
  `idle_listen` is ceil(N/k) (active duration - beacon airtime); under TDMA
  it has no slot to use, so its `idle_listen` is 0;
* its sleep state takes the rest of the run.

The coordinator beacons in every superframe some node is due in: its `tx` is
that many beacon airtimes, and its `idle_listen` is the rest of the CAP (CSMA)
or the slot region (TDMA) each time.

The expected values are computed here from the scenario by hand, not by
calling the wakeup pattern or the MAC, so they check the simulator from the
outside.

On any network, a device's `tx` time is the measure of the union of what it
puts on the air: its channel transmissions and its wakeup signals, clipped
at the horizon.  That identity is checked on the shipped scenarios, the
golden variants and generated TDMA scenarios.

The CSVs report energy from the ledger alone: each node row's `energy_mj`,
and the summary's `bnc_energy_mj` for the coordinator, is the `math.fsum` of
the device's time in each radio state times that state's power in the
scenario's `EnergyModel`.  That holds for each run of a sweep and for its
aggregate, whose state times are the sums of the runs'.
"""

import csv
import math
from collections import Counter, defaultdict
from pathlib import Path

import pytest
import yaml

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wbansim.core import BNC_ID
from wbansim.metrics import RadioState
from wbansim.scenario import load_scenario, parse_scenario
from wbansim.simulation import Simulation

import test_simulation
from conftest import base_scenario_dict, run_sweep
from test_golden import VARIANTS
from test_tdma_windows import generated_tdma_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

BASE_SUPERFRAME_US = 15_360  # aBaseSuperframeDuration at 62.5 ksymbol/s
BEACON_US = 1_216            # 304 bits at 250 kb/s
SLOT_US = 1_600              # 400 payload bits at 250 kb/s
IDLE, RX, TX = RadioState.IDLE_LISTEN, RadioState.RX, RadioState.TX


@st.composite
def silent_networks(draw):
    mac = draw(st.sampled_from(["csma", "tdma"]))
    bo = draw(st.integers(0, 6))
    so = draw(st.integers(0, bo))
    multipliers = draw(st.lists(st.integers(1, 64), min_size=1, max_size=8))
    receivers = draw(st.lists(st.booleans(), min_size=len(multipliers),
                              max_size=len(multipliers)))
    superframes = draw(st.integers(1, 300))
    mode = draw(st.sampled_from(["broadcast", "frequency_addressed"]))
    return mac, bo, so, multipliers, receivers, superframes, mode


def silent_scenario(mac, bo, so, multipliers, receivers, superframes, mode):
    ids = range(1, len(multipliers) + 1)
    nodes = [{"id": i, "class": "on_demand_non_continuous", "criticality": "non_critical",
              "placement": {"kind": "on_body", "x_m": 0.05 * i}, "payload_bits": 400,
              "wakeup_multiplier": k, "wakeup_receiver": rx}
             for i, k, rx in zip(ids, multipliers, receivers)]
    wakeup = {"mode": mode}
    if mode == "frequency_addressed":
        wakeup["frequencies"] = {i: i for i in ids}
    extra = {}
    if mac == "tdma":
        extra["tdma"] = {"slot_duration_ms": SLOT_US / 1000, "slots": {i: i - 1 for i in ids}}
    raw = base_scenario_dict(mac=mac, horizon_superframes=superframes,
                             superframe={"beacon_order": bo, "superframe_order": so},
                             wakeup=wakeup, nodes=nodes, **extra)
    del raw["horizon_s"]
    return parse_scenario(raw, name="silent")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(silent_networks())
def test_silent_network_closed_form(network):
    mac, bo, so, multipliers, receivers, n, mode = network
    assume(n % math.lcm(*multipliers) != 0)
    horizon_us = n * BASE_SUPERFRAME_US << bo
    active_us = BASE_SUPERFRAME_US << so
    # The slots of all nodes, one after another after the beacon.
    region_us = len(multipliers) * SLOT_US

    ledger = Simulation(silent_scenario(mac, bo, so, multipliers, receivers, n, mode)).run()

    for node_id, (k, wakeup_receiver) in enumerate(zip(multipliers, receivers), start=1):
        beacons = -(-n // k)
        idle = beacons * (active_us - BEACON_US) if mac == "csma" else 0
        sleep = RadioState.WAKEUP_RX if wakeup_receiver else RadioState.SLEEP
        expected = {RX: beacons * BEACON_US, IDLE: idle,
                    sleep: horizon_us - beacons * BEACON_US - idle}
        got = {state: us for state, us in ledger.state_us[node_id].items() if us}
        assert got == {state: us for state, us in expected.items() if us}, node_id

    awake = sum(1 for j in range(n) if any(j % k == 0 for k in multipliers))
    idle = awake * ((active_us - BEACON_US) if mac == "csma" else region_us)
    bnc = ledger.state_us[BNC_ID]
    assert bnc[TX] == awake * BEACON_US
    assert bnc[IDLE] == idle
    assert bnc[RadioState.WAKEUP_RX] == horizon_us - awake * BEACON_US - idle
    assert sum(bnc.values()) == horizon_us


def union_us(spans, horizon_us):
    """The measure of the union of `spans`, each clipped at the horizon."""
    total, reach = 0, 0
    for start, end in sorted(spans):
        start, end = max(start, reach), min(end, horizon_us)
        if end > start:
            total += end - start
            reach = end
    return total


def airtime_case(name):
    if name in VARIANTS:
        base, sections = VARIANTS[name]
        raw = yaml.safe_load((SCENARIOS / f"{base}.yaml").read_text(encoding="utf-8"))
        return parse_scenario({**raw, **sections}, name=name), 1
    if name.startswith("tdma_generated"):
        return generated_tdma_scenario(int(name[len("tdma_generated"):])), None
    return load_scenario(SCENARIOS / f"{name}.yaml"), 1


AIRTIME_CASES = ([p.stem for p in sorted(SCENARIOS.glob("*.yaml"))] + sorted(VARIANTS)
                 + [f"tdma_generated{i}" for i in range(20)])


@pytest.mark.parametrize("name", AIRTIME_CASES)
def test_tx_time_is_the_union_of_what_each_device_sends(name):
    scn, seed = airtime_case(name)
    sim = Simulation(scn, seed=seed)
    # Capped as the radio-state invariant runs cap it; the run ends there.
    sim.horizon_us = test_simulation.TestRadioStateInvariants.HORIZON_US.get(name, sim.horizon_us)
    spans = defaultdict(list)
    register, send_signal = sim.channel.register_tx, sim._send_signal

    def observed_register(frame, placement, start, air_us):
        spans[frame.src].append((start, start + air_us))
        return register(frame, placement, start, air_us)

    def observed_signal(dev, dst, ctx):
        now = sim.scheduler.now
        spans[dev.id].append((now, now + sim.wc.signal_airtime_us))
        send_signal(dev, dst, ctx)

    sim.channel.register_tx, sim._send_signal = observed_register, observed_signal
    ledger = sim.run()
    assert sum(map(len, spans.values())) > 0
    for dev_id in sim.devices:
        assert ledger.state_us[dev_id][TX] == union_us(spans[dev_id], sim.horizon_us), dev_id


# scenario -> the horizon of its 3-seed sweep, as (key, value), or None for
# its own
CSV_ENERGY_HORIZONS = {
    "emergency_8bn": ("horizon_s", 310),
    "priority_saturated": ("horizon_s", 2),
    "tdma_three_links": ("horizon_superframes", 200),
    "wakeup_patterns_10_43": None,
}


def csv_energy(model, states):
    """The CSV text of the energy a device with these state times used."""
    return f"{math.fsum(us * 1e-6 * model.power_mw(state) for state, us in states.items()):.6f}"


@pytest.mark.parametrize("name", sorted(CSV_ENERGY_HORIZONS))
def test_csv_energy_is_state_time_times_power(name, tmp_path):
    raw = yaml.safe_load((SCENARIOS / f"{name}.yaml").read_text(encoding="utf-8"))
    if CSV_ENERGY_HORIZONS[name] is not None:
        key, value = CSV_ENERGY_HORIZONS[name]
        raw[key] = value
    ledgers = run_sweep(raw, name, 3, tmp_path)
    model = parse_scenario(raw, name=name).energy
    aggregate = defaultdict(Counter)
    for ledger in ledgers:
        for dev_id, states in ledger.state_us.items():
            aggregate[dev_id].update(states)
    runs = [(f"seed{seed}", ledger.state_us) for seed, ledger in enumerate(ledgers, start=1)]
    for run, state_us in runs + [("aggregate", aggregate)]:
        with open(tmp_path / f"{name}_{run}.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {int(row["node_id"]) for row in rows} == set(state_us) - {BNC_ID}, run
        for row in rows:
            assert row["energy_mj"] == csv_energy(model, state_us[int(row["node_id"])]), (run, row)
        with open(tmp_path / f"{name}_{run}_summary.csv", encoding="utf-8") as fh:
            [summary] = csv.DictReader(fh)
        assert summary["bnc_energy_mj"] == csv_energy(model, state_us[BNC_ID]), run
