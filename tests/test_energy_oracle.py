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
"""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wbansim.core import BNC_ID
from wbansim.metrics import RadioState
from wbansim.scenario import parse_scenario
from wbansim.simulation import Simulation

from conftest import base_scenario_dict

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
