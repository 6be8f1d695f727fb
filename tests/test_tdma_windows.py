"""TDMA emergency windows open only in a superframe's free part.

The coordinator grants an emergency under TDMA a dedicated window.  A window
opens only in a superframe's free part, from the end of the beacon and the
slot region to the next beacon, so it never meets a slot, a beacon or
another window.  It opens like a slot: the node sends its head frame if that
fits, and only while no frame of its own is on the air.  The scenario loader
rejects a TDMA scenario whose emergency frame cannot fit in that part.

A seeded generator builds TDMA scenarios over BO = SO 1-4 and 1-3 nodes, each
emergency or normal_high, periodic or Poisson, with multipliers 1-4 and 400 or
800-bit payloads.  Each run goes through
`TestRadioStateInvariants.run_checked` and must finish without an abort, keep
the radio-state rule, idle past no hold, put no two transmissions on the air
at once and account for every offered frame.
"""

import random
from collections import Counter

import yaml

from wbansim.cli import main
from wbansim.core import FrameKind, TrafficClass
from wbansim.engine import FIRE_AT, RunAborted
from wbansim.metrics import RadioState
from wbansim.simulation import Simulation

import test_simulation
from conftest import base_scenario_dict, make_scenario
from test_golden import variant_scenario

GENERATED_TDMA = 300
RATES_PER_HOUR = (3600.0, 36000.0, 360000.0)


def generated_tdma_scenario(index: int):
    """One valid TDMA scenario, drawn from its own seeded stream."""
    rng = random.Random(f"tdma-windows/{index}")
    order = rng.randint(1, 4)
    n = rng.randint(1, 3)
    nodes = []
    for node_id in range(1, n + 1):
        emergency = rng.random() < 0.5
        nodes.append({
            "id": node_id, "class": "emergency" if emergency else "normal_high",
            "criticality": "critical",
            "placement": {"kind": "on_body", "x_m": round(0.1 * node_id, 1)},
            "wakeup_multiplier": rng.randint(1, 4),
            "payload_bits": rng.choice([400, 800]),
            "traffic": {"arrival": rng.choice(["periodic", "poisson"]),
                        "rate_per_hour": rng.choice(RATES_PER_HOUR),
                        "phase_s": round(rng.uniform(0.0, 0.5), 4)},
        })
    return make_scenario(
        name=f"tdma_generated{index}", mac="tdma", horizon_s=2.0, seed=index,
        superframe={"beacon_order": order, "superframe_order": order},
        tdma={"slot_duration_ms": 3.4, "slots": {i: i - 1 for i in range(1, n + 1)}},
        nodes=nodes,
    )


def observed(scn, seed=None):
    """A simulation of `scn` and the list its channel registrations join."""
    sim = Simulation(scn, seed=seed)
    txs = []
    register = sim.channel.register_tx
    sim.channel.register_tx = lambda *a, **k: txs.append(register(*a, **k)) or txs[-1]
    return sim, txs


def overlaps(txs):
    """Pairs of channel transmissions on the air at the same time."""
    spans = sorted((tx.start, tx.end, tx.frame.src) for tx in txs)
    found, last = [], None
    for span in spans:
        if last is not None and span[0] < last[1]:
            found.append((last, span))
        if last is None or span[1] > last[1]:
            last = span
    return found


def unaccounted(sim):
    """(node, class) keys whose offered frames are not delivered, dropped or
    still queued."""
    ledger = sim.ledger
    queued = Counter((f.src, f.traffic_class) for dev in sim.devices.values()
                     for _, f in dev.queue if f.kind is FrameKind.DATA and not f.delivered)
    keys = set(ledger.offered) | set(ledger.delivered) | set(ledger.dropped) | set(queued)
    return [k for k in keys
            if ledger.offered[k] != ledger.delivered[k] + ledger.dropped[k] + queued[k]]


def check(scn, seed=None):
    """Run `scn` through `run_checked`; return what went wrong, by kind."""
    sim, txs = observed(scn, seed)
    try:
        _, violations, idle, _ = test_simulation.TestRadioStateInvariants.run_checked(
            sim, sim.horizon_us)
    except RunAborted as exc:
        return {"abort": str(exc).splitlines()[0]}
    faults = {"violations": violations[:3], "idle": dict(idle), "overlaps": overlaps(txs)[:3],
              "unaccounted": unaccounted(sim)}
    return {kind: fault for kind, fault in faults.items() if fault}


def test_generated_tdma_runs_keep_every_invariant():
    faults = {i: check(generated_tdma_scenario(i)) for i in range(GENERATED_TDMA)}
    counts = Counter(kind for found in faults.values() for kind in found)
    assert not counts, (dict(counts), {i: f for i, f in faults.items() if f})


def test_generated_tdma_scenarios_cover_the_space():
    scenarios = [generated_tdma_scenario(i) for i in range(GENERATED_TDMA)]
    assert {s.superframe.beacon_order for s in scenarios} == {1, 2, 3, 4}
    assert {len(s.nodes) for s in scenarios} == {1, 2, 3}
    profiles = [n.profile for s in scenarios for n in s.nodes]
    assert {p.traffic_class for p in profiles} == {TrafficClass.EMERGENCY,
                                                  TrafficClass.NORMAL_HIGH}
    assert {p.wakeup_multiplier for p in profiles} == {1, 2, 3, 4}
    assert {p.payload_bits for p in profiles} == {400, 800}
    assert {n.generator.arrival.value for s in scenarios for n in s.nodes} == {
        "periodic", "poisson"}


def one_emergency_node(order, multiplier, rate_per_hour, phase_s):
    """One 400-bit Poisson emergency node in a 3.4 ms slot, BO = SO = `order`."""
    return dict(
        mac="tdma", horizon_s=2.0,
        superframe={"beacon_order": order, "superframe_order": order},
        tdma={"slot_duration_ms": 3.4, "slots": {1: 0}},
        nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.1},
                "wakeup_multiplier": multiplier, "payload_bits": 400,
                "traffic": {"arrival": "poisson", "rate_per_hour": rate_per_hour,
                            "phase_s": phase_s}}],
    )


# Once, a window sent frame 256 again at the TxEnd where its slot had just
# sent it (1 477 376 us), and the second TxEnd aborted the run.
SENT_TWICE = one_emergency_node(3, 1, 360000.0, 0.1422)
# Once, frame 8 went in the slot at 646 336 us, the window at 648 744 us
# found it sent, and the coordinator, held to 650 344 us, stayed in
# idle_listen for 25 496 us more.
SENT_BEFORE_ITS_WINDOW = one_emergency_node(1, 3, 3600.0, 0.0674)


def test_a_frame_its_slot_sent_is_not_sent_again(tmp_path):
    assert check(make_scenario(**SENT_TWICE), seed=202) == {}
    scenario = tmp_path / "sent_twice.yaml"
    scenario.write_text(yaml.safe_dump(base_scenario_dict(**SENT_TWICE)), encoding="utf-8")
    assert main(["--scenario", str(scenario), "--seed", "202",
                 "--out", str(tmp_path / "out")]) == 0


def test_coordinator_sleeps_after_a_window_whose_frame_is_sent():
    assert check(make_scenario(**SENT_BEFORE_ITS_WINDOW), seed=72) == {}


def test_a_window_never_meets_a_slot():
    # BO = SO = 1.  Once, with two 400-bit frames in node 2's slot, a window
    # of node 1 opened where the channel freed after the first of them, and
    # node 1's frame and node 2's second one were both on the air from
    # 866 376 us.
    scn = make_scenario(
        mac="tdma", horizon_s=2.0,
        superframe={"beacon_order": 1, "superframe_order": 1},
        tdma={"slot_duration_ms": 3.4, "slots": {1: 0, 2: 1}},
        nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.1}, "wakeup_multiplier": 4,
                "payload_bits": 800,
                "traffic": {"arrival": "poisson", "rate_per_hour": 360000.0,
                            "phase_s": 0.4631}},
               {"id": 2, "class": "normal_high", "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.2}, "payload_bits": 400,
                "traffic": {"arrival": "periodic", "rate_per_hour": 36000.0,
                            "phase_s": 0.2985}}],
    )
    sim, txs = observed(scn, seed=25)
    sim.run()
    assert not overlaps(txs)
    # Every frame of node 1 outside its slot is a window's, in the free part.
    bi = scn.superframe.beacon_interval_us
    free = sim.air_us(scn.frames.beacon_bits) + scn.tdma.region_us
    windows = [(tx.start % bi, tx.end - tx.start) for tx in txs
               if tx.frame.src == 1 and tx.start % bi >= free]
    assert windows and all(into + air <= bi for into, air in windows)


def test_a_window_opening_at_a_txend_sends_each_frame_once():
    # Windows follow back to back.  The next one's start, scheduled at its
    # grant, is dispatched before the previous window's TxEnd at the same
    # instant, while that frame is still queued and `tx_until` equals now.
    scn = make_scenario(
        mac="tdma", horizon_s=2.0,
        superframe={"beacon_order": 1, "superframe_order": 1},
        tdma={"slot_duration_ms": 3.2, "slots": {1: 0}},
        nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.1}, "payload_bits": 800,
                "traffic": {"arrival": "poisson", "rate_per_hour": 180000.0}}],
    )
    for seed in range(1, 41):
        sim, txs = observed(scn, seed)
        sim.run()
        sent = Counter(tx.frame.sequence for tx in txs if tx.frame.kind is FrameKind.DATA)
        assert set(sent.values()) == {1}, seed
        # A frame still on the air at the horizon is also still queued.
        queued = {f.sequence for _, f in sim.devices[1].queue}
        assert len(sent.keys() | queued) == sim.ledger.offered[(1, TrafficClass.EMERGENCY)]


def test_emergency_frame_that_cannot_follow_the_slot_region_is_two(tmp_path, capsys):
    # BO = SO = 1: beacon 1 216 us + two 12 ms slots leaves 5 504 us before
    # the next beacon, and node 2's 1 600-bit frame takes 6 400 us.
    raw = base_scenario_dict(
        mac="tdma", superframe={"beacon_order": 1, "superframe_order": 1},
        tdma={"slot_duration_ms": 12.0, "slots": {1: 0, 2: 1}},
        nodes=[{"id": 1, "class": "normal_high", "payload_bits": 1600},
               {"id": 2, "class": "emergency", "criticality": "critical",
                "payload_bits": 1600}],
    )
    bad = tmp_path / "late.yaml"
    bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["--scenario", str(bad), "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert ("late.nodes: node 2: emergency frame airtime 6400 us exceeds the 5504 us "
            "between the slot region's end and the next beacon") in err
    assert "Traceback" not in err
    raw["nodes"][1]["payload_bits"] = 1376  # 5 504 us: it just fits
    bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["--scenario", str(bad), "--validate-only"]) == 0



def wakeup_variant(seed):
    """A simulation of the `tdma_three_links_wakeup` golden variant, whose
    emergency node is granted windows."""
    return Simulation(variant_scenario("tdma_three_links_wakeup"), seed=seed)


def idle_waiting_for_windows(sim):
    """Run `sim` to its horizon.  Return the coordinator's idle_listen time,
    in us, while a granted emergency window has yet to start, outside the
    coordinator's active parts and outside every window, and the number of
    windows granted.  A grant, a window's start and end, a beacon and an
    active part's end are each dispatched as an event, so the state after
    one dispatch holds, with or without a reason, up to the next."""
    mac, bnc = sim.mac, sim.bnc
    windows = []  # (grant, start, end) of each window not over yet
    granted = 0
    active_end = 0  # end of the coordinator's last active part
    grant, start_superframe = mac.grant_emergency, mac.start_superframe

    def observed_grant(node, flow):
        nonlocal granted
        now = sim.scheduler.now
        grant(node, flow)
        granted += 1
        windows.append((now, mac.window_end - sim.air_us(flow.frame.size_bits),
                        mac.window_end))

    def observed_start(t_b):
        nonlocal active_end
        info = start_superframe(t_b)
        active_end = info.cap_end
        return info

    mac.grant_emergency, mac.start_superframe = observed_grant, observed_start
    idle, last = 0, 0

    def sink(entry):
        nonlocal idle, last
        now = entry[FIRE_AT]
        windows[:] = [w for w in windows if w[2] > last]
        if (bnc.state is RadioState.IDLE_LISTEN and last >= active_end
                and any(g <= last < start for g, start, _ in windows)
                and not any(start <= last < end for _, start, end in windows)):
            idle += now - last
        last = now

    sim.scheduler.trace_sink = sink
    sim.run()
    return idle, granted


def test_coordinator_sleeps_from_a_grant_to_its_window():
    # Once, the grant raised the coordinator's hold to the window's end: at
    # seed 1 this variant's coordinator listened 6 906 us outside its active
    # parts while 43 windows waited to open.
    sim = wakeup_variant(seed=1)
    assert idle_waiting_for_windows(sim) == (0, 43)


def idle_in_empty_windows(sim):
    """Run `sim` to its horizon.  Return the coordinator's idle_listen time,
    in us, inside emergency windows that open on an empty queue while no hold
    lasts past the window, and the number of such windows."""
    mac, bnc = sim.mac, sim.bnc
    empty = []  # (start, end) of each window that opened on an empty queue
    open_window = mac._open_window

    def observed_open(dev, window_end):
        if not dev.queue:
            empty.append((sim.scheduler.now, window_end))
        open_window(dev, window_end)

    mac._open_window = observed_open  # read at each grant, when it is scheduled
    idle, last = 0, 0

    def sink(entry):
        nonlocal idle, last
        now = entry[FIRE_AT]
        if bnc.state is RadioState.IDLE_LISTEN and any(
                start <= last < end and bnc.hold_awake_until <= end for start, end in empty):
            idle += now - last
        last = now

    sim.scheduler.trace_sink = sink
    sim.run()
    return idle, len(empty)


def test_coordinator_sleeps_through_a_window_with_nothing_to_send():
    # Once, a window whose frame had already gone out in its node's slot
    # held the coordinator in idle_listen to the window's end: at seed 1
    # this variant's coordinator listened 9 600 us in 3 such windows.
    sim = wakeup_variant(seed=1)
    assert idle_in_empty_windows(sim) == (0, 3)
