"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wbansim.channel import CcaResult, ChannelModel, ChannelParams
from wbansim.core import Criticality, FrameKind, Placement, PlacementKind, TrafficClass
from wbansim.mac_csma import BackoffPolicy
from wbansim.metrics import EnergyModel, latency_stats, write_node_csv, write_summary_csv
from wbansim.scenario import load_scenario, parse_scenario
from wbansim.simulation import Simulation
from wbansim.wakeup import bnc_schedule

from conftest import make_scenario
from test_mac_csma import reference_outcome, run_fsm

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SEEDS = range(1, 21)


def run_ledger(scn, seed):
    return Simulation(scn, seed=seed).run()


def saturated_scenario(min_be_critical, min_be_noncritical):
    nodes = []
    for i in range(1, 11):
        ang = 2 * math.pi * i / 10
        nodes.append({
            "id": i, "class": "normal_high",
            "criticality": "critical" if i <= 5 else "non_critical",
            "placement": {"kind": "on_body", "x_m": round(0.5 * math.cos(ang), 3),
                          "y_m": round(0.5 * math.sin(ang), 3)},
            "traffic": {"arrival": "saturated"},
        })
    return make_scenario(
        name="priority",
        horizon_s=15.0,
        superframe={"beacon_order": 6, "superframe_order": 6},
        mac_params={"min_be_critical": min_be_critical,
                    "min_be_noncritical": min_be_noncritical},
        nodes=nodes,
    )


def group_means(ledger):
    crit = [s for n in range(1, 6) for s in ledger.latency_samples(node=n)]
    nc = [s for n in range(6, 11) for s in ledger.latency_samples(node=n)]
    return crit, nc


def test_criterion_1_emergency_latency_bound():
    """8 mixed-class BNs, CSMA, BO=SO=6, ideal wakeup: emergency p99 < 1 s."""
    scn = load_scenario(SCENARIOS / "emergency_8bn.yaml")
    samples = []
    worst_wall = 0.0
    for seed in SEEDS:
        t0 = time.monotonic()
        ledger = run_ledger(scn, seed)
        worst_wall = max(worst_wall, time.monotonic() - t0)
        samples += ledger.latency_samples(cls=TrafficClass.EMERGENCY)
    assert len(samples) >= 100
    stats = latency_stats(samples)
    assert stats["p99"] < 1_000_000, f"emergency p99 {stats['p99']} us breaches 1 s"
    assert worst_wall < 10.0, f"run took {worst_wall:.1f} s wall per seed"
    print(f"\nACCEPTANCE 1 (emergency bound): PASS "
          f"p99={stats['p99']/1e3:.1f} ms over {len(samples)} events, "
          f"<= {worst_wall:.2f} s/seed")


def test_criterion_2_priority_separation_and_null():
    """Smaller critical backoff window => lower latency; no split, no gap."""
    scn = saturated_scenario(2, 4)
    wins = 0
    for seed in SEEDS:
        crit, nc = group_means(run_ledger(scn, seed))
        if sum(crit) / len(crit) < sum(nc) / len(nc):
            wins += 1
    assert wins >= 19, f"critical group faster in only {wins}/20 seeds"

    null = saturated_scenario(3, 3)
    crit_all, nc_all = [], []
    for seed in SEEDS:
        crit, nc = group_means(run_ledger(null, seed))
        crit_all += crit
        nc_all += nc
    mc, mn = sum(crit_all) / len(crit_all), sum(nc_all) / len(nc_all)
    rel = abs(mc - mn) / ((mc + mn) / 2)
    assert rel < 0.05, f"equal windows but class means differ by {rel:.1%}"
    print(f"ACCEPTANCE 2 (priority separation): PASS "
          f"separation in {wins}/20 seeds; null gap {rel:.2%}")


def test_criterion_3_cca_geometry():
    """-16 dBm implant: invisible at 3 m for both thresholds, busy at 1.5 m."""
    bnc = Placement(PlacementKind.ON_BODY)

    def implant_tx(distance):
        model = ChannelModel(ChannelParams(tx_power_in_body_dbm=-16.0))
        from wbansim.core import Frame
        frame = Frame(FrameKind.DATA, 1, 0, 800, TrafficClass.EMERGENCY, 0, 1)
        model.register_tx(frame, Placement(PlacementKind.IN_BODY, distance, 0, 0, depth_m=0.05),
                          0, 10_000)
        return model

    at3 = implant_tx(3.0)
    power3 = at3.received_power_dbm(bnc, 5000)
    assert power3 == pytest.approx(-97.47, abs=0.005)
    assert at3.cca_energy_detect(bnc, -85.0, 5000) is CcaResult.IDLE
    assert at3.cca_energy_detect(bnc, -95.0, 5000) is CcaResult.IDLE

    at15 = implant_tx(1.5)
    power15 = at15.received_power_dbm(bnc, 5000)
    assert power15 == pytest.approx(-83.92, abs=0.005)
    assert at15.cca_energy_detect(bnc, -85.0, 5000) is CcaResult.BUSY
    print(f"ACCEPTANCE 3 (CCA geometry): PASS rx(3.0m)={power3:.2f} dBm idle, "
          f"rx(1.5m)={power15:.2f} dBm busy")


def test_criterion_4_wakeup_schedule_arithmetic():
    """{10x, 43x} over 430 superframes: 43 + 10 wakes, 52 BNC-active indices."""
    schedule = bnc_schedule([10, 43], 430)
    assert len(schedule) == 52

    scn = load_scenario(SCENARIOS / "wakeup_patterns_10_43.yaml")
    ledger = run_ledger(scn, 1)
    assert ledger.total_superframes == 430
    assert ledger.node_awake_superframes[1] == 43
    assert ledger.node_awake_superframes[3] == 10
    assert ledger.bnc_awake_superframes == 52
    assert ledger.bnc_awake_fraction() == Fraction(52, 430)
    print("ACCEPTANCE 4 (wakeup schedule): PASS 43/10 node wakes, "
          f"BNC fraction {ledger.bnc_awake_fraction()} = "
          f"{float(ledger.bnc_awake_fraction()):.4f}")


def test_criterion_5_link_quality_calibration():
    """Configured 1.00/0.99/0.84 link qualities reproduced within +-0.01."""
    scn = load_scenario(SCENARIOS / "tdma_three_links.yaml")
    ledger = run_ledger(scn, 1)
    targets = {1: 1.00, 2: 0.99, 3: 0.84}
    measured = {}
    for node, target in targets.items():
        offered = ledger.offered[(node, TrafficClass.NORMAL_HIGH)]
        assert offered >= 10_000
        pdr = ledger.pdr(node=node)
        measured[node] = pdr
        assert pdr == pytest.approx(target, abs=0.01), f"node {node}: {pdr:.4f}"
    assert measured[1] == 1.0
    print("ACCEPTANCE 5 (link calibration): PASS "
          + " ".join(f"node{n}={measured[n]:.4f}" for n in targets))


# One TDMA node awake every tenth superframe: its frames wait for the next
# awake one, and most beacons reach nobody.
DEFERRAL = {
    "mac": "tdma",
    "horizon_superframes": 300_000,
    "superframe": {"beacon_order": 1, "superframe_order": 1},
    "tdma": {"slot_duration_ms": 12.0, "slots": {1: 0}},
    "nodes": [{
        "id": 1, "class": "normal_high", "wakeup_multiplier": 10,
        "traffic": {"rate_per_hour": 3906.25, "arrival": "poisson"},
    }],
}


def test_criterion_6_tdma_isolation_and_deferral():
    """No overlapping data frames over 1e4 superframes; mean wait ~ k*SF/2."""
    scn = load_scenario(SCENARIOS / "tdma_three_links.yaml")
    sim = Simulation(scn, seed=2)
    txs = []
    register = sim.channel.register_tx
    sim.channel.register_tx = lambda *a, **k: txs.append(register(*a, **k)) or txs[-1]
    ledger = sim.run()
    assert ledger.total_superframes >= 10_000
    data = sorted(
        (tx.start, tx.end) for tx in txs
        if tx.frame.kind is FrameKind.DATA
    )
    assert len(data) > 20_000
    for (s1, e1), (s2, e2) in zip(data, data[1:]):
        assert e1 <= s2, f"overlap: [{s1},{e1}) vs [{s2},{e2})"

    defer = parse_scenario(DEFERRAL, name="deferral")
    ledger = run_ledger(defer, 3)
    samples = ledger.latency_samples(node=1)
    assert len(samples) >= 9_000
    air = 3200  # 800 bits at 250 kbps
    mean_wait = sum(samples) / len(samples) - air
    oracle = 10 * defer.superframe.beacon_interval_us / 2  # k * SF / 2
    assert mean_wait == pytest.approx(oracle, rel=0.10), (
        f"mean deferral {mean_wait:.0f} us vs k*SF/2 = {oracle:.0f} us"
    )
    print(f"ACCEPTANCE 6 (TDMA isolation): PASS {len(data)} frames non-overlapping; "
          f"mean deferral {mean_wait/1e3:.1f} ms vs oracle {oracle/1e3:.1f} ms")


def test_criterion_7_determinism_conservation_fsm():
    """Bit-identical reruns, exact state partition, FSM matches the oracle."""
    import io

    scn = load_scenario(SCENARIOS / "emergency_8bn.yaml")
    outputs = []
    for _ in range(2):
        ledger = run_ledger(scn, 5)
        node_fh, summary_fh = io.StringIO(), io.StringIO()
        write_node_csv(node_fh, ledger, "emg-s5", 5, scn.mac, scn.energy)
        write_summary_csv(summary_fh, ledger, "emg-s5", 5, scn.mac, scn.energy)
        outputs.append(node_fh.getvalue() + summary_fh.getvalue())
    assert outputs[0] == outputs[1], "same (scenario, seed) produced different CSVs"

    ledger = run_ledger(scn, 5)
    for dev_id, states in ledger.state_us.items():
        assert sum(states.values()) == scn.horizon_us, f"device {dev_id} leaks time"

    for policy, crit in (
        (BackoffPolicy(), Criticality.CRITICAL),
        (BackoffPolicy(), Criticality.NON_CRITICAL),
    ):
        min_be = policy.min_be(crit)
        for length in range(1, 9):
            for bits in itertools.product("IB", repeat=length):
                s = "".join(bits)
                assert run_fsm(s, policy, crit) == reference_outcome(
                    s, min_be, policy.max_be, policy.max_csma_backoffs
                ), f"CSMA trace diverges from oracle on {s!r}"
    print("ACCEPTANCE 7 (determinism + conservation + FSM oracle): PASS")


def test_criterion_8_wakeup_addressing():
    """Broadcast wakes all 8 (7 spurious), addressed wakes 1, energy ordered."""
    nodes = [{"id": i, "class": "normal_low", "wakeup_multiplier": 64,
              "placement": {"kind": "on_body", "x_m": round(0.1 * i, 2)}}
             for i in range(1, 8)]
    nodes.append({"id": 8, "class": "on_demand_non_continuous", "wakeup_multiplier": 64,
                  "placement": {"kind": "on_body", "y_m": 0.3}})
    query = [{"time_s": 1.0, "target": 8, "mode": "non_continuous"}]
    broadcast = make_scenario(name="broadcast", horizon_s=5.0, nodes=nodes, on_demand=query)
    addressed = make_scenario(
        name="addressed", horizon_s=5.0, nodes=nodes, on_demand=query,
        wakeup={"mode": "frequency_addressed", "frequencies": {8: 1}},
    )
    lb = run_ledger(broadcast, 1)
    la = run_ledger(addressed, 1)

    assert sum(lb.spurious_wakeups.values()) == 7
    assert lb.delivered[(8, TrafficClass.ON_DEMAND_NON_CONTINUOUS)] == 1
    assert sum(la.spurious_wakeups.values()) == 0
    assert la.delivered[(8, TrafficClass.ON_DEMAND_NON_CONTINUOUS)] == 1

    model = EnergyModel()
    eb = sum(lb.energy_mj(n, model) for n in range(1, 8))
    ea = sum(la.energy_mj(n, model) for n in range(1, 8))
    assert eb > ea, f"broadcast {eb:.4f} mJ not above addressed {ea:.4f} mJ"
    print(f"ACCEPTANCE 8 (wakeup addressing): PASS 7 spurious vs 0; "
          f"bystander energy {eb:.3f} mJ > {ea:.3f} mJ")
