"""Micro-benchmarks of the hot paths, one per layer the event loop leans on.

Run with `python -m pytest bench -q --benchmark-only` (pytest-benchmark).
They sit outside `tests/`, so the test suite does not collect them.  Each
benchmark times the steady state: memoised link budgets are already filled
by the first round, as they are after the first few events of a run.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from wbansim.channel import ChannelModel, LossReason
from wbansim.core import Criticality, Frame, FrameKind, Placement, PlacementKind, TrafficClass
from wbansim.engine import EventKind, Scheduler, fire
from wbansim.mac_csma import BackoffPolicy, CsmaAction, CsmaBackoffFsm, backoff_draw
from wbansim.scenario import load_scenario
from wbansim.simulation import PendingQueue, Simulation

BNC = Placement(PlacementKind.ON_BODY)
ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def data_frame(src, seq=1, cls=TrafficClass.NORMAL_HIGH, created=0):
    return Frame(FrameKind.DATA, src, 0, 800, cls, created, seq)


def channel_with(n_active):
    """A channel carrying n overlapping on-body transmissions around the BNC."""
    ch = ChannelModel()
    txs = [
        ch.register_tx(data_frame(src=i + 1, seq=i + 1),
                       Placement(PlacementKind.ON_BODY, 0.1 * (i + 1), 0.2, 0.0), 0, 3200)
        for i in range(n_active)
    ]
    return ch, txs


def test_scheduler_run_until(benchmark):
    """Schedule 1 000 events in scattered time order, then dispatch them all
    through `run_until` with `fire` registered, as a simulation does."""
    n = 1000
    times = [(7919 * i) % n for i in range(n)]  # a fixed permutation of 0..n-1

    def schedule_and_dispatch():
        s = Scheduler()
        s.register(EventKind.CCA_DUE, fire)
        fired = []
        for t in times:
            s.schedule(t, EventKind.CCA_DUE, 1, fired.append, (t,))
        s.run_until(n)
        return fired

    assert benchmark(schedule_and_dispatch) == list(range(n))


def test_scheduler_same_instant_follow_ons(benchmark):
    """The pattern slotted CSMA/CA gives the scheduler: 20 devices count
    backoffs on the same unit-backoff boundaries, and each backoff expiry
    schedules its CCA at the same instant and its next expiry one unit
    backoff on, at a boundary already on the calendar (a marker event
    holds each of the 50 boundaries from the start)."""
    devices, boundaries, ubp = 20, 50, 320
    last = (boundaries - 1) * ubp

    def run():
        s = Scheduler()
        s.register(EventKind.BACKOFF_EXPIRED, fire)
        s.register(EventKind.CCA_DUE, fire)
        s.register(EventKind.SLOT_BOUNDARY, fire)
        fired = []
        append = fired.append

        def expiry(dev):
            append(("expiry", dev))
            now = s.now
            s.schedule(now, EventKind.CCA_DUE, dev, append, (("cca", dev),))
            if now < last:
                s.schedule(now + ubp, EventKind.BACKOFF_EXPIRED, dev, expiry, (dev,))

        for b in range(boundaries):
            s.schedule(b * ubp, EventKind.SLOT_BOUNDARY, None, append, (("boundary", b),))
        for dev in range(devices):
            s.schedule(0, EventKind.BACKOFF_EXPIRED, dev, expiry, (dev,))
        s.run_until(last)
        return fired

    expected = []
    for b in range(boundaries):  # at each boundary: its marker, the expiries, then their CCAs
        expected += [("boundary", b)] + [(step, d) for step in ("expiry", "cca")
                                         for d in range(devices)]
    assert benchmark(run) == expected


def test_tdma_data_frame_round_trip(benchmark):
    """One slot transmission of `tdma_three_links` node 1 to the coordinator:
    `begin_tx` starts it at once (`_tx_started`), then `run_until` dispatches
    its TxEnd to `_on_tx_end`, which delivers it and resolves the frame."""
    scenario = load_scenario(SCENARIOS / "tdma_three_links.yaml")
    sim = Simulation(scenario, seed=1)
    sim.scheduler.clear()  # no beacons or arrivals: only the round trips run
    # Held awake and so listening, as in the slot region: without the hold
    # the coordinator sleeps and receives nothing.
    sim.bnc.hold_awake_until = 2**62
    sim.set_state(sim.bnc, 0)
    dev = sim.devices[1]
    frame = Frame(FrameKind.DATA, 1, 0, dev.profile.payload_bits,
                  TrafficClass.NORMAL_HIGH, 0, 1)

    def round_trip():
        dev.queue.push(frame)
        tx = sim.begin_tx(dev, frame, sim.scheduler.now)
        sim.scheduler.run_until(tx.end)

    benchmark(round_trip)
    assert not dev.queue and not sim.scheduler._calendar and not sim.scheduler._instants
    assert sim.ledger.delivered[(1, TrafficClass.NORMAL_HIGH)] > 0
    assert sim.ledger.loss_reasons["destination_not_listening"] == 0


def test_tdma_superframe(benchmark):
    """One superframe of `tdma_three_links` per round through `run_until`:
    the beacon, its three receptions, three slot starts, transmissions and
    arrivals, and the slot region's end.  The first superframe runs before
    timing, so the link budgets are already filled."""
    scenario = load_scenario(SCENARIOS / "tdma_three_links.yaml")
    scenario.horizon_us = 2**62  # never reached: rounds are not capped by the horizon
    sim = Simulation(scenario, seed=1)
    scheduler, interval = sim.scheduler, sim.sf.beacon_interval_us
    scheduler.run_until(interval - 1)
    rounds = []

    def superframe():
        rounds.append(None)
        scheduler.run_until((len(rounds) + 1) * interval - 1)

    benchmark(superframe)
    assert sim.ledger.total_superframes == len(rounds) + 1
    assert sim.ledger.delivered[(1, TrafficClass.NORMAL_HIGH)] >= len(rounds)


@pytest.mark.parametrize("n_active", [1, 4, 10])
def test_cca_energy_detect(benchmark, n_active):
    ch, _ = channel_with(n_active)
    listener = Placement(PlacementKind.ON_BODY, -0.3, 0.1, 0.0)
    benchmark(ch.cca_energy_detect, listener, -85.0, 1600)


def test_channel_deliver(benchmark):
    ch, txs = channel_with(4)  # a frame with three interferers, lost to collision
    rng = random.Random(1)
    assert benchmark(ch.deliver, txs[0], BNC, rng) is LossReason.COLLISION


def test_csma_backoff_fsm_on_cca(benchmark):
    policy = BackoffPolicy()

    def attempt():
        # One busy CCA, then the two idle ones that clear the frame to send.
        fsm = CsmaBackoffFsm(policy, Criticality.CRITICAL)
        fsm.on_cca(True)
        fsm.on_cca(False)
        return fsm.on_cca(False)

    assert benchmark(attempt) is CsmaAction.TRANSMIT


def test_backoff_draw(benchmark):
    """One backoff draw at the default max_be, checked against its range."""
    rng = random.Random(1)
    assert 0 <= benchmark(backoff_draw, BackoffPolicy().max_be, rng) < 32


def test_busy_cca_to_backoff_expiry(benchmark):
    """One busy CCA of `priority_saturated` node 1 through `CsmaMac.on_cca_due`:
    the channel check, the FSM step, a new backoff draw and the scheduled
    backoff expiry, with node 2 on the air for the whole run."""
    sim = Simulation(load_scenario(SCENARIOS / "priority_saturated.yaml"), seed=1)
    sim.scheduler.clear()  # no beacons or arrivals: only the CCA runs
    dev = sim.devices[1]
    dev.cap_anchor, dev.cap_end = 0, 2**62
    fsm = dev.fsm = CsmaBackoffFsm(sim.policy, dev.criticality)
    first_be = fsm.be
    sim.channel.register_tx(data_frame(src=2), sim.devices[2].placement, 0, 2**62)
    expiries = []

    def busy_cca():
        fsm.nb, fsm.be = 0, first_be  # every round is the attempt's first busy CCA
        sim.mac.on_cca_due(dev)
        expiries.append(dev.contention_ev[0])  # FIRE_AT of the scheduled expiry
        sim.scheduler.clear()
        dev.contention_ev = None

    benchmark(busy_cca)
    assert (fsm.nb, fsm.be) == (1, first_be + 1)
    assert min(expiries) > 0 and not sim.ledger.loss_reasons


def test_pending_queue_push_remove(benchmark):
    q = PendingQueue()
    classes = list(TrafficClass)
    for seq in range(8):
        q.push(data_frame(1, seq, classes[seq % len(classes)], created=seq))
    frame = data_frame(1, 100, TrafficClass.NORMAL_MEDIUM, created=50)

    def push_remove():
        q.push(frame)
        q.remove(frame)

    benchmark(push_remove)
    assert len(q) == 8


def test_simulation_set_state(benchmark):
    """Four radio-state transitions of one device through `Simulation.set_state`:
    idle_listen, tx, rx and the sleep state, each from the facts it reads
    (`tx_until`, `incoming`, `hold_awake_until`)."""
    sim = Simulation(load_scenario(SCENARIOS / "tdma_three_links.yaml"), seed=1)
    dev = sim.devices[1]
    cycle = [(0, 0, 2**62), (2**62, 0, 2**62), (0, 1, 2**62), (0, 0, 0)]
    clock = iter(range(1, 10**9))

    def four_changes():
        for tx_until, incoming, hold_awake_until in cycle:
            dev.tx_until, dev.incoming, dev.hold_awake_until = tx_until, incoming, hold_awake_until
            sim.set_state(dev, next(clock))

    benchmark(four_changes)
    assert dev.state is dev.sleep_state
    assert sum(dev.state_us.values()) == dev.since


def test_cold_start(benchmark):
    """What a `wbansim` process does before its first event, in a fresh
    interpreter per round: import `wbansim.cli`, load `emergency_8bn` and
    build its `Simulation`.  The interpreter's own start-up is included."""
    code = ("import wbansim.cli\n"
            "from wbansim import Simulation, load_scenario\n"
            f"Simulation(load_scenario({str(SCENARIOS / 'emergency_8bn.yaml')!r}), seed=1)\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def cold_start():
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    benchmark.pedantic(cold_start, rounds=10, iterations=1)
