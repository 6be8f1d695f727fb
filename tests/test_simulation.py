import functools
import gc
import io
import itertools
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from wbansim.channel import ActiveTx, CcaResult
from wbansim.core import BNC_ID, Frame, FrameKind, TrafficClass
from wbansim.engine import ARGS, FIRE_AT, FN, KIND, NODE, EventKind
from wbansim.metrics import EnergyModel, RadioState, write_node_csv
from wbansim.scenario import load_scenario, parse_scenario
from wbansim.simulation import PendingQueue, Simulation
from wbansim.wakeup import is_awake

from conftest import make_scenario, pending_entries
from test_cap_boundary import GENERATED, build as build_generated
from test_golden import VARIANTS, variant_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

def run(scn, seed=1, trace_sink=None):
    sim = Simulation(scn, seed=seed, trace_sink=trace_sink)
    return sim, sim.run()


def run_observed(scn, seed=1):
    """Run and also return every transmission registered on the channel."""
    sim = Simulation(scn, seed=seed)
    txs = []
    register = sim.channel.register_tx
    sim.channel.register_tx = lambda *a, **k: txs.append(register(*a, **k)) or txs[-1]
    return sim, sim.run(), txs


def node_csv_text(scn, ledger, seed=1):
    fh = io.StringIO()
    write_node_csv(fh, ledger, f"{scn.name}-s{seed}", seed, scn.mac, scn.energy)
    return fh.getvalue()


class TestPendingQueue:
    def frame(self, cls, created, seq):
        return Frame(FrameKind.DATA, 1, 0, 8, cls, created, seq)

    def test_emergency_jumps_to_head(self):
        q = PendingQueue()
        q.push(self.frame(TrafficClass.NORMAL_LOW, 0, 1))
        q.push(self.frame(TrafficClass.NORMAL_HIGH, 1, 2))
        q.push(self.frame(TrafficClass.EMERGENCY, 2, 3))
        assert q[0][1].traffic_class is TrafficClass.EMERGENCY

    def test_fifo_within_class(self):
        q = PendingQueue()
        a = self.frame(TrafficClass.NORMAL_HIGH, 0, 1)
        b = self.frame(TrafficClass.NORMAL_HIGH, 0, 2)
        q.push(b)
        q.push(a)
        assert q[0][1] is a

    def test_remove(self):
        q = PendingQueue()
        a = self.frame(TrafficClass.NORMAL_HIGH, 0, 1)
        q.push(a)
        q.remove(a)
        assert not q
        with pytest.raises(ValueError, match="frame not queued"):
            q.remove(a)

    # ("push", class, created_at), or a removal: of the head (the pop path)
    # or of another queued frame (the scan path), picked by a fraction.
    # Pushes are drawn twice as often, so queues grow past a few frames.
    PUSH = st.tuples(st.just("push"), st.sampled_from(list(TrafficClass)), st.integers(0, 5))
    REMOVE = st.tuples(st.sampled_from(["remove_head", "remove_other"]),
                       st.floats(0, 1, exclude_max=True))
    OPS = st.lists(st.one_of(PUSH, PUSH, REMOVE), max_size=80)

    @given(ops=OPS)
    def test_leaves_in_queue_key_order_through_pushes_and_removals(self, ops):
        q, reference, seq = PendingQueue(), [], 0
        for op, *arg in ops:
            if op == "push":
                seq += 1
                frame = self.frame(arg[0], arg[1], seq)
                q.push(frame)
                reference.append(frame)
            elif reference:
                reference.sort(key=Frame.queue_key)
                if op == "remove_head" or len(reference) == 1:
                    frame = reference.pop(0)
                    assert q[0][1] is frame
                else:
                    frame = reference.pop(1 + int(arg[0] * (len(reference) - 1)))
                    assert q[0][1] is not frame
                q.remove(frame)
            assert len(q) == len(reference)
            assert all(q[i - 1][0] < q[i][0] for i in range(1, len(q)))  # sorted
            for priority in range(5):
                assert q.has_priority_le(priority) == any(
                    f.queue_key()[0] <= priority for f in reference)
        reference.sort(key=Frame.queue_key)
        assert q.drain() == reference and not q
        for frame in reference:
            q.push(frame)
        popped = []
        while q:
            popped.append(q[0][1])
            q.remove(q[0][1])
        assert popped == reference


class TestBasicCsmaRun:
    def test_everything_delivered_on_clean_channel(self, tiny_scenario):
        _, ledger = run(tiny_scenario)
        assert ledger.offered[(1, TrafficClass.NORMAL_HIGH)] == 10
        assert ledger.delivered[(1, TrafficClass.NORMAL_HIGH)] == 10
        assert ledger.dropped == {}

    def test_latency_is_positive_and_bounded_by_interval(self, tiny_scenario):
        _, ledger = run(tiny_scenario)
        for sample in ledger.latency_samples(node=1):
            assert 0 < sample < 2 * tiny_scenario.superframe.beacon_interval_us

    def test_state_durations_sum_to_horizon_for_every_device(self, tiny_scenario):
        _, ledger = run(tiny_scenario)
        for dev_id, states in ledger.state_us.items():
            assert sum(states.values()) == tiny_scenario.horizon_us, dev_id

    def test_identical_runs_produce_identical_csv(self, tiny_scenario):
        _, l1 = run(tiny_scenario, seed=7)
        _, l2 = run(tiny_scenario, seed=7)
        assert node_csv_text(tiny_scenario, l1, 7) == node_csv_text(tiny_scenario, l2, 7)

    def test_different_seeds_change_the_trace(self):
        scn = make_scenario(nodes=[
            {"id": i, "class": "normal_high", "traffic": {"rate_per_hour": 3600.0}}
            for i in (1, 2, 3)
        ])
        _, l1 = run(scn, seed=1)
        _, l2 = run(scn, seed=2)
        assert l1.latency_samples() != l2.latency_samples()

    def test_trace_sink_sees_dispatches(self, tiny_scenario):
        seen = []
        run(tiny_scenario, trace_sink=lambda entry: seen.append(entry[KIND]))
        assert EventKind.BEACON_DUE in seen
        assert EventKind.TX_END in seen
        assert EventKind.CCA_DUE in seen


class TestSleepDiscipline:
    def make_sleepy(self):
        # node 1 wakes every 4th superframe only
        return make_scenario(nodes=[{
            "id": 1, "class": "normal_high", "wakeup_multiplier": 4,
            "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.01},
        }])

    def test_node_never_transmits_while_pattern_says_asleep(self):
        scn = self.make_sleepy()
        sim, ledger, txs = run_observed(scn)
        bi = scn.superframe.beacon_interval_us
        sd = scn.superframe.active_duration_us
        data_txs = [t for t in txs if t.frame.kind is FrameKind.DATA]
        assert data_txs
        for tx in data_txs:
            sf_index = tx.start // bi
            assert is_awake(sim.devices[tx.frame.src].profile.wakeup_multiplier, sf_index)
            assert sf_index * bi <= tx.start
            assert tx.end <= sf_index * bi + sd

    def test_bnc_sleeps_when_no_node_is_due(self):
        scn = self.make_sleepy()
        _, ledger = run(scn)
        assert ledger.bnc_awake_superframes < ledger.total_superframes
        # awake exactly on multiples of 4
        assert ledger.bnc_awake_superframes == -(-ledger.total_superframes // 4)

    def test_sleeping_node_accumulates_wakeup_rx_time(self):
        scn = self.make_sleepy()
        _, ledger = run(scn)
        assert ledger.state_us[1][RadioState.WAKEUP_RX] > 0

    def test_node_without_receiver_sleeps_deep(self):
        scn = make_scenario(nodes=[{
            "id": 1, "class": "normal_high", "wakeup_multiplier": 4,
            "wakeup_receiver": False,
            "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.01},
        }])
        _, ledger = run(scn)
        assert ledger.state_us[1][RadioState.SLEEP] > 0
        assert ledger.state_us[1][RadioState.WAKEUP_RX] == 0


class TestEmergencyPath:
    def scenario(self, horizon=30.0):
        return make_scenario(
            horizon_s=horizon,
            nodes=[
                {"id": 1, "class": "emergency", "criticality": "critical",
                 "wakeup_multiplier": 8,
                 "traffic": {"rate_per_hour": 1200.0}},  # ~1 per 3 s
                {"id": 2, "class": "normal_medium", "wakeup_multiplier": 8,
                 "traffic": {"rate_per_hour": 60.0}},
            ],
        )

    def test_every_emergency_event_gets_a_record(self):
        scn = self.scenario()
        _, ledger = run(scn)
        offered = ledger.offered[(1, TrafficClass.EMERGENCY)]
        assert offered >= 3
        delivered = ledger.delivered[(1, TrafficClass.EMERGENCY)]
        assert ledger.dropped[(1, TrafficClass.EMERGENCY)] == 0
        # everything except possibly the tail event still in flight at the horizon
        assert delivered >= offered - 1
        assert len(ledger.latency_samples(cls=TrafficClass.EMERGENCY)) == delivered

    def test_emergency_latency_under_one_second(self):
        scn = self.scenario()
        _, ledger = run(scn)
        samples = ledger.latency_samples(cls=TrafficClass.EMERGENCY)
        assert samples
        assert max(samples) < 1_000_000

    def test_wakeup_signals_counted(self):
        scn = self.scenario()
        _, ledger = run(scn)
        assert ledger.wakeup_signals_sent[1] >= 1

    def test_five_simultaneous_emergencies_all_recorded(self):
        # periodic arrival override forces all five events at exactly t=2 s
        scn = make_scenario(
            horizon_s=10.0,
            nodes=[
                {"id": i, "class": "emergency", "criticality": "critical",
                 "wakeup_multiplier": 8,
                 "placement": {"kind": "on_body", "x_m": round(0.1 * i, 2)},
                 "traffic": {"rate_per_hour": 300.0, "arrival": "periodic", "phase_s": 2.0}}
                for i in range(1, 6)
            ],
        )
        _, ledger = run(scn)
        # the 12 s period leaves exactly one arrival per node inside 10 s
        assert sum(ledger.offered.values()) == 5
        latencies = ledger.latency_samples(cls=TrafficClass.EMERGENCY)
        assert len(latencies) == 5
        # serialized on one channel: every event gets its own latency figure
        assert len(set(latencies)) == 5

    def test_lossy_wakeup_channel_retries_until_granted(self):
        scn = make_scenario(
            horizon_s=30.0,
            channel={"wakeup_loss_p": 0.6},
            nodes=[
                {"id": 1, "class": "emergency", "criticality": "critical",
                 "wakeup_multiplier": 8, "traffic": {"rate_per_hour": 600.0}},
            ],
        )
        _, ledger = run(scn)
        events = ledger.offered[(1, TrafficClass.EMERGENCY)]
        assert events >= 2
        assert ledger.delivered[(1, TrafficClass.EMERGENCY)] >= events - 1
        # with 60% signal loss the sender must have retransmitted
        assert ledger.wakeup_signals_sent[1] > events
        assert ledger.loss_reasons["wakeup_signal_lost"] > 0

    @pytest.mark.parametrize("mac, frames", [("csma", 3), ("tdma", 5)])
    def test_a_frame_is_granted_once_however_many_signals_reach_the_bnc(self, mac, frames):
        # A 12 ms wakeup latency outlasts the 10 ms retry timer: each frame's
        # retry signal goes out before its first signal is granted, and its
        # grant then finds the flow already granted.
        tdma = {"mac": "tdma", "tdma": {"slot_duration_ms": 4.0, "slots": {1: 0}}}
        scn = make_scenario(
            horizon_s=30.0, wakeup={"latency_ms": 12},
            nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                    "wakeup_multiplier": 8, "traffic": {"rate_per_hour": 360.0}}],
            **(tdma if mac == "tdma" else {}),
        )
        sim = Simulation(scn, seed=1)
        granted = []
        grant = sim.mac.grant_emergency
        sim.mac.grant_emergency = lambda node, flow: granted.append(flow) or grant(node, flow)
        ledger = sim.run()
        assert ledger.offered[(1, TrafficClass.EMERGENCY)] == frames
        assert ledger.wakeup_signals_sent[1] == 2 * frames
        assert len(granted) == len(set(map(id, granted))) == frames

    def test_no_refill_for_an_emergency_frame_already_received(self):
        # A delivered frame whose acks are lost runs out of retries or of
        # channel access like any other; only an undelivered one refills.
        # Once, 4 of this run's 7 refills were for delivered frames.
        sim = Simulation(lossy_acks(emergency=True), seed=1)
        dispatching = [None]
        delivered_at_refill = []

        class Reasons(Counter):
            def __setitem__(self, key, value):
                if key == "emergency_retry_refill":  # in on_cca_due or on_ack_timeout
                    dev = dispatching[0][ARGS][0]
                    delivered_at_refill.append(dev.attempt_frame.delivered)
                super().__setitem__(key, value)

        sim.ledger.loss_reasons = Reasons()
        sim.scheduler.trace_sink = lambda entry: dispatching.__setitem__(0, entry)
        sim.run()
        assert delivered_at_refill and not any(delivered_at_refill)

    def test_emergency_frame_outlives_its_retry_budget(self):
        # Its link never delivers: every ack times out, and the exhausted
        # retry budget refills instead of dropping the frame.
        scn = make_scenario(
            horizon_s=20.0,
            superframe={"beacon_order": 4, "superframe_order": 4},
            channel={"link_errors": [{"src": 1, "dst": 0, "p_success": 0.0}]},
            nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                    "traffic": {"rate_per_hour": 720.0}}],
        )
        _, ledger = run(scn)
        assert ledger.offered[(1, TrafficClass.EMERGENCY)] > 0
        assert ledger.loss_reasons["emergency_retry_refill"] > 0
        assert sum(ledger.dropped.values()) == 0


class TestOnDemandPath:
    def test_non_continuous_gets_exactly_one_response(self):
        scn = make_scenario(
            horizon_s=5.0,
            nodes=[
                {"id": 1, "class": "on_demand_non_continuous", "wakeup_multiplier": 16},
            ],
            on_demand=[{"time_s": 1.0, "target": 1, "mode": "non_continuous"}],
        )
        _, ledger = run(scn)
        key = (1, TrafficClass.ON_DEMAND_NON_CONTINUOUS)
        assert ledger.offered[key] == 1
        assert ledger.delivered[key] == 1

    def test_continuous_stream_rate_times_duration(self):
        scn = make_scenario(
            horizon_s=16.0,
            nodes=[
                {"id": 1, "class": "on_demand_continuous", "wakeup_multiplier": 16},
            ],
            on_demand=[{"time_s": 1.0, "target": 1, "mode": "continuous",
                        "rate_per_s": 10, "duration_s": 10}],
        )
        _, ledger = run(scn)
        key = (1, TrafficClass.ON_DEMAND_CONTINUOUS)
        assert ledger.offered[key] == 100
        assert ledger.delivered[key] == 100

    @pytest.mark.parametrize("windows, offered", [
        ([(2, 4), (4, 8)], 40 + 80),  # two streams run between 4 s and 6 s
        # The first stream ends before the second starts; the first stop
        # command used to cut the second stream short (41 frames).
        ([(2, 4), (6.001, 4)], 40 + 40),
    ], ids=["overlapping", "back-to-back"])
    def test_each_continuous_query_owns_its_stream(self, windows, offered):
        scn = make_scenario(
            horizon_s=14.0,
            nodes=[{"id": 5, "class": "on_demand_continuous"}],
            on_demand=[{"time_s": t, "target": 5, "mode": "continuous",
                        "rate_per_s": 10, "duration_s": d} for t, d in windows],
        )
        _, ledger = run(scn)
        key = (5, TrafficClass.ON_DEMAND_CONTINUOUS)
        assert ledger.offered[key] == ledger.delivered[key] == offered

    def test_broadcast_mode_wakes_everyone_once(self):
        nodes = [{"id": i, "class": "normal_low", "wakeup_multiplier": 64} for i in range(1, 8)]
        nodes.append({"id": 8, "class": "on_demand_non_continuous", "wakeup_multiplier": 64})
        scn = make_scenario(
            horizon_s=5.0, nodes=nodes,
            on_demand=[{"time_s": 1.0, "target": 8, "mode": "non_continuous"}],
        )
        _, ledger = run(scn)
        assert sum(ledger.spurious_wakeups.values()) == 7
        assert ledger.spurious_wakeups[8] == 0

    def test_frequency_addressed_wakes_only_target(self):
        nodes = [{"id": i, "class": "normal_low", "wakeup_multiplier": 64} for i in range(1, 8)]
        nodes.append({"id": 8, "class": "on_demand_non_continuous", "wakeup_multiplier": 64})
        scn = make_scenario(
            horizon_s=5.0, nodes=nodes,
            wakeup={"mode": "frequency_addressed", "frequencies": {8: 1}},
            on_demand=[{"time_s": 1.0, "target": 8, "mode": "non_continuous"}],
        )
        _, ledger = run(scn)
        assert sum(ledger.spurious_wakeups.values()) == 0
        assert ledger.delivered[(8, TrafficClass.ON_DEMAND_NON_CONTINUOUS)] == 1

    def test_spurious_wakeups_cost_energy(self):
        nodes = [{"id": i, "class": "normal_low", "wakeup_multiplier": 64} for i in range(1, 8)]
        nodes.append({"id": 8, "class": "on_demand_non_continuous", "wakeup_multiplier": 64})
        query = [{"time_s": 1.0, "target": 8, "mode": "non_continuous"}]
        broadcast = make_scenario(horizon_s=5.0, nodes=nodes, on_demand=query)
        addressed = make_scenario(
            horizon_s=5.0, nodes=nodes, on_demand=query,
            wakeup={"mode": "frequency_addressed", "frequencies": {8: 1}},
        )
        _, lb = run(broadcast)
        _, la = run(addressed)
        model = EnergyModel()
        others = range(1, 8)
        broadcast_energy = sum(lb.energy_mj(n, model) for n in others)
        addressed_energy = sum(la.energy_mj(n, model) for n in others)
        assert broadcast_energy > addressed_energy

    def test_overlapping_spurious_windows_keep_the_node_awake(self):
        # Both broadcast queries are for node 1, so node 2 wakes spuriously
        # twice, at 501 000 us and at 901 000 us.  The later window runs one
        # active portion (983 040 us) from its wake: the end of the earlier
        # one must not send node 2 to sleep inside it.
        scn = make_scenario(
            horizon_s=3.0, superframe={"beacon_order": 6, "superframe_order": 6},
            nodes=[on_demand_node(1, 0.1, 8), on_demand_node(2, 0.2, 8)],
            on_demand=[{"time_s": 0.5, "target": 1}, {"time_s": 0.9, "target": 1}],
        )
        sim = Simulation(scn)
        node = sim.devices[2]
        sim.scheduler.run_until(1_884_039)
        assert node.state is RadioState.IDLE_LISTEN
        sim.scheduler.run_until(1_884_040)
        assert node.state is node.sleep_state
        ledger = sim.run()
        assert ledger.spurious_wakeups[2] == 2
        assert ledger.state_us[2][RadioState.IDLE_LISTEN] == 1_882_824


class TestWakeupRadio:
    """The wakeup radio is out of band: ideal apart from an optional loss
    draw per reached device, and never on the data channel."""

    @staticmethod
    def scenario(loss_p):
        # Node 1 raises an emergency at 0.505 s of every second; a broadcast
        # query for node 3 at 1.2 s reaches all three nodes.
        return make_scenario(
            horizon_s=5.0,
            channel={"wakeup_loss_p": loss_p},
            nodes=[
                {"id": 1, "class": "emergency", "criticality": "critical",
                 "placement": {"kind": "on_body", "x_m": 0.1}, "wakeup_multiplier": 8,
                 "traffic": {"arrival": "periodic", "rate_per_hour": 3600.0,
                             "phase_s": 0.505}},
                on_demand_node(2, 0.2), on_demand_node(3, 0.3),
            ],
            on_demand=[{"time_s": 1.2, "target": 3}],
        )

    def test_cca_reads_idle_while_a_signal_is_on_the_air(self):
        sim = Simulation(self.scenario(0.0))
        sim.scheduler.run_until(505_000)  # node 1's first signal has just started
        sender = sim.devices[1]
        assert sender.state is RadioState.TX and sender.tx_until == 506_000
        assert not sim.channel._active
        for dev in sim.devices.values():
            assert sim.channel.cca_energy_detect(dev.placement, -200.0, 505_000) \
                is CcaResult.IDLE

    def test_certain_loss_loses_every_signal(self):
        _, ledger = run(self.scenario(1.0))
        emergency_signals = ledger.wakeup_signals_sent[1]
        assert emergency_signals > 5  # every lost emergency is resent
        assert ledger.wakeup_signals_sent[BNC_ID] == 1
        assert ledger.loss_reasons["wakeup_signal_lost"] == emergency_signals + 3
        assert not ledger.spurious_wakeups
        assert ledger.offered[(3, TrafficClass.ON_DEMAND_NON_CONTINUOUS)] == 0

    def test_no_loss_loses_no_signal(self):
        _, ledger = run(self.scenario(0.0))
        assert "wakeup_signal_lost" not in ledger.loss_reasons
        assert ledger.wakeup_signals_sent[1] == 5  # one per emergency, no resend
        assert ledger.delivered[(1, TrafficClass.EMERGENCY)] == 5
        assert ledger.delivered[(3, TrafficClass.ON_DEMAND_NON_CONTINUOUS)] == 1
        assert dict(ledger.spurious_wakeups) == {1: 1, 2: 1}


class TestTdmaRun:
    def scenario(self, horizon=20.0):
        return make_scenario(
            mac="tdma",
            horizon_s=horizon,
            superframe={"beacon_order": 3, "superframe_order": 3},
            tdma={"slot_duration_ms": 4.0, "slots": {1: 0, 2: 1, 3: 2}},
            nodes=[
                {"id": 1, "class": "normal_high", "wakeup_multiplier": 1,
                 "traffic": {"rate_per_hour": 29296.875, "phase_s": 0.01}},  # 1/BI
                {"id": 2, "class": "normal_high", "wakeup_multiplier": 2,
                 "traffic": {"rate_per_hour": 14648.4375, "phase_s": 0.02}},
                {"id": 3, "class": "normal_high", "wakeup_multiplier": 5,
                 "traffic": {"rate_per_hour": 5859.375, "phase_s": 0.03}},
            ],
        )

    def test_frames_flow_and_none_collide(self):
        scn = self.scenario()
        _, ledger, txs = run_observed(scn)
        assert sum(ledger.delivered.values()) > 0
        assert ledger.loss_reasons.get("collision", 0) == 0
        data = sorted(
            (t.start, t.end) for t in txs if t.frame.kind is FrameKind.DATA
        )
        for (s1, e1), (s2, e2) in zip(data, data[1:]):
            assert e1 <= s2, "overlapping TDMA data transmissions"

    def test_transmissions_stay_inside_owned_slots(self):
        scn = self.scenario()
        sim, _, txs = run_observed(scn)
        bi = scn.superframe.beacon_interval_us
        beacon_air = sim.air_us(scn.frames.beacon_bits)
        slot = scn.tdma.slot_duration_us
        for tx in txs:
            if tx.frame.kind is not FrameKind.DATA:
                continue
            offset = tx.start % bi
            idx = scn.tdma.slots[tx.frame.src]
            assert beacon_air + idx * slot <= offset
            assert (tx.end - 1) % bi < beacon_air + (idx + 1) * slot

    def test_state_conservation_under_tdma(self):
        scn = self.scenario()
        _, ledger = run(scn)
        for dev_id, states in ledger.state_us.items():
            assert sum(states.values()) == scn.horizon_us, dev_id

    def test_deferred_frames_wait_for_active_superframe(self):
        scn = self.scenario()
        _, _, txs = run_observed(scn)
        bi = scn.superframe.beacon_interval_us
        for tx in txs:
            if tx.frame.kind is FrameKind.DATA and tx.frame.src == 3:
                assert (tx.start // bi) % 5 == 0

    def test_arrival_just_after_active_superframe_waits_k_superframes(self):
        scn = make_scenario(
            mac="tdma",
            horizon_s=30.0,
            superframe={"beacon_order": 3, "superframe_order": 3},
            tdma={"slot_duration_ms": 4.0, "slots": {1: 0}},
            nodes=[{"id": 1, "class": "normal_high", "wakeup_multiplier": 10,
                    "traffic": {"rate_per_hour": 600.0, "phase_s": 0.05}}],
        )
        sim, ledger = run(scn)
        bi = scn.superframe.beacon_interval_us
        # phase 50 ms lands just after superframe 0's slot: the frame waits
        # for the next active superframe, 10 intervals later
        first = min(s for s in ledger.latency_samples(node=1))
        sample = ledger.latency_samples(node=1)[0]
        assert 9 * bi < sample < 11 * bi

    def test_emergency_bypasses_slot_gating(self):
        # a 50x node would wait ~6 s for its slot; the wakeup path must not
        scn = make_scenario(
            mac="tdma",
            horizon_s=30.0,
            superframe={"beacon_order": 3, "superframe_order": 3},
            tdma={"slot_duration_ms": 4.0, "slots": {1: 0}},
            nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                    "wakeup_multiplier": 50, "traffic": {"rate_per_hour": 600.0}}],
        )
        _, ledger = run(scn)
        resolved = ledger.latency_samples(cls=TrafficClass.EMERGENCY)
        assert resolved
        assert max(resolved) < 100_000  # wakeup handshake + airtime, not 50 SFs

    def test_coordinator_dozes_after_an_emergency_window(self):
        # BO = 6, SO = 2: each emergency, at 0.5 s of every second, falls long
        # after the 4 ms slot region, and its window holds the coordinator
        # awake only until the frame ends.
        scn = make_scenario(
            mac="tdma",
            horizon_s=20.0,
            superframe={"beacon_order": 6, "superframe_order": 2},
            tdma={"slot_duration_ms": 4.0, "slots": {1: 0}},
            nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                    "traffic": {"arrival": "periodic", "rate_per_hour": 3600.0,
                                "phase_s": 0.5}}],
        )
        _, ledger = run(scn)
        assert ledger.delivered[(1, TrafficClass.EMERGENCY)] == 20
        assert ledger.total_superframes == 21
        # The coordinator idles only in the slot region after each beacon.
        assert ledger.state_us[BNC_ID][RadioState.IDLE_LISTEN] == 21 * 4_000

    def test_stop_command_rides_on_a_beacon(self):
        scn = make_scenario(
            mac="tdma",
            horizon_s=8.0,
            superframe={"beacon_order": 4, "superframe_order": 4},
            tdma={"slots": {1: 0, 2: 1}},
            nodes=[{"id": 1, "class": "normal_high",
                    "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.05}},
                   {"id": 2, "class": "on_demand_continuous", "wakeup_multiplier": 1}],
            on_demand=[{"time_s": 2.0, "target": 2, "mode": "continuous",
                        "rate_per_s": 5, "duration_s": 4.0}],
        )
        sim, ledger, txs = run_observed(scn)
        carried = [(tx.start, c.payload) for tx in txs if tx.frame.kind is FrameKind.BEACON
                   for c in tx.frame.payload.commands if c.dst == 2]
        assert len(carried) == 1 and carried[0][0] > 6_000_000
        assert carried[0][1] == ("stop",)
        key = (2, TrafficClass.ON_DEMAND_CONTINUOUS)
        assert ledger.offered[key] == ledger.delivered[key] == 20

    @staticmethod
    def busy_emergency_scenario():
        """Node 1's emergency windows, one every 100 ms on average, open in
        each superframe's free part, after the slots of nodes 2 and 3."""
        return make_scenario(
            mac="tdma",
            horizon_s=60.0,
            superframe={"beacon_order": 1, "superframe_order": 1},
            tdma={"slot_duration_ms": 6.0, "slots": {1: 0, 2: 1, 3: 2}},
            nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                    "wakeup_multiplier": 50, "payload_bits": 1400,
                    "traffic": {"rate_per_hour": 36000.0}}] + [
                   {"id": i, "class": "normal_high",
                    "placement": {"kind": "on_body", "x_m": 0.1 * i},
                    "traffic": {"rate_per_hour": 117187.5}} for i in (2, 3)],
        )

    @pytest.mark.parametrize("name, seed", [("busy_emergency", 1)] + [
        ("tdma_three_links_wakeup", seed) for seed in (1, 2, 3)])
    def test_no_two_transmissions_overlap(self, name, seed):
        """Beacons, slot frames and emergency windows share one channel, and
        none of them overlaps another."""
        if name in VARIANTS:
            scn = variant_scenario(name)
        else:
            scn = self.busy_emergency_scenario()
        _, _, txs = run_observed(scn, seed)
        spans = sorted((t.start, t.end) for t in txs)
        overlapping = [(a, b) for i, a in enumerate(spans)
                       for b in itertools.takewhile(lambda b: b[0] < a[1],
                                                    itertools.islice(spans, i + 1, None))]
        assert not overlapping, (len(overlapping), overlapping[:3])


class TestInactivePortion:
    def test_devices_sleep_between_active_period_and_next_beacon(self):
        # SO=2, BO=4: active quarter of each beacon interval
        scn = make_scenario(
            horizon_s=10.0,
            superframe={"beacon_order": 4, "superframe_order": 2},
            nodes=[{"id": 1, "class": "normal_high",
                    "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.01}}],
        )
        _, ledger, txs = run_observed(scn)
        sf = scn.superframe
        assert sf.active_duration_us * 4 == sf.beacon_interval_us
        # even an always-on-pattern node spends most of the run asleep
        inactive = ledger.state_us[1][RadioState.WAKEUP_RX]
        assert inactive > scn.horizon_us // 2
        assert ledger.delivered[(1, TrafficClass.NORMAL_HIGH)] > 0
        # no transmission may cross the end of the active portion
        for tx in txs:
            offset = tx.start % sf.beacon_interval_us
            assert offset < sf.active_duration_us
            assert (tx.end - 1) % sf.beacon_interval_us < sf.active_duration_us


class TestContention:
    def test_two_saturated_nodes_share_the_channel(self):
        scn = make_scenario(
            horizon_s=5.0,
            nodes=[
                {"id": 1, "class": "normal_high", "criticality": "critical",
                 "traffic": {"arrival": "saturated"}},
                {"id": 2, "class": "normal_high", "criticality": "non_critical",
                 "traffic": {"arrival": "saturated"}},
            ],
        )
        _, ledger = run(scn)
        d1 = ledger.delivered[(1, TrafficClass.NORMAL_HIGH)]
        d2 = ledger.delivered[(2, TrafficClass.NORMAL_HIGH)]
        assert d1 > 50 and d2 > 50
        assert ledger.loss_reasons.get("collision", 0) > 0 or True  # collisions possible


class TestLinkErrors:
    def test_lossy_link_drops_frames_without_retries_under_tdma(self):
        scn = make_scenario(
            mac="tdma",
            horizon_s=60.0,
            superframe={"beacon_order": 3, "superframe_order": 3},
            tdma={"slot_duration_ms": 4.0, "slots": {1: 0}},
            channel={"link_errors": [{"src": 1, "dst": 0, "p_success": 0.5}]},
            nodes=[{"id": 1, "class": "normal_high",
                    "traffic": {"rate_per_hour": 29296.875, "phase_s": 0.01}}],
        )
        _, ledger = run(scn)
        key = (1, TrafficClass.NORMAL_HIGH)
        total = ledger.delivered[key] + ledger.dropped[key]
        assert total > 100
        assert 0.35 < ledger.delivered[key] / total < 0.65

    def test_csma_retries_recover_losses(self):
        scn = make_scenario(
            horizon_s=30.0,
            channel={"link_errors": [{"src": 1, "dst": 0, "p_success": 0.7}]},
            nodes=[{"id": 1, "class": "normal_high",
                    "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.05}}],
        )
        _, ledger = run(scn)
        key = (1, TrafficClass.NORMAL_HIGH)
        # 3 retries on a 0.7 link push per-frame success to ~0.992
        assert ledger.delivered[key] / ledger.offered[key] > 0.9

    def test_raising_link_quality_never_lowers_pooled_pdr(self):
        def pooled_pdr(p_success):
            delivered = offered = 0
            for seed in range(1, 21):
                scn = make_scenario(
                    mac="tdma",
                    horizon_s=10.0,
                    superframe={"beacon_order": 3, "superframe_order": 3},
                    tdma={"slot_duration_ms": 4.0, "slots": {1: 0}},
                    channel={"link_errors": [{"src": 1, "dst": 0, "p_success": p_success}]},
                    nodes=[{"id": 1, "class": "normal_high",
                            "traffic": {"rate_per_hour": 29296.875, "phase_s": 0.01}}],
                )
                _, ledger = run(scn, seed=seed)
                key = (1, TrafficClass.NORMAL_HIGH)
                delivered += ledger.delivered[key]
                offered += ledger.delivered[key] + ledger.dropped[key]
            return delivered / offered

        # ratio over resolved frames; the tail frame still queued at the
        # horizon belongs to neither counter
        pdrs = [pooled_pdr(p) for p in (0.5, 0.7, 0.9, 1.0)]
        assert pdrs == sorted(pdrs)
        assert pdrs[-1] == 1.0


class TestBoundedMemory:
    ON_BODY = [{"kind": "on_body", "x_m": 0.1 * i} for i in range(1, 7)]
    # Implants 3.8 m apart cannot hear each other's energy, so their
    # transmissions overlap in long chains.
    HIDDEN = [{"kind": "in_body", "x_m": x, "depth_m": 0.05} for x in (1.9, -1.9, 0.0, 0.1)]

    @staticmethod
    def saturated(horizon_s, placements):
        return make_scenario(
            horizon_s=horizon_s,
            superframe={"beacon_order": 6, "superframe_order": 6},
            nodes=[{"id": i, "class": "normal_high",
                    "criticality": "critical" if i % 2 else "non_critical",
                    "placement": placement,
                    "traffic": {"arrival": "saturated"}}
                   for i, placement in enumerate(placements, start=1)],
        )

    @staticmethod
    def live_transmissions():
        gc.collect()
        return sum(1 for obj in gc.get_objects() if type(obj) is ActiveTx)

    @pytest.mark.parametrize("placements", [ON_BODY, HIDDEN], ids=["on_body", "hidden"])
    def test_only_transmissions_on_the_air_stay_alive(self, placements):
        # How many frames are on the air at the horizon varies with the
        # horizon; that no ended one is kept alive must not.
        for horizon_s in (2.0, 8.0):
            before = self.live_transmissions()
            sim, ledger = run(self.saturated(horizon_s, placements))
            assert sum(ledger.delivered.values()) > 100 * horizon_s
            # The trace tail keeps the last 32 dispatched events, and so their
            # arguments, by design; what could grow with the run is the rest.
            sim.scheduler._trace_tail.clear()
            n_devices = len(sim.devices)
            on_air = len(sim.channel._active)
            assert on_air <= n_devices
            assert self.live_transmissions() - before == on_air
            del sim

    # As the horizon grows, one run's traced peak may grow only by its latency
    # samples: one int64 per delivered frame, in arrays that over-allocate by
    # about a sixteenth.  The bound, twice the sample size, was fixed from the
    # slope measured before this test was written: 8.2 bytes per delivered
    # frame on `tdma_three_links` (90 -> 408 KiB from 2 000 to 16 000
    # superframes, 5 663 -> 45 289 deliveries).
    BYTES_PER_DELIVERY = 16

    @staticmethod
    def traced_peak(name, horizon_us):
        scn = load_scenario(SCENARIOS / f"{name}.yaml")
        scn.horizon_us = horizon_us
        tracemalloc.start()
        try:
            ledger = Simulation(scn, seed=1).run()
            return tracemalloc.get_traced_memory()[1], sum(ledger.delivered.values())
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name, short_us, long_us", [
        ("tdma_three_links", 1_000 * 30_720, 4_000 * 30_720),
        ("priority_saturated", 2_000_000, 10_000_000),
    ])
    def test_peak_grows_only_by_latency_samples(self, name, short_us, long_us):
        short_peak, short_delivered = self.traced_peak(name, short_us)
        long_peak, long_delivered = self.traced_peak(name, long_us)
        more = long_delivered - short_delivered
        assert more > 1_000
        assert long_peak - short_peak <= self.BYTES_PER_DELIVERY * more, (
            short_peak, long_peak, more)


def lossy_acks(emergency=False):
    """`priority_saturated` for 1 s with every ack to a node lost half the
    time: a frame the BNC received is retried, and a retry can fail channel
    access.  At seed 1, 31 such frames were once counted both delivered and
    dropped.  With `emergency`, every node sends Poisson emergency frames at
    36 000/h instead."""
    raw = yaml.safe_load((SCENARIOS / "priority_saturated.yaml").read_text())
    raw["horizon_s"] = 1
    raw["channel"] = {"link_errors": [{"src": 0, "dst": n, "p_success": 0.5}
                                      for n in range(1, 11)]}
    if emergency:
        for node in raw["nodes"]:
            node["class"] = "emergency"
            node["traffic"] = {"arrival": "poisson", "rate_per_hour": 36_000.0}
    return parse_scenario(raw)


class TestFrameConservation:
    """Every offered frame is delivered, dropped or still queued at the horizon."""

    SHIPPED = sorted(SCENARIOS.glob("*.yaml"))
    RUNS = {p.stem: functools.partial(load_scenario, p) for p in SHIPPED}
    RUNS["priority_saturated_lossy_acks"] = lossy_acks

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", RUNS)
    def test_offered_is_delivered_plus_dropped_plus_queued(self, name, seed):
        sim, ledger = run(self.RUNS[name](), seed=seed)
        # A queued frame that already reached the BNC (its ack was lost) is
        # counted as delivered; only the rest is in flight at the horizon.
        in_flight = Counter(
            (frame.src, frame.traffic_class)
            for dev in sim.devices.values()
            for frame in dev.queue.drain()
            if frame.kind is FrameKind.DATA and not frame.delivered
        )
        keys = set(ledger.offered) | set(ledger.delivered) | set(ledger.dropped) | set(in_flight)
        assert sum(ledger.offered.values()) > 0
        for key in keys:
            assert ledger.offered[key] == (
                ledger.delivered[key] + ledger.dropped[key] + in_flight[key]
            ), key


def on_demand_node(node_id, x_m, multiplier=1):
    return {"id": node_id, "class": "on_demand_non_continuous", "criticality": "non_critical",
            "placement": {"kind": "on_body", "x_m": x_m}, "wakeup_multiplier": multiplier}


def tdma_query_pair(to_2_s, to_1_s):
    """TDMA, BO = SO = 3: nodes 1 (slot 2) and 2 (slot 0), both on-demand
    with multiplier 1; broadcast queries reach both, first to node 2, then to
    node 1."""
    return make_scenario(
        name="tdma_query_pair", mac="tdma", horizon_s=1.0,
        tdma={"slot_duration_ms": 3.4, "slots": {1: 2, 2: 0}},
        nodes=[on_demand_node(1, 0.1), on_demand_node(2, 0.2)],
        on_demand=[{"time_s": to_2_s, "target": 2}, {"time_s": to_1_s, "target": 1}],
    )


def one_query(mac, name, time_s, multiplier=1, **sections):
    """BO = SO = 3 unless `sections` say otherwise, for 2 s: one on-demand
    node, node 1, and one query to it at `time_s`."""
    tdma = {"tdma": {"slot_duration_ms": 3.4, "slots": {1: 0}}} if mac == "tdma" else {}
    return make_scenario(
        name=f"{mac}_{name}", mac=mac, horizon_s=2.0,
        nodes=[on_demand_node(1, 0.1, multiplier)], on_demand=[{"time_s": time_s, "target": 1}],
        **tdma, **sections,
    )


def query_ends_with_beacon(mac):
    """The coordinator's query signal (1 ms) starts inside superframe 2's
    beacon and ends with it, at 246 976 us, after the beacon's TxEnd and
    before node 1's RxEnd."""
    return one_query(mac, "query_ends_with_beacon", 0.245976)


def query_at_a_beacon(mac):
    """BO 3, SO 1, node 1 with multiplier 2: the query is due at 245 760 us,
    beacon 2's own instant.  Scheduled at load, it runs before that beacon's
    BeaconDue, so it holds the coordinator to beacon 3."""
    return one_query(mac, "query_at_a_beacon", 0.24576, multiplier=2,
                     superframe={"beacon_order": 3, "superframe_order": 1})


# Runs that once broke the rule, each through a different path:
REPRODUCERS = {
    # node 1 answers its query during the beacon, so a hold covers its doze
    # before its slot: it stays in idle_listen.
    "tdma_doze_under_hold": lambda: tdma_query_pair(0.241226, 0.367640),
    # node 1's spurious window ends inside the beacon (368 640-369 856 us):
    # it keeps listening and gets the beacon.
    "tdma_spurious_ends_in_beacon": lambda: tdma_query_pair(0.244976, 0.368248),
    # the emergency node's wakeup signal is on the air until 246 260 us, past
    # the beacon due at 245 760 us: tx until then, rx for the rest of the beacon.
    "csma_signal_over_beacon": lambda: make_scenario(
        name="csma_signal_over_beacon", horizon_s=1.0,
        nodes=[{"id": 1, "class": "emergency", "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.1}, "wakeup_multiplier": 1,
                "traffic": {"arrival": "periodic", "rate_per_hour": 3600.0,
                            "phase_s": 0.24526}}],
    ),
    # BO 1, SO 0: node 1 (multiplier 2) answers a query in superframe 2's
    # CAP, and its hold ends at superframe 3's beacon, which it does not
    # listen to: it sleeps from there, not from superframe 4's beacon.
    "csma_hold_ends_at_unheard_beacon": lambda: make_scenario(
        name="csma_hold_ends_at_unheard_beacon", horizon_s=0.5,
        superframe={"beacon_order": 1, "superframe_order": 0},
        nodes=[on_demand_node(1, 0.1, multiplier=2)],
        on_demand=[{"time_s": 0.062, "target": 1}],
    ),
    # node 1 is still in rx for the beacon when the query signal ends: it
    # answers at once, not after the wakeup latency.
    "csma_query_ends_with_beacon": lambda: query_ends_with_beacon("csma"),
    "tdma_query_ends_with_beacon": lambda: query_ends_with_beacon("tdma"),
    # the coordinator's hold to beacon 3 ends there, not at beacon 2, which
    # the query runs just before.
    "csma_query_at_a_beacon": lambda: query_at_a_beacon("csma"),
    "tdma_query_at_a_beacon": lambda: query_at_a_beacon("tdma"),
}


class TestRadioStateInvariants:
    """After every dispatch, each device's radio state is the one rule's,
    read off the device: tx while `tx_until > now`, otherwise rx while
    `incoming > 0`, otherwise idle_listen while `now < hold_awake_until`,
    otherwise the sleep state.  A beacon counts as
    incoming to each of its listeners from the moment it is due to its end.
    Only a fact that ends at this instant, with its event still due now, may
    be behind: tx at a TxEnd, idle_listen at a hold end, and rx at a
    received beacon's RxEnd.  No device spends time in idle_listen outside a
    CAP or a hold."""

    # Horizon caps that keep the busy scenarios to about 15 000 dispatches a
    # seed; the other two run their full horizon.
    HORIZON_US = {"priority_saturated": 2_000_000, "tdma_three_links": 30_000_000}

    @staticmethod
    def run_checked(sim, horizon_us):
        """Run to `horizon_us`, checking the rule after every dispatch.
        Returns the number of checks, the violations, the idle_listen time
        per device outside any reason to listen, and the (time, node) of each
        beacon received."""
        devices = list(sim.devices.values())
        violations, received = [], []
        idle_without_reason = Counter()
        checks = 0
        last = 0  # time of the dispatch that just finished

        def rule(dev):
            if dev.tx_until > last:
                return RadioState.TX
            if dev.incoming:
                return RadioState.RX
            if last < dev.hold_awake_until:
                return RadioState.IDLE_LISTEN
            return dev.sleep_state

        def due(kind, dev, entry):
            """An event of `kind` for `dev` is due now: `entry`, about to be
            dispatched, or one still pending after it."""
            return entry is not None and any(
                e[FIRE_AT] == last and e[KIND] is kind and e[NODE] == dev.id
                for e in [entry, *pending_entries(sim.scheduler, entry)])

        def behind(dev, expected, entry):
            """`dev`'s state differs from `expected` only by a fact that ends
            now and whose event, at this instant, is still due."""
            state = dev.state
            if state is RadioState.TX:
                return 0 < dev.tx_until == last and due(EventKind.TX_END, dev, entry)
            if state is RadioState.IDLE_LISTEN:
                return expected is dev.sleep_state and 0 < dev.hold_awake_until == last
            return (state is RadioState.RX and not dev.incoming
                    and due(EventKind.RX_END, dev, entry))

        def check(entry=None):
            nonlocal checks
            checks += 1
            for dev in devices:
                expected = rule(dev)
                if dev.incoming < 0 or (dev.state is not expected
                                        and not behind(dev, expected, entry)):
                    violations.append((last, dev.id, dev.state.value, dev.incoming,
                                       dev.tx_until, dev.hold_awake_until))

        def charge_idle(until):
            """The states and facts left by the dispatches at `last` hold
            until `until`: charge each idle_listen microsecond past the hold."""
            for dev in devices:
                if dev.state is RadioState.IDLE_LISTEN:
                    awake_until = max(last, dev.hold_awake_until)
                    if until > awake_until:
                        idle_without_reason[dev.id] += until - awake_until

        def after_previous_dispatch(entry):
            nonlocal last
            check(entry)
            charge_idle(entry[FIRE_AT])
            last = entry[FIRE_AT]

        on_beacon_received = sim.mac.on_beacon_received

        def observed_beacon_received(dev, info):
            received.append((sim.scheduler.now, dev.id))
            on_beacon_received(dev, info)

        sim.mac.on_beacon_received = observed_beacon_received
        sim.scheduler.trace_sink = after_previous_dispatch
        sim.scheduler.run_until(horizon_us)
        check()
        charge_idle(horizon_us)
        return checks, violations, idle_without_reason, received

    # The shipped scenarios and the golden variants at seeds 1-3, and the
    # generated CSMA scenarios of test_cap_boundary.py at their own seeds.
    # The variants reach the TDMA emergency window and a lossy wakeup radio.
    RUNS = ([(p.stem, seed) for p in TestFrameConservation.SHIPPED for seed in (1, 2, 3)]
            + [(name, seed) for name in sorted(VARIANTS) for seed in (1, 2, 3)]
            + [(f"generated{i}", None) for i in range(GENERATED)])

    @pytest.mark.parametrize("name, seed", RUNS,
                             ids=[name if seed is None else f"{name}-{seed}"
                                  for name, seed in RUNS])
    def test_incoming_and_tx_until_agree_with_the_state(self, name, seed):
        if name in VARIANTS:
            sim = Simulation(variant_scenario(name), seed=seed)
        elif seed is None:
            sim, _ = build_generated(name, None)
        else:
            sim = Simulation(load_scenario(SCENARIOS / f"{name}.yaml"), seed=seed)
        checks, violations, idle, _ = self.run_checked(
            sim, self.HORIZON_US.get(name, sim.horizon_us))
        # A generated run lasts 3 s, as few as 3 superframes at BO 6.
        assert checks > (10 if seed is None else 500)
        assert not violations, violations[:5]
        assert not idle, idle

    @pytest.mark.parametrize("name", REPRODUCERS)
    def test_reproducer_keeps_the_rule(self, name):
        sim = Simulation(REPRODUCERS[name]())
        checks, violations, idle, received = self.run_checked(sim, sim.horizon_us)
        assert checks > 50
        assert not violations, violations[:5]
        assert not idle, idle
        # Every node hears the beacon of each superframe its multiplier wakes
        # it for; a beacon ends 1 216 us after it is due (at BO 3, superframe
        # 3's at 369 856 us).
        interval = sim.sf.beacon_interval_us
        for node in sim.node_ids:
            multiplier = sim.devices[node].profile.wakeup_multiplier
            beacon_ends = [k * interval + 1_216 for k in range(-(-sim.horizon_us // interval))
                           if is_awake(multiplier, k)]
            assert [t for t, n in received if n == node] == beacon_ends, node

    @pytest.mark.parametrize("mac", ["csma", "tdma"])
    def test_a_query_that_ends_with_a_beacon_is_answered_at_once(self, mac):
        sim = Simulation(REPRODUCERS[f"{mac}_query_ends_with_beacon"]())
        answers = []

        def record(entry):
            if entry[FN].__name__ == "_answer_query":
                answers.append(entry[FIRE_AT])

        sim.scheduler.trace_sink = record
        sim.scheduler.run_until(sim.horizon_us)
        assert answers == [2 * sim.sf.beacon_interval_us + 1_216]
