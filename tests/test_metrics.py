import io
import itertools
import math
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.core import TrafficClass
from wbansim.metrics import (
    EnergyModel,
    MetricsLedger,
    RadioState,
    latency_stats,
    merge_ledgers,
    node_csv_rows,
    write_node_csv,
    write_summary_csv,
)
from wbansim.simulation import Simulation

from conftest import base_scenario_dict, make_scenario

NH = TrafficClass.NORMAL_HIGH
IDLE, RX, TX = RadioState.IDLE_LISTEN, RadioState.RX, RadioState.TX


def idle_simulation(horizon_us, wakeup_receiver=True):
    """A one-node run with nothing scheduled, so only the test moves the radio
    states; `run` then closes every last interval at `horizon_us`.  The node
    sleeps in `wakeup_rx`, or in plain `sleep` without a wakeup receiver."""
    node = {**base_scenario_dict()["nodes"][0], "wakeup_receiver": wakeup_receiver}
    sim = Simulation(make_scenario(nodes=[node]), seed=1)
    sim.scheduler.clear()
    sim.horizon_us = horizon_us
    return sim, sim.devices[1]


def move(sim, dev, now, tx_until=0, incoming=0, hold_awake_until=0):
    """Set the facts the radio-state rule reads, then apply it at `now`."""
    dev.tx_until, dev.incoming, dev.hold_awake_until = tx_until, incoming, hold_awake_until
    sim.set_state(dev, now)


class TestPdr:
    def test_ratio(self):
        ledger = MetricsLedger()
        for _ in range(100):
            ledger.offered[1, NH] += 1
        for _ in range(84):
            ledger.add_delivered(1, NH, 1000)
        assert ledger.pdr(node=1) == pytest.approx(0.84)

    def test_lossless_is_one(self):
        ledger = MetricsLedger()
        ledger.offered[1, NH] += 1
        ledger.add_delivered(1, NH, 5)
        assert ledger.pdr(node=1) == 1.0

    def test_undefined_when_nothing_offered(self):
        assert MetricsLedger().pdr(node=1) is None


class TestEnergy:
    def test_pure_sleep_one_second(self):
        sim, dev = idle_simulation(1_000_000, wakeup_receiver=False)
        move(sim, dev, 0)
        assert dev.state is RadioState.SLEEP
        ledger = sim.run()
        assert ledger.energy_mj(1, EnergyModel()) == pytest.approx(0.06)

    def test_mixed_states_hand_arithmetic(self):
        # 10 ms tx at 52.2 mW + 990 ms sleep at 0.06 mW = 0.5814 mJ
        sim, dev = idle_simulation(1_000_000, wakeup_receiver=False)
        move(sim, dev, 0, tx_until=10_000)
        move(sim, dev, 10_000)
        ledger = sim.run()
        assert ledger.energy_mj(1, EnergyModel()) == pytest.approx(0.5814)

    def test_zero_duration_run(self):
        sim, dev = idle_simulation(0)
        ledger = sim.run()
        assert ledger.state_us[1] == {dev.sleep_state: 0}
        assert ledger.energy_mj(1, EnergyModel()) == 0.0

    def test_state_durations_partition_the_run(self):
        sim, dev = idle_simulation(1000)
        move(sim, dev, 100, incoming=1)
        move(sim, dev, 250, tx_until=400, incoming=1)
        move(sim, dev, 400)
        ledger = sim.run()
        assert sum(ledger.state_us[1].values()) == 1000
        assert ledger.state_us[1][RadioState.IDLE_LISTEN] == 0  # never entered

    def test_repeated_state_is_no_transition(self):
        sim, dev = idle_simulation(1000)
        move(sim, dev, 100, incoming=1)
        move(sim, dev, 300, incoming=2)
        assert (dev.state, dev.since) == (RX, 100)
        assert sim.run().state_us[1][RX] == 900

    def test_energy_does_not_depend_on_state_order(self):
        # A run's states enter `state_us` in whatever order its events give,
        # and a sweep merges runs.  With 1 ms in each state, a plain
        # left-to-right sum of the five terms gives different floats for
        # different key orders; the CSV's energy must not.
        model = EnergyModel()
        plain, energies = set(), set()
        for order in itertools.permutations(RadioState):
            ledger = MetricsLedger()
            ledger.state_us[1] = Counter(dict.fromkeys(order, 1000))
            plain.add(sum(1000 * 1e-6 * model.power_mw(state) for state in order))
            energies.add(ledger.energy_mj(1, model))
        assert len(plain) > 1
        assert len(energies) == 1
        assert energies.pop() == pytest.approx(0.10995)

    # The rule, one row per combination of (tx_until > now, incoming > 0) and
    # the one fact that may keep the main radio on: a hold (a CSMA CAP is
    # one), a hold that ends now (it keeps nothing on), an open TDMA slot (it
    # does not either: a slot's frames start as it opens and follow each other
    # at once), or none.  `busy` is the state tx or rx gives, None if
    # neither; `listens` says whether the reason alone gives idle_listen
    # rather than the device's own sleep state.
    @pytest.mark.parametrize("tx, rx, busy", [(True, True, TX), (True, False, TX),
                                              (False, True, RX), (False, False, None)])
    @pytest.mark.parametrize("reason, listens", [("hold", True), ("hold_ends_now", False),
                                                 ("slot", False), ("none", False)])
    @pytest.mark.parametrize("wakeup_receiver", [True, False], ids=["wakeup_rx", "sleep"])
    def test_set_state_rule(self, tx, rx, busy, reason, listens, wakeup_receiver):
        sim, dev = idle_simulation(1000, wakeup_receiver)
        dev.slot_end = 200 if reason == "slot" else 0
        hold = {"hold": 101, "hold_ends_now": 100}.get(reason, 0)
        # tx_until == now is a transmission that ends now: no longer tx.
        move(sim, dev, 100, tx_until=101 if tx else 100, incoming=int(rx),
             hold_awake_until=hold)
        assert dev.state is (busy or (IDLE if listens else dev.sleep_state))

    def test_power_ordering_enforced(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_mw=1.0, rx_mw=56.4, idle_listen_mw=1.28)
        with pytest.raises(ValueError):
            EnergyModel(sleep_mw=2.0)


class TestLatencyStats:
    def test_single_sample(self):
        s = latency_stats([1000])
        assert s == {"mean": 1000, "p50": 1000, "p99": 1000, "max": 1000}

    def test_nearest_rank_on_1_to_100(self):
        samples = [i * 1000 for i in range(1, 101)]  # 1..100 ms in us
        s = latency_stats(samples)
        assert s["p50"] == 50_000
        assert s["p99"] == 99_000
        assert s["max"] == 100_000

    def test_empty_is_none(self):
        assert latency_stats([]) is None

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
    def test_order_statistics_bounds(self, samples):
        s = latency_stats(samples)
        assert min(samples) <= s["p50"] <= s["p99"] <= s["max"] == max(samples)
        assert s["p50"] in samples and s["p99"] in samples

    @staticmethod
    def reference(samples):
        """The definition: the mean of the samples and their nearest ranks
        `ceil(q n)`, at least 1, in sorted order."""
        ordered = sorted(samples)
        n = len(ordered)
        def rank(q):
            return ordered[max(1, math.ceil(q * n)) - 1]
        return {"mean": sum(ordered) / n, "p50": rank(0.50), "p99": rank(0.99),
                "max": ordered[-1]}

    # A pool of a few latencies, as TDMA and saturated CSMA produce, and
    # distinct ones, the table's worst case.
    SAMPLES = st.one_of(
        st.lists(st.sampled_from([3_416, 36_536, 38_936, 320, 10**9]), min_size=1, max_size=300),
        st.lists(st.integers(min_value=0, max_value=2**62), min_size=1, max_size=300,
                 unique=True),
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(SAMPLES, st.booleans())
    def test_equals_sorted_nearest_rank(self, samples, as_array):
        stats = latency_stats(array("q", samples) if as_array else samples)
        assert stats == self.reference(samples)
        assert all(type(stats[k]) is int for k in ("p50", "p99", "max"))


def sample_ledger(node=1, offered=10, delivered=8, dropped=1, latency_base=1000):
    ledger = MetricsLedger({node: NH})
    for _ in range(offered):
        ledger.offered[node, NH] += 1
    for i in range(delivered):
        ledger.add_delivered(node, NH, latency_base + i)
    for _ in range(dropped):
        ledger.add_dropped(node, NH)
    ledger.state_us[node] = Counter({RadioState.SLEEP: 1_000_000})
    ledger.total_superframes = 10
    ledger.bnc_awake_superframes = 4
    return ledger


class TestMerge:
    def test_counters_and_samples_accumulate(self):
        merged = merge_ledgers([sample_ledger(), sample_ledger(delivered=5)])
        assert merged.offered[(1, NH)] == 20
        assert merged.delivered[(1, NH)] == 13
        assert len(merged.latency[(1, NH)]) == 13
        assert merged.total_superframes == 20
        assert merged.bnc_awake_fraction() == Fraction(8, 20)

    def test_merge_is_commutative_on_counters(self):
        a, b = sample_ledger(offered=3, delivered=2, dropped=0), sample_ledger(offered=7, delivered=1, dropped=4)
        ab = merge_ledgers([a, b])
        ba = merge_ledgers([b, a])
        assert ab.offered == ba.offered
        assert ab.delivered == ba.delivered
        assert sorted(ab.latency[(1, NH)]) == sorted(ba.latency[(1, NH)])

    def test_merge_is_associative_on_counters(self):
        parts = [sample_ledger(offered=i + 1, delivered=i, dropped=0) for i in range(3)]
        left = merge_ledgers([merge_ledgers(parts[:2]), parts[2]])
        right = merge_ledgers([parts[0], merge_ledgers(parts[1:])])
        assert left.offered == right.offered
        assert left.delivered == right.delivered


class TestCsv:
    def test_header_and_row_shape(self):
        fh = io.StringIO()
        write_node_csv(fh, sample_ledger(), "run-s1", 1, "csma", EnergyModel())
        lines = fh.getvalue().splitlines()
        assert lines[0].startswith("run_id,seed,mac,node_id,class,offered")
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "run-s1"
        assert fields[3] == "1"
        assert fields[4] == "normal_high"
        assert fields[5] == "10"

    def test_fields_never_quoted(self):
        fh = io.StringIO()
        write_node_csv(fh, sample_ledger(), "run-s1", 1, "csma", EnergyModel())
        assert '"' not in fh.getvalue()

    def test_zero_offered_gives_empty_pdr_cell(self):
        ledger = MetricsLedger({2: TrafficClass.EMERGENCY})
        ledger.state_us[2] = Counter({RadioState.SLEEP: 1000})
        row = node_csv_rows(ledger, "r", 1, "csma", EnergyModel())[0]
        fields = row.split(",")
        assert fields[5] == "0"  # offered
        assert fields[8] == ""   # pdr cell empty, not 0
        assert fields[9] == ""   # mean latency empty

    def test_summary_carries_awake_fraction(self):
        fh = io.StringIO()
        write_summary_csv(fh, sample_ledger(), "run-s1", 1, "csma", EnergyModel())
        lines = fh.getvalue().splitlines()
        assert "bnc_awake_fraction" in lines[0]
        assert lines[1].split(",")[5] == "0.400000"

    def test_identical_ledgers_produce_identical_bytes(self):
        outs = []
        for _ in range(2):
            fh = io.StringIO()
            write_node_csv(fh, sample_ledger(), "run-s1", 1, "csma", EnergyModel())
            outs.append(fh.getvalue())
        assert outs[0] == outs[1]
