import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wbansim.channel import (
    CcaResult,
    ChannelModel,
    ChannelParams,
    LinkClass,
    LossReason,
    dbm_to_mw,
    default_path_loss,
    link_class,
    path_loss_db,
    rx_power_dbm,
)
from wbansim.core import Frame, FrameKind, Placement, PlacementKind, TrafficClass

ORIGIN = Placement(PlacementKind.ON_BODY)


def on_body(x):
    return Placement(PlacementKind.ON_BODY, x, 0.0, 0.0)


def in_body(x, depth=0.05):
    return Placement(PlacementKind.IN_BODY, x, 0.0, 0.0, depth_m=depth)


def data_frame(src=1, dst=0, bits=800, seq=1):
    return Frame(FrameKind.DATA, src, dst, bits, TrafficClass.NORMAL_HIGH, 0, seq)


def channel_at(tx_power_dbm):
    """A channel whose sources of either placement kind transmit at `tx_power_dbm`."""
    return ChannelModel(ChannelParams(tx_power_on_body_dbm=tx_power_dbm,
                                      tx_power_in_body_dbm=tx_power_dbm))


class TestPathLoss:
    def test_in_body_to_on_body_at_3m(self):
        # 60 + 45*log10(3) dB
        loss = path_loss_db(in_body(3.0), ORIGIN, default_path_loss())
        assert loss == pytest.approx(81.47, abs=0.005)

    def test_reference_distance_returns_reference_loss(self):
        loss = path_loss_db(on_body(1.0), ORIGIN, default_path_loss())
        assert loss == pytest.approx(40.0)

    def test_on_body_at_1_5m(self):
        loss = path_loss_db(on_body(1.5), ORIGIN, default_path_loss())
        assert loss == pytest.approx(43.52, abs=0.005)

    def test_sub_millimeter_clamped(self):
        near = path_loss_db(on_body(1e-9), ORIGIN, default_path_loss())
        at_clamp = path_loss_db(on_body(0.001), ORIGIN, default_path_loss())
        assert near == at_clamp

    def test_link_class_selection(self):
        assert link_class(ORIGIN, on_body(1)) is LinkClass.ON_BODY
        assert link_class(in_body(1), ORIGIN) is LinkClass.IN_TO_ON
        assert link_class(ORIGIN, in_body(1)) is LinkClass.IN_TO_ON
        assert link_class(in_body(1), in_body(2)) is LinkClass.IN_TO_IN

    @given(
        d1=st.floats(min_value=0.002, max_value=50.0),
        factor=st.floats(min_value=1.001, max_value=100.0),
    )
    def test_strictly_increasing_with_distance(self, d1, factor):
        params = default_path_loss()
        assert path_loss_db(on_body(d1 * factor), ORIGIN, params) > path_loss_db(
            on_body(d1), ORIGIN, params
        )


class TestRxPower:
    def test_in_body_source_at_3m(self):
        assert rx_power_dbm(-16.0, in_body(3.0), ORIGIN, default_path_loss()) == pytest.approx(
            -97.47, abs=0.005
        )

    def test_in_body_source_at_1_5m(self):
        assert rx_power_dbm(-16.0, in_body(1.5), ORIGIN, default_path_loss()) == pytest.approx(
            -83.92, abs=0.005
        )

    def test_reference_case(self):
        assert rx_power_dbm(0.0, on_body(1.0), ORIGIN, default_path_loss()) == pytest.approx(-40.0)


class TestCca:
    def make_channel_with_tx(self, src_placement, tx_power_dbm):
        ch = channel_at(tx_power_dbm)
        frame = Frame(FrameKind.DATA, 1, 0, 800, TrafficClass.NORMAL_HIGH, 0, 1)
        ch.register_tx(frame, src_placement, 0, 1000)
        return ch

    def test_implant_invisible_at_3m_for_both_thresholds(self):
        ch = self.make_channel_with_tx(in_body(3.0), -16.0)
        listener = ORIGIN
        assert ch.cca_energy_detect(listener, -85.0, 500) is CcaResult.IDLE
        assert ch.cca_energy_detect(listener, -95.0, 500) is CcaResult.IDLE

    def test_implant_detected_at_1_5m(self):
        ch = self.make_channel_with_tx(in_body(1.5), -16.0)
        assert ch.cca_energy_detect(ORIGIN, -85.0, 500) is CcaResult.BUSY

    def test_idle_when_nothing_on_air(self):
        ch = ChannelModel()
        assert ch.cca_energy_detect(ORIGIN, -200.0, 0) is CcaResult.IDLE

    def test_powers_sum_in_linear_milliwatts(self):
        # two equal -90 dBm arrivals combine to ~-86.99 dBm, not -87 dB "sum"
        # place two on-body sources so each arrives at -90 dBm: tx at -50 dBm, 1 m away
        ch = channel_at(-50.0)
        for i, x in enumerate((1.0, -1.0)):
            ch.register_tx(data_frame(src=i + 1, seq=i + 1), on_body(x), 0, 1000)
        total = ch.received_power_dbm(ORIGIN, 500)
        assert total == pytest.approx(-86.9897, abs=0.001)
        assert ch.cca_energy_detect(ORIGIN, -87.0, 500) is CcaResult.BUSY

    def test_lowering_threshold_never_flips_busy_to_idle(self):
        ch = self.make_channel_with_tx(on_body(1.0), 0.0)
        was_busy = ch.cca_energy_detect(ORIGIN, -85.0, 500) is CcaResult.BUSY
        assert was_busy
        for thr in (-90.0, -100.0, -120.0):
            assert ch.cca_energy_detect(ORIGIN, thr, 500) is CcaResult.BUSY

    def test_interval_boundaries_half_open(self):
        ch = self.make_channel_with_tx(on_body(1.0), 0.0)
        assert ch.cca_energy_detect(ORIGIN, -85.0, 0) is CcaResult.BUSY
        assert ch.cca_energy_detect(ORIGIN, -85.0, 1000) is CcaResult.IDLE


class TestDeliver:
    def test_lone_frame_ideal_link_delivered(self):
        ch = ChannelModel()
        tx = ch.register_tx(data_frame(), on_body(0.5), 0, 1000)
        assert ch.deliver(tx, ORIGIN, random.Random(1)) is None

    def test_symmetric_collision_loses_both(self):
        ch = ChannelModel()
        tx1 = ch.register_tx(data_frame(src=1, seq=1), on_body(0.5), 0, 1000)
        tx2 = ch.register_tx(data_frame(src=2, seq=2), on_body(-0.5), 0, 1000)
        rng = random.Random(1)
        assert ch.deliver(tx1, ORIGIN, rng) is LossReason.COLLISION
        assert ch.deliver(tx2, ORIGIN, rng) is LossReason.COLLISION

    def test_strong_frame_captures_over_weak_interferer(self):
        ch = ChannelModel()
        strong = ch.register_tx(data_frame(src=1, seq=1), on_body(0.5), 0, 1000)
        # interferer 15 dB below the frame of interest at the destination:
        # 20 * log10(2.8 / 0.5) = 14.96 dB more path loss
        ch.register_tx(data_frame(src=2, seq=2), on_body(-2.8), 0, 1000)
        rng = random.Random(1)
        assert ch.deliver(strong, ORIGIN, rng) is None

    def test_non_overlapping_transmissions_do_not_interfere(self):
        ch = ChannelModel()
        first = ch.register_tx(data_frame(src=1, seq=1), on_body(0.5), 0, 1000)
        second = ch.register_tx(data_frame(src=2, seq=2), on_body(0.5), 1000, 1000)
        assert first.interferers == []
        assert second.interferers == []

    def test_below_sensitivity_lost(self):
        ch = ChannelModel()
        tx = ch.register_tx(data_frame(), in_body(3.0), 0, 1000)  # -97.47 dBm < -95
        assert ch.deliver(tx, ORIGIN, random.Random(1)) is LossReason.BELOW_SENSITIVITY

    def test_collision_reported_before_sensitivity(self):
        ch = ChannelModel()
        weak = ch.register_tx(data_frame(src=1, seq=1), in_body(3.0), 0, 1000)
        ch.register_tx(data_frame(src=2, seq=2), on_body(0.5), 0, 1000)
        assert ch.deliver(weak, ORIGIN, random.Random(1)) is LossReason.COLLISION

    def test_link_error_rate_calibration(self):
        # ~84% success over 1e5 contention-free frames, within binomial noise
        ch = ChannelModel(link_errors={(1, 0): 0.84})
        rng = random.Random(1234)
        n = 100_000
        delivered = 0
        for i in range(n):
            frame = data_frame(seq=i)
            tx = ch.register_tx(frame, on_body(0.5), i * 2000, 1000)
            if ch.deliver(tx, ORIGIN, rng) is None:
                delivered += 1
            ch.end_tx(tx)
        assert delivered / n == pytest.approx(0.84, abs=0.01)

    def test_deterministic_given_rng_state(self):
        outcomes = []
        for _ in range(2):
            ch = ChannelModel(link_errors={(1, 0): 0.5})
            rng = random.Random(99)
            run = []
            for i in range(100):
                tx = ch.register_tx(data_frame(seq=i), on_body(0.5), i * 2000, 1000)
                run.append(ch.deliver(tx, ORIGIN, rng))
                ch.end_tx(tx)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]


COORD = st.floats(min_value=-2.0, max_value=2.0)
PLACEMENTS = st.one_of(
    st.builds(lambda x, y, z: Placement(PlacementKind.ON_BODY, x, y, z), COORD, COORD, COORD),
    st.builds(lambda x, y, z, depth: Placement(PlacementKind.IN_BODY, x, y, z, depth),
              COORD, COORD, COORD, st.floats(min_value=0.001, max_value=0.2)),
)
POWERS = st.one_of(st.sampled_from([-16.0, 0.0]), st.floats(min_value=-30.0, max_value=10.0))


class TestLinkBudgetMemo:
    """The memoised link budget returns exactly what the formulas return."""

    @staticmethod
    def uncached_power_dbm(params, txs, listener, now):
        total_mw = 0.0
        for tx in txs:
            if tx.start <= now < tx.end:
                src = tx.budget.src_placement
                total_mw += dbm_to_mw(
                    rx_power_dbm(params.tx_power_for(src), src, listener, default_path_loss()))
        return 10.0 * math.log10(total_mw) if total_mw > 0.0 else -math.inf

    @staticmethod
    def uncached_outcome(params, txs, tx, dst):
        def rx(t):
            src = t.budget.src_placement
            return rx_power_dbm(params.tx_power_for(src), src, dst, params.path_loss)

        own = rx(tx)
        for other in txs:
            if other is not tx and other.end > tx.start and tx.end > other.start:
                if rx(other) >= own - params.capture_margin_db:
                    return LossReason.COLLISION
        if own < params.sensitivity_dbm:
            return LossReason.BELOW_SENSITIVITY
        return None

    @given(
        sources=st.lists(st.tuples(PLACEMENTS, st.integers(0, 3)), min_size=1, max_size=8),
        on_body_power=POWERS,
        in_body_power=POWERS,
        listeners=st.lists(PLACEMENTS, min_size=1, max_size=3),
    )
    def test_equals_uncached_formula(self, sources, on_body_power, in_body_power, listeners):
        params = ChannelParams(tx_power_on_body_dbm=on_body_power,
                               tx_power_in_body_dbm=in_body_power)
        ch = ChannelModel(params)
        txs = [
            ch.register_tx(data_frame(src=i + 1, seq=i + 1), place, slot * 500, 1000)
            for i, (place, slot) in enumerate(sources)
        ]
        listeners = [ORIGIN, sources[0][0]] + listeners
        for now in range(0, 3000, 250):
            for listener in listeners:
                assert ch.received_power_dbm(listener, now) == \
                    self.uncached_power_dbm(params, txs, listener, now)
        for tx in txs:
            for dst in listeners:
                assert ch.deliver(tx, dst, random.Random(1)) == \
                    self.uncached_outcome(params, txs, tx, dst)
        for src, row in ch._budget.items():
            for dst, (rx_dbm, rx_mw) in row.items():
                assert rx_dbm == rx_power_dbm(params.tx_power_for(src), src, dst,
                                              default_path_loss())
                assert rx_mw == dbm_to_mw(rx_dbm)
        # Every transmission reads the row of its own source, at that
        # placement's tx power.
        for tx, (place, _) in zip(txs, sources):
            assert tx.budget is ch._budget[place]
            assert (tx.budget.tx_power_dbm, tx.budget.src_placement) == \
                (params.tx_power_for(place), place)
