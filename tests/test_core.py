import pytest
from hypothesis import given
from hypothesis import strategies as st

from wbansim.core import (
    Criticality,
    Frame,
    FrameKind,
    Placement,
    PlacementKind,
    TrafficClass,
    airtime,
)


class TestAirtime:
    def test_hand_arithmetic(self):
        assert airtime(250, 250_000) == 1000

    def test_rounds_up_to_whole_microsecond(self):
        assert airtime(1, 250_000) == 4

    @given(
        bits=st.integers(min_value=1, max_value=10**6),
        extra=st.integers(min_value=0, max_value=10**6),
        rate=st.integers(min_value=1, max_value=10**7),
    )
    def test_monotone_in_size(self, bits, extra, rate):
        assert airtime(bits + extra, rate) >= airtime(bits, rate)

    @given(
        bits=st.integers(min_value=1, max_value=10**6),
        rate=st.integers(min_value=1, max_value=10**7),
        faster=st.integers(min_value=0, max_value=10**7),
    )
    def test_non_increasing_in_bitrate(self, bits, rate, faster):
        assert airtime(bits, rate + faster) <= airtime(bits, rate)


class TestEncodings:
    @pytest.mark.parametrize("cls", list(TrafficClass))
    def test_traffic_class_round_trip(self, cls):
        assert TrafficClass(cls.value) is cls

    @pytest.mark.parametrize("crit", list(Criticality))
    def test_criticality_round_trip(self, crit):
        assert Criticality(crit.value) is crit

    def test_queue_priority_ordering(self):
        order = [
            TrafficClass.EMERGENCY,
            TrafficClass.ON_DEMAND_CONTINUOUS,
            TrafficClass.NORMAL_HIGH,
            TrafficClass.NORMAL_MEDIUM,
            TrafficClass.NORMAL_LOW,
        ]
        priorities = [Frame(FrameKind.DATA, 1, 0, 8, c, 0, 1).queue_key()[0] for c in order]
        assert priorities == sorted(priorities)
        assert priorities[0] < priorities[1] < priorities[2]


class TestPlacement:
    def test_in_body_requires_depth(self):
        with pytest.raises(ValueError):
            Placement(PlacementKind.IN_BODY, 0.1, 0, 0)

    def test_on_body_rejects_depth(self):
        with pytest.raises(ValueError):
            Placement(PlacementKind.ON_BODY, 0.1, 0, 0, depth_m=0.05)

    def test_distance(self):
        a = Placement(PlacementKind.ON_BODY, 0, 0, 0)
        b = Placement(PlacementKind.ON_BODY, 3, 4, 0)
        assert a.distance_to(b) == pytest.approx(5.0)


class TestFrame:
    def test_control_frames_cannot_queue(self):
        beacon = Frame(FrameKind.BEACON, 0, -1, 304, None, 0, 1)
        with pytest.raises(ValueError):
            beacon.queue_key()

    def test_queue_key_orders_emergency_first(self):
        normal = Frame(FrameKind.DATA, 1, 0, 8, TrafficClass.NORMAL_HIGH, 0, 1)
        emergency = Frame(FrameKind.DATA, 2, 0, 8, TrafficClass.EMERGENCY, 5, 2)
        assert emergency.queue_key() < normal.queue_key()
