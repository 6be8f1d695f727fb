import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.core import (
    BNC_ID,
    Criticality,
    NodeProfile,
    Placement,
    PlacementKind,
    TrafficClass,
)
from wbansim.wakeup import (
    Addressing,
    WakeupConfig,
    WakeupTable,
    WakeupTableError,
    bnc_awake_fraction,
    bnc_schedule,
    build_table,
    is_awake,
    resolve_wakeup_targets,
)


def profile(node_id, k):
    return NodeProfile(
        id=node_id,
        placement=Placement(PlacementKind.ON_BODY, 0.1 * node_id),
        traffic_class=TrafficClass.NORMAL_HIGH,
        criticality=Criticality.NON_CRITICAL,
        wakeup_multiplier=k,
        payload_bits=800,
    )


def brute_force_schedule(entries: dict[int, int], horizon: int) -> set[int]:
    """Independent oracle: test every index against every multiplier."""
    return {
        i for i in range(horizon)
        if any(i % k == 0 for k in entries.values())
    }


class TestBuildTable:
    def test_empty_list_rejected(self):
        with pytest.raises(WakeupTableError):
            build_table([])

    def test_duplicate_id_rejected_naming_node(self):
        with pytest.raises(WakeupTableError, match="1"):
            build_table([profile(1, 10), profile(1, 20)])


class TestIsAwake:
    def test_index_zero_always_awake(self):
        table = WakeupTable({1: 10})
        assert is_awake(table, 1, 0)

    def test_multiple_of_k(self):
        table = WakeupTable({1: 10})
        assert is_awake(table, 1, 430)
        assert not is_awake(table, 1, 25)

    def test_k43(self):
        table = WakeupTable({3: 43})
        assert is_awake(table, 3, 86)
        assert not is_awake(table, 3, 44)

    def test_unknown_node_errors(self):
        table = WakeupTable({1: 10})
        with pytest.raises(WakeupTableError):
            is_awake(table, 99, 0)

    @given(k=st.integers(min_value=1, max_value=64), i=st.integers(min_value=0, max_value=10_000))
    def test_period_exactly_k(self, k, i):
        table = WakeupTable({1: k})
        assert is_awake(table, 1, i) == is_awake(table, 1, i + k)


class TestBncSchedule:
    def test_fig_pattern_10_and_43(self):
        table = WakeupTable({1: 10, 3: 43})
        awake = bnc_schedule(table, 430)
        oracle = brute_force_schedule({1: 10, 3: 43}, 430)
        assert awake == oracle
        assert len(awake) == 52  # 43 tens + 10 forty-threes - shared index 0

    def test_single_node_every_superframe(self):
        table = WakeupTable({1: 1})
        assert bnc_schedule(table, 100) == set(range(100))

    def test_horizon_one(self):
        table = WakeupTable({1: 7, 2: 13})
        assert bnc_schedule(table, 1) == {0}

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            bnc_schedule(WakeupTable({1: 2}), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        ks=st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=16),
        horizon=st.integers(min_value=1, max_value=10_000),
    )
    def test_matches_brute_force_oracle(self, ks, horizon):
        entries = {i + 1: k for i, k in enumerate(ks)}
        table = WakeupTable(entries)
        assert bnc_schedule(table, horizon) == brute_force_schedule(entries, horizon)

    @given(ks=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
           extra=st.integers(min_value=1, max_value=50))
    def test_adding_a_node_never_shrinks_the_schedule(self, ks, extra):
        entries = {i + 1: k for i, k in enumerate(ks)}
        base = bnc_schedule(WakeupTable(entries), 500)
        entries[len(ks) + 1] = extra
        grown = bnc_schedule(WakeupTable(entries), 500)
        assert base <= grown


class TestAwakeFraction:
    def test_exact_rational_for_fig_pattern(self):
        table = WakeupTable({1: 10, 3: 43})
        frac = bnc_awake_fraction(table)
        assert frac == Fraction(52, 430)

    def test_fraction_over_lcm_matches_schedule(self):
        table = WakeupTable({1: 4, 2: 6})
        period = math.lcm(4, 6)
        assert bnc_awake_fraction(table) == Fraction(len(bnc_schedule(table, period)), period)

    @given(ks=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
           extra=st.integers(min_value=1, max_value=12))
    def test_adding_node_never_decreases_fraction(self, ks, extra):
        entries = {i + 1: k for i, k in enumerate(ks)}
        before = bnc_awake_fraction(WakeupTable(entries))
        entries[len(ks) + 1] = extra
        assert bnc_awake_fraction(WakeupTable(entries)) >= before


class TestTableUpdates:
    def test_version_increments_on_every_modification(self):
        table = build_table([profile(1, 10)])
        v0 = table.version
        table.update(1, 20)
        table.update(1, 5)
        assert table.version == v0 + 2
        assert table.multiplier(1) == 5

    def test_update_validates(self):
        table = build_table([profile(1, 10)])
        with pytest.raises(WakeupTableError):
            table.update(2, 10)
        with pytest.raises(WakeupTableError):
            table.update(1, 0)


class TestSignals:
    def test_broadcast_wakes_every_receiver(self):
        woken = resolve_wakeup_targets(3, [8, 1, 2, 3, 4, 5, 6, 7], WakeupConfig())
        assert woken == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_frequency_addressed_wakes_only_target(self):
        cfg = WakeupConfig(mode=Addressing.FREQUENCY_ADDRESSED, frequencies={3: 1})
        assert resolve_wakeup_targets(3, [1, 2, 3, 4], cfg) == [3]

    def test_frequency_addressed_target_without_receiver_wakes_nobody(self):
        cfg = WakeupConfig(mode=Addressing.FREQUENCY_ADDRESSED, frequencies={3: 1})
        assert resolve_wakeup_targets(3, [1, 2, 4], cfg) == []

    def test_frequency_addressed_without_assignment_errors(self):
        cfg = WakeupConfig(mode=Addressing.FREQUENCY_ADDRESSED, frequencies={2: 1})
        with pytest.raises(WakeupTableError, match="node 3 has no wakeup frequency"):
            resolve_wakeup_targets(3, [1, 2, 3], cfg)

    @pytest.mark.parametrize("mode", list(Addressing))
    def test_to_bnc_wakes_the_bnc(self, mode):
        cfg = WakeupConfig(mode=mode, frequencies={})
        assert resolve_wakeup_targets(BNC_ID, [1, 2, 3, 4], cfg) == [BNC_ID]
