import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.core import BNC_ID
from wbansim.wakeup import (
    Addressing,
    WakeupConfig,
    bnc_awake_fraction,
    bnc_schedule,
    is_awake,
    resolve_wakeup_targets,
)


def brute_force_schedule(ks: list[int], horizon: int) -> set[int]:
    """Independent oracle: test every index against every multiplier."""
    return {i for i in range(horizon) if any(i % k == 0 for k in ks)}


class TestIsAwake:
    def test_index_zero_always_awake(self):
        assert is_awake(10, 0)

    def test_multiple_of_k(self):
        assert is_awake(10, 430)
        assert not is_awake(10, 25)

    def test_k43(self):
        assert is_awake(43, 86)
        assert not is_awake(43, 44)

    @given(k=st.integers(min_value=1, max_value=64), i=st.integers(min_value=0, max_value=10_000))
    def test_period_exactly_k(self, k, i):
        assert is_awake(k, i) == is_awake(k, i + k)


class TestBncSchedule:
    def test_fig_pattern_10_and_43(self):
        awake = bnc_schedule([10, 43], 430)
        assert awake == brute_force_schedule([10, 43], 430)
        assert len(awake) == 52  # 43 tens + 10 forty-threes - shared index 0

    def test_single_node_every_superframe(self):
        assert bnc_schedule([1], 100) == set(range(100))

    def test_horizon_one(self):
        assert bnc_schedule([7, 13], 1) == {0}

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            bnc_schedule([2], 0)

    @settings(max_examples=60, deadline=None)
    @given(
        ks=st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=16),
        horizon=st.integers(min_value=1, max_value=10_000),
    )
    def test_matches_brute_force_oracle(self, ks, horizon):
        assert bnc_schedule(ks, horizon) == brute_force_schedule(ks, horizon)

    @given(ks=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
           extra=st.integers(min_value=1, max_value=50))
    def test_adding_a_node_never_shrinks_the_schedule(self, ks, extra):
        assert bnc_schedule(ks, 500) <= bnc_schedule(ks + [extra], 500)


class TestAwakeFraction:
    def test_exact_rational_for_fig_pattern(self):
        assert bnc_awake_fraction([10, 43]) == Fraction(52, 430)

    def test_fraction_over_lcm_matches_schedule(self):
        period = math.lcm(4, 6)
        assert bnc_awake_fraction([4, 6]) == Fraction(len(bnc_schedule([4, 6], period)), period)

    @given(ks=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
           extra=st.integers(min_value=1, max_value=12))
    def test_adding_node_never_decreases_fraction(self, ks, extra):
        assert bnc_awake_fraction(ks + [extra]) >= bnc_awake_fraction(ks)


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

    @pytest.mark.parametrize("mode", list(Addressing))
    def test_to_bnc_wakes_the_bnc(self, mode):
        cfg = WakeupConfig(mode=mode, frequencies={})
        assert resolve_wakeup_targets(BNC_ID, [1, 2, 3, 4], cfg) == [BNC_ID]
