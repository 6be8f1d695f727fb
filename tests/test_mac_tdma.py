import pytest

from wbansim.mac_tdma import TdmaSchedule


class TestTdmaSchedule:
    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError, match="slot 0"):
            TdmaSchedule(slots={1: 0, 2: 0}, slot_duration_us=4000, slots_per_superframe=4)

    def test_slot_index_range_checked(self):
        with pytest.raises(ValueError):
            TdmaSchedule(slots={1: 5}, slot_duration_us=4000, slots_per_superframe=4)

    def test_offsets(self):
        sched = TdmaSchedule(slots={1: 0, 2: 2}, slot_duration_us=4000, slots_per_superframe=3)
        assert sched.slot_offset_us(1) == 0
        assert sched.slot_offset_us(2) == 8000
        assert sched.region_us == 12_000
