import random
import statistics

import pytest
from scipy import stats

from wbansim.core import TrafficClass
from wbansim.traffic import (
    DEFAULT_RATE_PER_HOUR,
    ArrivalProcess,
    GeneratorSpec,
    OnDemandEntry,
    first_arrival,
    next_arrival,
)


def spec(rate=4.0, arrival=ArrivalProcess.PERIODIC, phase=0):
    return GeneratorSpec(rate_per_hour=rate, arrival=arrival, phase_us=phase)


class TestPeriodic:
    def test_four_per_hour_spacing_is_900s(self):
        s = spec(rate=4.0)
        rng = random.Random(1)
        assert next_arrival(s, 0, rng) == 900 * 1_000_000

    def test_four_per_day_spacing_is_21600s(self):
        s = spec(rate=4.0 / 24.0)
        assert next_arrival(s, 0, random.Random(1)) == 21_600 * 1_000_000

    def test_count_over_horizon(self):
        # floor(horizon/period) + 1 arrivals when the phase offset is zero
        s = spec(rate=3600.0)  # 1/s
        horizon = 10_500_000
        t, count = first_arrival(s, random.Random(1)), 0
        while t <= horizon:
            count += 1
            t = next_arrival(s, t, random.Random(1))
        assert count == horizon // s.period_us + 1

    def test_phase_offset_shifts_first_arrival(self):
        s = spec(phase=250_000)
        assert first_arrival(s, random.Random(1)) == 250_000


class TestPoisson:
    def test_sample_mean_near_configured_mean(self):
        s = spec(rate=1.0, arrival=ArrivalProcess.POISSON)
        rng = random.Random(42)
        gaps = []
        t = 0
        for _ in range(10_000):
            nxt = next_arrival(s, t, rng)
            gaps.append(nxt - t)
            t = nxt
        mean_s = statistics.mean(gaps) / 1_000_000
        assert mean_s == pytest.approx(3600.0, rel=0.02)

    def test_interarrivals_look_exponential(self):
        s = spec(rate=60.0, arrival=ArrivalProcess.POISSON)
        rng = random.Random(7)
        gaps = []
        t = 0
        for _ in range(2000):
            nxt = next_arrival(s, t, rng)
            gaps.append(nxt - t)
            t = nxt
        mean = statistics.mean(gaps)
        _, p = stats.kstest(gaps, "expon", args=(0, mean))
        assert p > 0.01

    def test_draws_reproducible_across_runs(self):
        s = spec(rate=10.0, arrival=ArrivalProcess.POISSON)
        a = [next_arrival(s, 0, random.Random(5)) for _ in range(3)]
        b = [next_arrival(s, 0, random.Random(5)) for _ in range(3)]
        assert a == b


class TestSpecValidation:
    def test_rate_required_for_timed_processes(self):
        with pytest.raises(ValueError):
            spec(rate=0.0)

    def test_saturated_needs_no_rate(self):
        s = GeneratorSpec(arrival=ArrivalProcess.SATURATED)
        with pytest.raises(ValueError):
            next_arrival(s, 0, random.Random(1))

    def test_default_rates_cover_all_generating_classes(self):
        assert DEFAULT_RATE_PER_HOUR[TrafficClass.NORMAL_HIGH] == 4.0
        assert DEFAULT_RATE_PER_HOUR[TrafficClass.NORMAL_LOW] == pytest.approx(4 / 24)

    def test_on_demand_entry_validation(self):
        with pytest.raises(ValueError):
            OnDemandEntry(time_us=0, target=1, continuous=True, rate_per_s=0, duration_us=10)
        OnDemandEntry(time_us=0, target=1, continuous=False)
