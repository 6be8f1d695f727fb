"""Traffic generators: timed arrivals per node plus the BNC's query script.

Normal traffic is periodic (an ECG-grade node defaults to 4 frames/hour, the
low tier to 4/day; the medium tier's 1/hour default sits between the two).
Emergency traffic is event-driven with exponential inter-arrival times.
On-demand traffic is scripted: the BNC issues queries at fixed times.
"""

from __future__ import annotations

import random
from enum import Enum

from .core import SimTime, TrafficClass

US_PER_HOUR = 3_600_000_000
MAX_INTERVAL_US = 2**63  # longest mean interval a rate may give: an int64 of microseconds


class ArrivalProcess(Enum):
    PERIODIC = "periodic"
    POISSON = "poisson"
    SATURATED = "saturated"  # a fresh frame the instant the queue drains


DEFAULT_RATE_PER_HOUR = {
    TrafficClass.NORMAL_HIGH: 4.0,
    TrafficClass.NORMAL_MEDIUM: 1.0,
    TrafficClass.NORMAL_LOW: 4.0 / 24.0,
    TrafficClass.EMERGENCY: 1.0,
}

DEFAULT_ARRIVAL = {
    TrafficClass.NORMAL_HIGH: ArrivalProcess.PERIODIC,
    TrafficClass.NORMAL_MEDIUM: ArrivalProcess.PERIODIC,
    TrafficClass.NORMAL_LOW: ArrivalProcess.PERIODIC,
    TrafficClass.EMERGENCY: ArrivalProcess.POISSON,
}


class GeneratorSpec:
    """A node's arrival process.  `period_us`, the time between periodic
    arrivals, is computed once per spec; it is None for other processes."""

    __slots__ = ("rate_per_hour", "arrival", "phase_us", "period_us")

    def __init__(self, rate_per_hour: float = 0.0,
                 arrival: ArrivalProcess = ArrivalProcess.PERIODIC,
                 phase_us: SimTime = 0) -> None:
        if arrival is not ArrivalProcess.SATURATED and rate_per_hour <= 0:
            raise ValueError(f"rate_per_hour must be > 0, got {rate_per_hour}")
        if arrival is not ArrivalProcess.SATURATED \
                and US_PER_HOUR / rate_per_hour > MAX_INTERVAL_US:
            raise ValueError(f"rate_per_hour {rate_per_hour} gives a mean interval "
                             f"over {MAX_INTERVAL_US} us")
        period_us = None
        if arrival is ArrivalProcess.PERIODIC:
            period_us = round(US_PER_HOUR / rate_per_hour)
            if period_us < 1:
                raise ValueError(f"rate_per_hour {rate_per_hour} gives a period under 1 us")
        self.rate_per_hour = rate_per_hour
        self.arrival = arrival
        self.phase_us = phase_us
        self.period_us = period_us


class OnDemandEntry:
    """One scripted BNC query: wake the target and collect its response."""

    __slots__ = ("time_us", "target", "continuous", "rate_per_s", "duration_us")

    def __init__(self, time_us: SimTime, target: int, continuous: bool = False,
                 rate_per_s: float = 0.0, duration_us: SimTime = 0) -> None:
        self.time_us = time_us
        self.target = target
        self.continuous = continuous
        self.rate_per_s = rate_per_s        # continuous streams only
        self.duration_us = duration_us
        if continuous:
            if rate_per_s <= 0:
                raise ValueError("continuous query needs rate_per_s > 0")
            if duration_us <= 0:
                raise ValueError("continuous query needs duration_us > 0")
            if 1_000_000 / rate_per_s > MAX_INTERVAL_US:
                raise ValueError(f"rate_per_s {rate_per_s} gives a stream interval "
                                 f"over {MAX_INTERVAL_US} us")
            if self.interval_us < 1:
                raise ValueError(
                    f"rate_per_s {rate_per_s} gives a stream interval under 1 us"
                )

    @property
    def interval_us(self) -> SimTime:
        """Time between frames of a continuous stream."""
        return round(1_000_000 / self.rate_per_s)


# Enum members read on every arrival, bound once (see simulation.py).
PERIODIC, POISSON = ArrivalProcess.PERIODIC, ArrivalProcess.POISSON


def first_arrival(spec: GeneratorSpec, rng: random.Random) -> SimTime:
    if spec.arrival is ArrivalProcess.PERIODIC:
        return spec.phase_us
    if spec.arrival is ArrivalProcess.POISSON:
        return spec.phase_us + _exponential_us(spec, rng)
    raise ValueError("saturated generators do not produce timed arrivals")


def next_arrival(spec: GeneratorSpec, now: SimTime, rng: random.Random) -> SimTime:
    """Time of the arrival following one at `now`."""
    if spec.arrival is PERIODIC:
        return now + spec.period_us
    if spec.arrival is POISSON:
        return now + _exponential_us(spec, rng)
    raise ValueError("saturated generators do not produce timed arrivals")


def _exponential_us(spec: GeneratorSpec, rng: random.Random) -> SimTime:
    mean_us = US_PER_HOUR / spec.rate_per_hour
    return max(1, round(rng.expovariate(1.0 / mean_us)))
