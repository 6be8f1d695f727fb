"""Shared domain vocabulary: node identities, time, traffic classes, frames,
superframe timing and beacons.

Simulation time is an integer count of microseconds since run start, so event
ordering is exact and runs are bit-reproducible.  The coordinator (BNC) is
addressed by the reserved id 0; sensor nodes (BNs) use ids >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

SimTime = int  # microseconds since simulation start

BNC_ID = 0


class TrafficClass(Enum):
    """Traffic taxonomy: normal (high/medium/low), on-demand, emergency."""

    NORMAL_HIGH = "normal_high"
    NORMAL_MEDIUM = "normal_medium"
    NORMAL_LOW = "normal_low"
    ON_DEMAND_CONTINUOUS = "on_demand_continuous"
    ON_DEMAND_NON_CONTINUOUS = "on_demand_non_continuous"
    EMERGENCY = "emergency"

    __hash__ = object.__hash__  # identity hash; see engine.EventKind

    @property
    def is_on_demand(self) -> bool:
        return self in (
            TrafficClass.ON_DEMAND_CONTINUOUS,
            TrafficClass.ON_DEMAND_NON_CONTINUOUS,
        )

    @property
    def queue_priority(self) -> int:
        """Pending-queue rank; lower transmits first, ties broken FIFO."""
        return _QUEUE_PRIORITY[self]


# Emergency > OnDemand > Normal(High) > Normal(Medium) > Normal(Low).
_QUEUE_PRIORITY = {
    TrafficClass.EMERGENCY: 0,
    TrafficClass.ON_DEMAND_CONTINUOUS: 1,
    TrafficClass.ON_DEMAND_NON_CONTINUOUS: 1,
    TrafficClass.NORMAL_HIGH: 2,
    TrafficClass.NORMAL_MEDIUM: 3,
    TrafficClass.NORMAL_LOW: 4,
}


class Criticality(Enum):
    """Two-valued QoS split driving the initial backoff window size."""

    CRITICAL = "critical"
    NON_CRITICAL = "non_critical"


class PlacementKind(Enum):
    ON_BODY = "on_body"
    IN_BODY = "in_body"

    __hash__ = object.__hash__  # identity hash; see engine.EventKind


@dataclass(frozen=True, eq=False)
class Placement:
    """Node position in meters relative to the BNC; implants carry a tissue depth.

    A placement compares and hashes by identity, so the channel's link-budget
    memo key hashes in C; nothing compares placements by value.
    """

    kind: PlacementKind
    x_m: float = 0.0
    y_m: float = 0.0
    z_m: float = 0.0
    depth_m: float | None = None

    def __post_init__(self) -> None:
        if self.kind is PlacementKind.IN_BODY:
            if self.depth_m is None:
                raise ValueError("in-body placement requires depth_m")
            if not 0.0 < self.depth_m <= 0.2:
                raise ValueError(f"depth_m must be in (0, 0.2], got {self.depth_m}")
        elif self.depth_m is not None:
            raise ValueError("depth_m only valid for in-body placement")

    def distance_to(self, other: "Placement") -> float:
        return math.dist(
            (self.x_m, self.y_m, self.z_m), (other.x_m, other.y_m, other.z_m)
        )


@dataclass(frozen=True)
class NodeProfile:
    """A BN's identity, placement, traffic class and wakeup pattern."""

    id: int
    placement: Placement
    traffic_class: TrafficClass
    criticality: Criticality
    wakeup_multiplier: int  # node wakes every k-th superframe
    payload_bits: int
    wakeup_receiver: bool = True

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"node id must be >= 1 (0 is the BNC), got {self.id}")
        if self.wakeup_multiplier < 1:
            raise ValueError(f"wakeup_multiplier must be >= 1, got {self.wakeup_multiplier}")
        if self.payload_bits <= 0:
            raise ValueError(f"payload_bits must be positive, got {self.payload_bits}")


class FrameKind(Enum):
    BEACON = "beacon"
    DATA = "data"
    ACK = "ack"
    WAKEUP_SIGNAL = "wakeup_signal"
    COMMAND = "command"


BROADCAST_ID = -1


@dataclass
class Frame:
    """One over-the-air unit with the timestamps needed for latency accounting.

    created_at marks generation, rx_end the last bit at the receiver.  Control
    frames (beacon, ack, wakeup signal) carry no traffic class.  Wakeup signals
    travel out of band and never enter the data channel.
    """

    kind: FrameKind
    src: int
    dst: int
    size_bits: int
    traffic_class: TrafficClass | None
    created_at: SimTime
    sequence: int
    rx_end: SimTime | None = None
    payload: object = None
    # Runtime bookkeeping, not part of the wire format.
    retries: int = 0
    delivered: bool = False

    def __post_init__(self) -> None:
        if self.size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {self.size_bits}")

    def queue_key(self) -> tuple[int, SimTime, int]:
        if self.traffic_class is None:
            raise ValueError("only classed frames can be queued")
        return (self.traffic_class.queue_priority, self.created_at, self.sequence)


def airtime(size_bits: int, bitrate_bps: int) -> SimTime:
    """Time on air in microseconds, rounded up to the next whole microsecond."""
    if size_bits <= 0:
        raise ValueError(f"size_bits must be positive, got {size_bits}")
    if bitrate_bps <= 0:
        raise ValueError(f"bitrate_bps must be positive, got {bitrate_bps}")
    return -(-size_bits * 1_000_000 // bitrate_bps)


BASE_SLOT_SYMBOLS = 60
SLOTS_PER_SUPERFRAME = 16
UNIT_BACKOFF_SYMBOLS = 20
TURNAROUND_SYMBOLS = 12
ACK_WAIT_SYMBOLS = 54


@dataclass(frozen=True)
class SuperframeConfig:
    """Beacon-interval / active-duration arithmetic, exact in microseconds.

    The timing values are computed once per config and then read as plain
    attributes (the hot CSMA paths read them per backoff slot).
    """

    beacon_order: int = 6
    superframe_order: int = 6
    symbol_rate_sps: int = 62_500

    def __post_init__(self) -> None:
        if not 0 <= self.superframe_order <= self.beacon_order <= 14:
            raise ValueError(
                f"need 0 <= SO <= BO <= 14, got SO={self.superframe_order} BO={self.beacon_order}"
            )
        if self.symbol_rate_sps <= 0 or 1_000_000 % self.symbol_rate_sps != 0:
            raise ValueError(
                f"symbol rate must divide 1e6 for exact microsecond timing, got {self.symbol_rate_sps}"
            )

    @cached_property
    def us_per_symbol(self) -> int:
        return 1_000_000 // self.symbol_rate_sps

    @cached_property
    def beacon_interval_us(self) -> SimTime:
        return BASE_SLOT_SYMBOLS * SLOTS_PER_SUPERFRAME * (1 << self.beacon_order) * self.us_per_symbol

    @cached_property
    def active_duration_us(self) -> SimTime:
        return BASE_SLOT_SYMBOLS * SLOTS_PER_SUPERFRAME * (1 << self.superframe_order) * self.us_per_symbol

    @cached_property
    def unit_backoff_us(self) -> SimTime:
        return UNIT_BACKOFF_SYMBOLS * self.us_per_symbol

    @cached_property
    def turnaround_us(self) -> SimTime:
        return TURNAROUND_SYMBOLS * self.us_per_symbol

    @cached_property
    def ack_wait_us(self) -> SimTime:
        return ACK_WAIT_SYMBOLS * self.us_per_symbol

    @cached_property
    def default_bitrate_bps(self) -> int:
        return self.symbol_rate_sps * 4  # 4 bits/symbol


@dataclass(frozen=True)
class BeaconInfo:
    superframe_index: int
    cap_anchor: SimTime  # first usable backoff boundary / slot-region start
    cap_end: SimTime
    table_version: int
    commands: tuple = ()  # coordinator frames piggybacked under TDMA


def make_beacon(
    sf_index: int, cap_anchor: SimTime, cap_end: SimTime,
    table_version: int, size_bits: int, now: SimTime, sequence: int,
    commands: tuple = (),
) -> Frame:
    """Broadcast beacon carrying superframe timing and the wakeup-table version."""
    return Frame(
        kind=FrameKind.BEACON,
        src=BNC_ID,
        dst=BROADCAST_ID,
        size_bits=size_bits,
        traffic_class=None,
        created_at=now,
        sequence=sequence,
        payload=BeaconInfo(sf_index, cap_anchor, cap_end, table_version, commands),
    )
