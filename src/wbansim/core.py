"""Shared domain vocabulary: node identities, time, traffic classes, frames,
superframe timing and beacons.

Simulation time is an integer count of microseconds since run start, so event
ordering is exact and runs are bit-reproducible.  The coordinator (BNC) is
addressed by the reserved id 0; sensor nodes (BNs) use ids >= 1.
"""

from __future__ import annotations

import math
from enum import Enum

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


# Pending-queue rank, the first term of `Frame.queue_key`; lower transmits first.
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


class Placement:
    """Node position in meters relative to the BNC.

    An implant must carry a tissue depth (`depth_m`; the loader checks its
    range) and an on-body node must not, but no computation reads it: path
    loss uses only the link class and the 3-D distance.

    A placement compares and hashes by identity, so the channel's link-budget
    memo key hashes in C; nothing compares placements by value.
    """

    __slots__ = ("kind", "x_m", "y_m", "z_m", "depth_m")

    def __init__(self, kind: PlacementKind = PlacementKind.ON_BODY, x_m: float = 0.0,
                 y_m: float = 0.0, z_m: float = 0.0, depth_m: float | None = None) -> None:
        if kind is PlacementKind.IN_BODY and depth_m is None:
            raise ValueError("in-body placement requires depth_m")
        if kind is not PlacementKind.IN_BODY and depth_m is not None:
            raise ValueError("depth_m only valid for in-body placement")
        self.kind = kind
        self.x_m = x_m
        self.y_m = y_m
        self.z_m = z_m
        self.depth_m = depth_m

    def distance_to(self, other: "Placement") -> float:
        return math.dist(
            (self.x_m, self.y_m, self.z_m), (other.x_m, other.y_m, other.z_m)
        )


class NodeProfile:
    """A BN's identity, placement, traffic class and wakeup pattern."""

    __slots__ = ("id", "placement", "traffic_class", "criticality", "wakeup_multiplier",
                 "payload_bits", "wakeup_receiver")

    def __init__(self, id: int, placement: Placement, payload_bits: int,
                 traffic_class: TrafficClass = TrafficClass.NORMAL_MEDIUM,
                 criticality: Criticality = Criticality.NON_CRITICAL,
                 wakeup_multiplier: int = 1, wakeup_receiver: bool = True) -> None:
        self.id = id
        self.placement = placement
        self.traffic_class = traffic_class
        self.criticality = criticality
        self.wakeup_multiplier = wakeup_multiplier  # node wakes every k-th superframe
        self.payload_bits = payload_bits
        self.wakeup_receiver = wakeup_receiver


class FrameKind(Enum):
    BEACON = "beacon"
    DATA = "data"
    ACK = "ack"
    WAKEUP_SIGNAL = "wakeup_signal"
    COMMAND = "command"


BROADCAST_ID = -1


class Frame:
    """One over-the-air unit.

    created_at marks generation; a data frame's latency runs from it to the
    end of its first reception.  Control frames (beacon, ack, wakeup signal)
    carry no traffic class.  Wakeup signals travel out of band and never
    enter the data channel.  `delivered` is set at a queued frame's first
    reception (`Simulation.receive`).
    """

    __slots__ = ("kind", "src", "dst", "size_bits", "traffic_class", "created_at",
                 "sequence", "payload", "retries", "delivered")

    def __init__(self, kind: FrameKind, src: int, dst: int, size_bits: int,
                 traffic_class: TrafficClass | None, created_at: SimTime, sequence: int,
                 payload: object = None) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bits = size_bits
        self.traffic_class = traffic_class
        self.created_at = created_at
        self.sequence = sequence
        self.payload = payload
        # Runtime bookkeeping, not part of the wire format.
        self.retries = 0
        self.delivered = False

    def queue_key(self) -> tuple[int, SimTime, int]:
        cls = self.traffic_class
        if cls is None:
            raise ValueError("only classed frames can be queued")
        return (_QUEUE_PRIORITY[cls], self.created_at, self.sequence)


def airtime(size_bits: int, bitrate_bps: int) -> SimTime:
    """Time on air in microseconds, rounded up to the next whole microsecond."""
    return -(-size_bits * 1_000_000 // bitrate_bps)


BASE_SLOT_SYMBOLS = 60
SLOTS_PER_SUPERFRAME = 16
UNIT_BACKOFF_SYMBOLS = 20
TURNAROUND_SYMBOLS = 12
ACK_WAIT_SYMBOLS = 54


class SuperframeConfig:
    """Beacon-interval / active-duration arithmetic, exact in microseconds.

    The timing values are computed once per config and then read as plain
    attributes (the hot CSMA paths read them per backoff slot).
    """

    __slots__ = ("beacon_order", "superframe_order", "symbol_rate_sps", "us_per_symbol",
                 "beacon_interval_us", "active_duration_us", "unit_backoff_us",
                 "turnaround_us", "ack_wait_us", "default_bitrate_bps")

    def __init__(self, beacon_order: int = 6, superframe_order: int = 6,
                 symbol_rate_sps: int = 62_500) -> None:
        if superframe_order > beacon_order:
            raise ValueError(f"need SO <= BO, got SO={superframe_order} BO={beacon_order}")
        self.beacon_order = beacon_order
        self.superframe_order = superframe_order
        self.symbol_rate_sps = symbol_rate_sps
        us = self.us_per_symbol = 1_000_000 // symbol_rate_sps
        base_us = BASE_SLOT_SYMBOLS * SLOTS_PER_SUPERFRAME * us  # aBaseSuperframeDuration
        self.beacon_interval_us = base_us * (1 << beacon_order)
        self.active_duration_us = base_us * (1 << superframe_order)
        self.unit_backoff_us = UNIT_BACKOFF_SYMBOLS * us
        self.turnaround_us = TURNAROUND_SYMBOLS * us
        self.ack_wait_us = ACK_WAIT_SYMBOLS * us
        self.default_bitrate_bps = symbol_rate_sps * 4  # 4 bits/symbol


class BeaconInfo:  # a beacon's payload, as a MAC's start_superframe returns it
    __slots__ = ("cap_anchor", "cap_end", "commands")

    def __init__(self, cap_anchor: SimTime, cap_end: SimTime, commands: tuple = ()) -> None:
        self.cap_anchor = cap_anchor  # first usable backoff boundary / slot-region start
        self.cap_end = cap_end
        self.commands = commands  # coordinator frames piggybacked under TDMA
