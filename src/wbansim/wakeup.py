"""Traffic-based wakeup patterns and wakeup-radio signaling.

Every node carries a wakeup multiplier k (`NodeProfile.wakeup_multiplier`)
and wakes on superframes whose index is a multiple of k (index 0 is the first
active one).  The coordinator's schedule is the union of the node schedules:
it sleeps whenever no node is due.  Nodes sharing a multiplier wake together
and contend for the channel.

The wakeup radio carries short out-of-band signals: node-to-coordinator for
emergencies, coordinator-to-node for on-demand queries.  A signal is a
`WAKEUP_SIGNAL` frame whose destination says which of the two it is: the
coordinator means an emergency.  Broadcast signaling wakes every
receiver-equipped node (the classic wakeup-radio limitation);
frequency-addressed signaling wakes exactly the intended target.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .core import BNC_ID

if TYPE_CHECKING:
    from collections.abc import Collection
    from fractions import Fraction


class Addressing(Enum):
    BROADCAST = "broadcast"
    FREQUENCY_ADDRESSED = "frequency_addressed"


class WakeupConfig:
    __slots__ = ("mode", "latency_us", "signal_airtime_us", "frequencies")

    def __init__(self, mode: Addressing = Addressing.BROADCAST, latency_us: int = 5_000,
                 signal_airtime_us: int = 1_000,
                 frequencies: dict[int, int] | None = None) -> None:
        self.mode = mode
        self.latency_us = latency_us            # receiver settle + decode
        self.signal_airtime_us = signal_airtime_us
        self.frequencies = frequencies  # node id -> wakeup tone, addressed mode


def is_awake(multiplier: int, superframe_index: int) -> bool:
    """True on every k-th superframe, first activation at index 0."""
    return superframe_index % multiplier == 0


def bnc_schedule(multipliers: Collection[int], horizon: int) -> set[int]:
    """Superframe indices within the horizon where the BNC must be active.

    The union of the per-node schedules; the BNC sleeps on every other
    superframe since no node can have traffic for it then.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    awake: set[int] = set()
    for k in multipliers:
        awake.update(range(0, horizon, k))
    return awake


def bnc_awake_fraction(multipliers: Collection[int]) -> Fraction:
    """Exact long-run awake fraction, evaluated over one full pattern period."""
    from fractions import Fraction  # imported here: no run needs it

    period = math.lcm(*multipliers)
    return Fraction(len(bnc_schedule(multipliers, period)), period)


def resolve_wakeup_targets(
    dst: int,
    receiver_nodes: list[int],
    config: WakeupConfig,
) -> list[int]:
    """Device ids a signal for `dst` reaches, before any loss draw.

    A signal for the BNC (an emergency) reaches the BNC.  Broadcast
    node-bound signals hit every BN with a wakeup receiver; the
    frequency-addressed mode narrows that to the single matching node.
    """
    if dst == BNC_ID:
        return [BNC_ID]
    if config.mode is Addressing.FREQUENCY_ADDRESSED:
        return [dst] if dst in receiver_nodes else []
    return sorted(receiver_nodes)
