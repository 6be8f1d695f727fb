"""Traffic-based wakeup table and wakeup-radio signaling.

Every node carries a wakeup multiplier k and wakes on superframes whose index
is a multiple of k (index 0 is the first active one).  The coordinator keeps
the per-node multipliers in a versioned table, derives its own schedule as
the union of the node schedules, and sleeps whenever no node is due.  Nodes
sharing a multiplier wake together and contend for the channel.

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

from .core import BNC_ID, NodeProfile

if TYPE_CHECKING:
    from fractions import Fraction


class WakeupTableError(ValueError):
    """Invalid table contents (duplicate node, bad multiplier, unknown node)."""


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


class WakeupTable:
    """Node id -> wakeup multiplier.

    The table is owned by the BNC; every modification bumps the version, and
    lookups happen at superframe boundaries, so a change takes effect on the
    following superframe.
    """

    def __init__(self, entries: dict[int, int], version: int = 0) -> None:
        self.version = version
        self._entries: dict[int, int] = dict(entries)

    def multiplier(self, node: int) -> int:
        try:
            return self._entries[node]
        except KeyError:
            raise WakeupTableError(f"node {node} has no wakeup-table entry") from None

    def update(self, node: int, multiplier: int) -> None:
        if node not in self._entries:
            raise WakeupTableError(f"node {node} has no wakeup-table entry")
        if multiplier < 1:
            raise WakeupTableError(f"node {node}: multiplier must be >= 1, got {multiplier}")
        self._entries[node] = multiplier
        self.version += 1


def build_table(profiles: list[NodeProfile]) -> WakeupTable:
    if not profiles:
        raise WakeupTableError("cannot build a wakeup table from an empty node list")
    entries: dict[int, int] = {}
    for p in profiles:
        if p.id in entries:
            raise WakeupTableError(f"duplicate node id {p.id}")
        if p.wakeup_multiplier < 1:
            raise WakeupTableError(
                f"node {p.id}: multiplier must be >= 1, got {p.wakeup_multiplier}"
            )
        entries[p.id] = p.wakeup_multiplier
    return WakeupTable(entries)


def is_awake(table: WakeupTable, node: int, superframe_index: int) -> bool:
    """True on every k-th superframe, first activation at index 0."""
    return superframe_index % table.multiplier(node) == 0


def bnc_schedule(table: WakeupTable, horizon: int) -> set[int]:
    """Superframe indices within the horizon where the BNC must be active.

    The union of the per-node schedules; the BNC sleeps on every other
    superframe since no node can have traffic for it then.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    awake: set[int] = set()
    for k in table._entries.values():
        awake.update(range(0, horizon, k))
    return awake


def bnc_awake_fraction(table: WakeupTable) -> Fraction:
    """Exact long-run awake fraction, evaluated over one full pattern period."""
    from fractions import Fraction  # imported here: no run needs it

    period = math.lcm(*table._entries.values())
    return Fraction(len(bnc_schedule(table, period)), period)


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
        if config.frequencies is None or dst not in config.frequencies:
            raise WakeupTableError(f"node {dst} has no wakeup frequency assignment")
        return [dst] if dst in receiver_nodes else []
    return sorted(receiver_nodes)
