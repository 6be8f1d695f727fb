"""TDMA alternative: one dedicated data slot per node, gated by wakeup pattern.

A node's slot exists in every superframe but is only *active* on superframes
selected by its wakeup multiplier (index 0 counts as active); frames arriving
in between queue until the next active superframe.  Slot transmissions are
contention-free and unacknowledged: a loss is final and counts against PDR.

Emergency traffic bypasses slot gating entirely via the wakeup radio; the
coordinator grants it a dedicated window in a superframe's free part, from
the end of the beacon and the slot region to the next beacon, after any
window already granted (`grant_emergency`).  So a window never meets a slot,
a beacon or another window, and no slot has to yield to one.  A window opens
like a slot: the node sends its head frame if that fits, and only while no
frame of its own is on the air (`attempt_frame`).  The loader makes every
emergency frame fit in the free part.  The coordinator is held awake from
the window's opening, not from the grant, to its end, if the node has a
frame to send.  Coordinator commands (e.g. stream stop) piggyback on
beacons rather than taking airtime from the slot region.

The simulation builds, sends and delivers the beacon for both MACs, and holds
the coordinator awake through the slot region; this module returns the
beacon's `BeaconInfo` (the slot region and the queued commands), turns its
reception into a slot start event and runs the slot.  There is no backoff,
CCA or ack here: an offered frame just queues, data for its slot and
commands for the next beacon.
"""

from __future__ import annotations

from .core import BeaconInfo, FrameKind, SimTime
from .engine import EventKind

# Enum members read on the per-event paths, bound once (see simulation.py).
SLOT_BOUNDARY, BEACON = EventKind.SLOT_BOUNDARY, FrameKind.BEACON


class TdmaSchedule:
    """Static slot assignment from the scenario; no dynamic slot trading."""

    __slots__ = ("slots", "slot_duration_us", "slots_per_superframe")

    def __init__(self, slots: dict[int, int], slots_per_superframe: int,
                 slot_duration_us: SimTime = 4_000) -> None:
        seen: dict[int, int] = {}
        for node, idx in slots.items():
            if not 0 <= idx < slots_per_superframe:
                raise ValueError(f"node {node}: slot index {idx} out of range")
            if idx in seen:
                raise ValueError(f"slot {idx} assigned to both node {seen[idx]} and node {node}")
            seen[idx] = node
        self.slots = slots  # node id -> slot index
        self.slot_duration_us = slot_duration_us
        self.slots_per_superframe = slots_per_superframe

    def slot_offset_us(self, node: int) -> SimTime:
        return self.slots[node] * self.slot_duration_us

    @property
    def region_us(self) -> SimTime:
        return self.slots_per_superframe * self.slot_duration_us


class TdmaMac:
    """Slot logic for one run.  The scheduler, the coordinator, the airtime
    memo, the beacon's airtime, each node's slot offset, the region length and
    where the free part starts are fixed for the run, so they are bound once
    here for the per-slot handlers."""

    def __init__(self, sim, schedule: TdmaSchedule) -> None:
        self.sim = sim
        self.scheduler = sim.scheduler
        self.bnc = sim.bnc
        self.air_us = sim.air_us
        self.beacon_us = sim.air_us(sim.fp.beacon_bits)
        self.slot_offsets = {node: schedule.slot_offset_us(node) for node in schedule.slots}
        self.slot_us = schedule.slot_duration_us
        self.region_us = schedule.region_us
        self.free_start = self.beacon_us + self.region_us  # into each beacon interval
        self.interval_us = sim.sf.beacon_interval_us
        self.window_end = 0  # end of the last emergency window granted

    # -- superframe lifecycle -------------------------------------------------

    def start_superframe(self, t_b: SimTime) -> BeaconInfo:
        """Returns the record the beacon carries: the slot region and the
        queued commands."""
        region_start = t_b + self.beacon_us
        queue = self.bnc.queue
        return BeaconInfo(region_start, region_start + self.region_us,
                          tuple(queue.drain()) if queue else ())

    def offer(self, dev, frame) -> None:
        dev.queue.push(frame)

    def grant_emergency(self, node, flow) -> None:
        """A dedicated response window after the last one granted, in the
        free part of this superframe or, if it would start before that part
        or cross the next beacon, of the next one."""
        start = max(self.scheduler.now, self.window_end)
        air = self.air_us(flow.frame.size_bits)
        into = start % self.interval_us
        if into < self.free_start or into + air > self.interval_us:
            start += (self.free_start - into) % self.interval_us  # this or the next one's
        self.window_end = end = start + air
        self.scheduler.schedule(start, SLOT_BOUNDARY, node.id, self._open_window, (node, end))

    def _open_window(self, dev, window_end: SimTime) -> None:
        """An emergency window opens.  If the node has a frame to send, the
        coordinator is held from here, not from the grant, to the window's end,
        and the frame starts only after that, so the coordinator receives it."""
        if dev.queue:
            self.sim.hold(self.bnc, window_end)
        self.on_slot_start(dev, window_end)

    def on_beacon_received(self, dev, info: BeaconInfo) -> None:
        sim = self.sim
        for command in info.commands:
            if command.dst == dev.id:
                sim.receive(command)
        now = self.scheduler.now
        sim.set_state(dev, now)
        if not dev.queue:
            return
        slot_start = max(now, info.cap_anchor + self.slot_offsets[dev.id])
        slot_end = slot_start + self.slot_us
        self.scheduler.schedule(slot_start, SLOT_BOUNDARY, dev.id,
                                self.on_slot_start, (dev, slot_end))

    # -- slot transmissions -----------------------------------------------------

    def on_slot_start(self, dev, slot_end: SimTime) -> None:
        """A slot or an emergency window opens until `slot_end`."""
        dev.slot_end = slot_end
        self._tx_next(dev)

    def _tx_next(self, dev) -> None:
        """Send the head frame if no frame of the node is on the air and it
        fits before the slot or window ends; an empty queue, or a head that
        overruns it, waits for the next active superframe."""
        if dev.queue and dev.attempt_frame is None:
            now = self.scheduler.now
            frame = dev.queue[0][1]
            if now + self.air_us(frame.size_bits) <= dev.slot_end:
                dev.attempt_frame = frame
                self.sim.begin_tx(dev, frame, now)

    def on_tx_end(self, dev, tx, delivered: bool) -> None:
        """A slot or window transmission ends, and its frame with it: there
        is no retry.  A beacon needs nothing more."""
        frame = tx.frame
        if frame.kind is BEACON:
            return
        sim = self.sim
        dev.attempt_frame = None
        if delivered:
            sim.receive(frame)
        sim.release(dev, frame)
        self._tx_next(dev)
