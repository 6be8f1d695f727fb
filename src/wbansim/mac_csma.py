"""Beacon-enabled slotted CSMA/CA with criticality-differentiated backoff.

The coordinator beacons every beacon interval; awake nodes contend during the
active portion using the slotted algorithm: random backoff in unit backoff
periods, two clear CCAs at consecutive backoff boundaries, binary exponential
escalation on busy, channel-access failure after too many attempts.  Critical
nodes start from a smaller backoff exponent than non-critical ones
(min_be_critical <= min_be_noncritical), which is what buys them lower
latency under contention.

Transactions are acknowledged: a missing ack restarts the CSMA procedure with
fresh backoff state, up to max_frame_retries, after which the frame drops
(an emergency frame the coordinator has not received refills its budget).
The loader lets an ack end only before the ack wait.

The beacon carries the `BeaconInfo` that `start_superframe` returns: the
first backoff boundary past the beacon and the CAP end.  A listener that
receives it is held awake to that end, like the coordinator, and contends
only before it.  At the end of the CAP (IEEE Std 802.15.4-2006, 7.5.1.4), a
countdown that would cross it carries its remaining periods to the next CAP,
and an attempt whose two CCAs and acked transaction do not fit waits for the
next CAP.
"""

from __future__ import annotations

import random
from enum import Enum

from .core import (
    BeaconInfo,
    Criticality,
    Frame,
    FrameKind,
    SimTime,
    TrafficClass,
)
from .channel import CcaResult
from .engine import EventKind

# Enum members read on the per-event paths, bound once (see simulation.py).
ACK_TIMEOUT, BACKOFF_EXPIRED, CCA_DUE = (
    EventKind.ACK_TIMEOUT, EventKind.BACKOFF_EXPIRED, EventKind.CCA_DUE)
RX_END = EventKind.RX_END
BUSY, CRITICAL, EMERGENCY = CcaResult.BUSY, Criticality.CRITICAL, TrafficClass.EMERGENCY
ACK, BEACON = FrameKind.ACK, FrameKind.BEACON


class BackoffPolicy:
    __slots__ = ("min_be_critical", "min_be_noncritical", "max_be", "max_csma_backoffs",
                 "max_frame_retries")

    def __init__(self, min_be_critical: int = 2, min_be_noncritical: int = 4,
                 max_be: int = 5, max_csma_backoffs: int = 4,
                 max_frame_retries: int = 3) -> None:
        if not 0 <= min_be_critical <= min_be_noncritical <= max_be:
            raise ValueError(
                "need 0 <= min_be_critical <= min_be_noncritical <= max_be, got "
                f"{min_be_critical}/{min_be_noncritical}/{max_be}"
            )
        self.min_be_critical = min_be_critical
        self.min_be_noncritical = min_be_noncritical
        self.max_be = max_be
        self.max_csma_backoffs = max_csma_backoffs
        self.max_frame_retries = max_frame_retries

    def min_be(self, criticality: Criticality) -> int:
        if criticality is CRITICAL:
            return self.min_be_critical
        return self.min_be_noncritical


def backoff_draw(be: int, rng: random.Random) -> int:
    """Uniform draw in [0, 2^BE - 1] unit backoff periods; the backoff FSM
    keeps BE within [min_be, max_be].

    It makes exactly the `getrandbits` calls `rng.randrange(1 << be)` makes
    (BE + 1 bits, redrawn until below 2^BE), so streams and values match
    randrange's, without its two Python frames per draw.
    """
    n = 1 << be
    r = rng.getrandbits(be + 1)
    while r >= n:
        r = rng.getrandbits(be + 1)
    return r


class CsmaAction(Enum):
    SECOND_CCA = "second_cca"
    TRANSMIT = "transmit"
    NEW_BACKOFF = "new_backoff"
    FAILURE = "failure"


SECOND_CCA, TRANSMIT, NEW_BACKOFF, FAILURE = (
    CsmaAction.SECOND_CCA, CsmaAction.TRANSMIT, CsmaAction.NEW_BACKOFF, CsmaAction.FAILURE)

class CsmaBackoffFsm:
    """NB/BE/CW core of the slotted algorithm, one instance per frame attempt.

    Busy CCA: CW back to 2, NB+1, BE escalates toward max_be, failure once NB
    exceeds max_csma_backoffs.  Idle CCA: CW-1, transmit after two in a row.
    """

    def __init__(self, policy: BackoffPolicy, criticality: Criticality) -> None:
        self.policy = policy
        self.criticality = criticality
        self.nb = 0
        self.cw = 2
        self.be = policy.min_be(criticality)

    def on_cca(self, busy: bool) -> CsmaAction:
        if busy:
            self.cw = 2
            self.nb += 1
            if self.be < self.policy.max_be:  # BE never exceeds max_be
                self.be += 1
            if self.nb > self.policy.max_csma_backoffs:
                return FAILURE
            return NEW_BACKOFF
        self.cw -= 1
        if self.cw == 0:
            return TRANSMIT
        return SECOND_CCA


class CsmaMac:
    """Contention logic for one run; device bookkeeping lives on sim.devices.

    The policy, the scheduler, the channel, the CCA threshold and the unit
    backoff period are fixed for the run, so they are bound once here for the
    per-CCA and per-backoff handlers.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.policy = sim.policy
        self.scheduler = sim.scheduler
        self.channel = sim.channel
        self.cca_threshold_dbm = sim.channel.params.cca_threshold_dbm
        ubp = self.ubp = sim.sf.unit_backoff_us
        # into each superframe: the first backoff boundary past the beacon
        self.anchor_us = -(-sim.air_us(sim.fp.beacon_bits) // ubp) * ubp

    # -- superframe lifecycle -------------------------------------------------

    def start_superframe(self, t_b: SimTime) -> BeaconInfo:
        """Open the coordinator's CAP; returns the record its beacon carries."""
        info = BeaconInfo(t_b + self.anchor_us, t_b + self.sim.sf.active_duration_us)
        bnc = self.sim.bnc
        bnc.cap_anchor, bnc.cap_end = info.cap_anchor, info.cap_end
        return info

    def on_beacon_received(self, dev, info: BeaconInfo) -> None:
        """The listener joins the CAP and is held to its end, where nothing of
        an attempt is pending: a backoff expiry is scheduled only before the
        CAP end, and a first CCA only if both CCAs and the acked transaction
        end by it."""
        dev.cap_anchor, dev.cap_end = info.cap_anchor, info.cap_end
        self.sim.hold(dev, info.cap_end)
        self.try_start(dev)

    def grant_emergency(self, node, flow) -> None:
        """Channel access is granted at the next beacon, top priority."""
        node.grant_active = True
        self.sim.hold_to_beacon(self.sim.bnc)

    # -- contention -----------------------------------------------------------

    def offer(self, dev, frame: Frame) -> None:
        dev.queue.push(frame)
        self.try_start(dev)

    def try_start(self, dev) -> None:
        now = self.scheduler.now
        if (
            now >= dev.cap_end
            or dev.ack_ev is not None
            or dev.contention_ev is not None
            or not dev.queue
        ):
            return
        if dev.attempt_frame is None:
            # One frame is bound to the transceiver for the whole attempt;
            # higher-priority arrivals wait for it to resolve.
            frame = dev.attempt_frame = dev.queue[0][1]
            sim = self.sim
            dev.attempt_us = (sim.air_us(frame.size_bits) + sim.sf.turnaround_us
                              + sim.air_us(sim.fp.ack_bits))
        fsm = dev.fsm
        if fsm is None:
            fsm = dev.fsm = CsmaBackoffFsm(self.policy, dev.criticality)
        if dev.backoff_remaining is not None:
            periods = dev.backoff_remaining
            dev.backoff_remaining = None
        else:
            periods = backoff_draw(fsm.be, dev.rng)
        self._schedule_countdown(dev, periods, now)

    def _schedule_countdown(self, dev, periods: int, from_t: SimTime) -> None:
        ubp = self.ubp
        anchor = dev.cap_anchor
        b0 = from_t if from_t > anchor else anchor
        off = (b0 - anchor) % ubp
        if off:
            b0 += ubp - off
        expiry = b0 + periods * ubp
        if expiry >= dev.cap_end:
            consumed = max(0, (dev.cap_end - b0) // ubp)
            dev.backoff_remaining = periods - consumed
            return  # countdown resumes in the next CAP this device joins
        dev.contention_ev = self.scheduler.schedule(
            expiry, BACKOFF_EXPIRED, dev.id, self.on_backoff_expired, (dev,))

    def on_backoff_expired(self, dev) -> None:
        scheduler = self.scheduler
        now = scheduler.now
        dev.contention_ev = None
        # Both CCA slots plus the full acked transaction must fit in the CAP.
        if now + 2 * self.ubp + dev.attempt_us > dev.cap_end:
            dev.backoff_remaining = 0
            return
        dev.contention_ev = scheduler.schedule(now, CCA_DUE, dev.id, self.on_cca_due, (dev,))

    def on_cca_due(self, dev) -> None:
        now = self.scheduler.now
        dev.contention_ev = None
        fsm = dev.fsm
        action = fsm.on_cca(
            self.channel.cca_energy_detect(dev.placement, self.cca_threshold_dbm, now) is BUSY)
        ubp = self.ubp
        if action is SECOND_CCA:
            dev.contention_ev = self.scheduler.schedule(now + ubp, CCA_DUE, dev.id,
                                                        self.on_cca_due, (dev,))
        elif action is TRANSMIT:
            self._start_transaction(dev, now + ubp)
        elif action is NEW_BACKOFF:
            periods = backoff_draw(fsm.be, dev.rng)
            self._schedule_countdown(dev, periods, now + ubp)
        else:  # channel access failure: the frame never made it onto the air
            self.sim.ledger.loss_reasons["channel_access_failure"] += 1
            self._give_up(dev)

    def _start_transaction(self, dev, tx_start: SimTime) -> None:
        sim = self.sim
        frame = dev.attempt_frame
        tx = sim.begin_tx(dev, frame, tx_start)
        dev.ack_ev = self.scheduler.schedule(tx.end + sim.sf.ack_wait_us, ACK_TIMEOUT,
                                             dev.id, self.on_ack_timeout, (dev, frame))

    # -- transaction completion ------------------------------------------------

    def on_tx_end(self, src, tx, delivered: bool) -> None:
        """After a beacon the coordinator contends for its own frames; a
        delivered ack or data frame is received at once."""
        frame = tx.frame
        kind = frame.kind
        if kind is BEACON:
            self.try_start(src)
        elif delivered:
            now = self.scheduler.now
            dst = self.sim.devices[frame.dst]
            if kind is ACK:
                self.scheduler.schedule(now, RX_END, dst.id, self.on_ack_received, (dst, frame))
            else:
                self.scheduler.schedule(now, RX_END, dst.id, self.on_data_received, (dst, frame))

    def on_data_received(self, dev, frame: Frame) -> None:
        """Destination side: the simulation takes the frame, and every
        reception is acknowledged."""
        sim = self.sim
        now = self.scheduler.now
        sim.receive(frame)
        ack = Frame(
            kind=ACK,
            src=dev.id,
            dst=frame.src,
            size_bits=sim.fp.ack_bits,
            traffic_class=None,
            created_at=now,
            sequence=frame.sequence,
        )
        sim.begin_tx(dev, ack, now + sim.sf.turnaround_us)

    def on_ack_received(self, dev, ack: Frame) -> None:
        # The ack is the attempt's own and its timeout still pending: the
        # loader lets an ack end only before the ack wait does.
        self.scheduler.cancel(dev.ack_ev)
        dev.ack_ev = None
        self._finish_frame(dev)

    def on_ack_timeout(self, dev, frame: Frame) -> None:
        dev.ack_ev = None
        frame.retries += 1
        if frame.retries > self.policy.max_frame_retries:
            self._give_up(dev)
            return
        dev.fsm = None  # retry restarts CSMA with fresh NB/BE
        self.try_start(dev)

    def _give_up(self, dev) -> None:
        """The attempt is out of retries or out of channel access.  An
        emergency frame the coordinator has not received is never abandoned:
        its retry budget refills and the node keeps contending (it stays
        awake while the frame queues).  Any other frame is finished."""
        frame = dev.attempt_frame
        if frame.traffic_class is not EMERGENCY or frame.delivered:
            self._finish_frame(dev)
            return
        frame.retries = 0
        dev.fsm = None
        self.sim.ledger.loss_reasons["emergency_retry_refill"] += 1
        self.try_start(dev)

    def _finish_frame(self, dev) -> None:
        """The attempt's frame is done: acked, out of retries or out of
        channel access.  The simulation decides what that means for it."""
        frame = dev.attempt_frame
        dev.attempt_frame = None
        dev.fsm = None
        self.sim.release(dev, frame)
        self.try_start(dev)
