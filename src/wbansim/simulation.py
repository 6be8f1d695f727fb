"""Run wiring: devices, superframe loop, wakeup-radio flows, accounting.

One Simulation owns one seeded run: a scheduler, a channel, a ledger and one
device record per BN plus the coordinator.  The MAC object (CSMA or TDMA)
drives channel access inside the active portion of each superframe; this
module owns everything around it: who is awake on which superframe, traffic
generation, the emergency and on-demand wakeup paths, who receives each
transmission, each frame's fate, and radio-state bookkeeping for the energy
figures.

Every event names the method it runs (see `engine.fire`).  The beacon is
built, sent and delivered here, for both MACs; it carries the `BeaconInfo`
the MAC's `start_superframe` returns (the CAP or the slot region, and the
commands).  A transmission's receivers (`ActiveTx.receivers`) are fixed when
it starts: a beacon's are its listeners, a unicast frame's is its
destination if that device was awake and not transmitting.  Each receiver
counts the frame as incoming until its end, when every receiver gets a
reception outcome.  A beacon's listener that receives it stays in rx until
its own RxEnd at that instant, where the MAC gets the `BeaconInfo`, sets its
facts and applies the rule.  The MAC is reached through five calls:
`start_superframe`, `on_beacon_received`, `offer` (a frame joins a queue),
`on_tx_end` (after each transmission's outcome) and `grant_emergency`.

A frame's fate is decided here alone.  The MAC reports a frame's reception
through `receive`, which counts only the first one: a data frame is
delivered.  It hands a frame back through `release` once it leaves the queue
for good: a data frame never received is dropped.  So every offered frame is
delivered, dropped or still queued, exactly once.

A device's low-power state is `wakeup_rx` when it carries an always-on wakeup
receiver and plain `sleep` otherwise; together with tx/rx/idle_listen this
partitions every microsecond of the run, per device.  Each `Device` holds its
own radio state, the time it entered it and the closed time per state; `run`
closes the last interval at the horizon.  `Simulation.set_state(dev, now)`
is the rule and the one transition, and reads three facts off the device: tx
while `tx_until > now`, otherwise rx while `incoming > 0`, otherwise
idle_listen while `now < hold_awake_until`, otherwise the sleep state.  Every
other site updates a fact and then calls it, as each TxEnd does for its
sender (`tx_until` is never reset).  The one hold, `hold_awake_until`, is
raised with `max` by two calls only; each files the hold's end as it raises
it, then applies the rule, so no caller does.  `hold(dev, until)` schedules
the end's own event: for the coordinator's active part (from each beacon it
sends, once on the air, to the CAP or slot region end), a CSMA CAP (for each
listener that receives its beacon), a TDMA emergency window (from its
opening, if it sends) and a spurious wake.  `hold_to_beacon(dev)` holds to
the next beacon, which applies the rule to each device filed under it, heard
or not: for a query (the coordinator, once its wakeup signal is on the air,
and the target) and a CSMA emergency grant.  A TDMA slot or window keeps
nothing on by itself: its frames start as it opens and follow each other at
once.

The wakeup radio is out of band and ideal apart from an optional loss draw.
A wakeup signal is a `WAKEUP_SIGNAL` frame that never enters the channel: its
sender is in tx for the signal's airtime, and at its TxEnd the simulation
resolves the devices it reaches (a signal for the coordinator is an
emergency) and draws each one's loss on the channel stream.  The frame's
payload is the emergency flow or on-demand entry the signal serves.  A node's
wakeup multiplier is read off its profile at each beacon.  Each continuous
query owns its stream: its arrival chain carries the stream's end and
interval, and its stop command, queued at that end, changes no count.

Handlers here and in the MACs read the clock once from `scheduler.now` and
call `scheduler.schedule` and `set_state` directly: these run on nearly every
event, so no further wrapper stands in between.
"""

from __future__ import annotations

import functools
import itertools
from bisect import insort
from collections import Counter

from . import traffic as traffic_mod
from .channel import ChannelModel
from .core import (
    BNC_ID,
    BROADCAST_ID,
    Criticality,
    Frame,
    FrameKind,
    NodeProfile,
    Placement,
    SimTime,
    TrafficClass,
    airtime,
)
from .engine import EventKind, RngStreams, Scheduler, fire
from .mac_csma import CsmaMac
from .mac_tdma import TdmaMac
from .metrics import MetricsLedger, RadioState
from .scenario import Scenario
from .traffic import ArrivalProcess, GeneratorSpec, OnDemandEntry
from .wakeup import is_awake, resolve_wakeup_targets

# Enum members read on the per-event paths, bound once as module names: on
# Python 3.11 every read off an Enum class runs `EnumType.__getattr__`'s
# slot hook, which costs about ten global reads.
BEACON_DUE, RX_END, SLOT_BOUNDARY = EventKind.BEACON_DUE, EventKind.RX_END, EventKind.SLOT_BOUNDARY
TRAFFIC_ARRIVAL, TX_END = EventKind.TRAFFIC_ARRIVAL, EventKind.TX_END
BEACON, DATA = FrameKind.BEACON, FrameKind.DATA
WAKEUP_SIGNAL = FrameKind.WAKEUP_SIGNAL
EMERGENCY, SATURATED = TrafficClass.EMERGENCY, ArrivalProcess.SATURATED
IDLE, RX, TX = RadioState.IDLE_LISTEN, RadioState.RX, RadioState.TX

EMERGENCY_RETRY_US = 10_000  # resend a lost emergency wakeup after this long
WAKEUP_SIGNAL_BITS = 8       # nominal; the signal airtime is configured directly


class PendingQueue(list):
    """Frame queue ordered by `Frame.queue_key`: (class priority, created_at,
    sequence).

    The list itself holds the `(queue_key, frame)` entries sorted, so `bool`
    and `len` are the list's own and `queue[0][1]` is the head frame.  Keys
    are unique (the sequence is); frames are found by identity.
    """

    __slots__ = ()

    def push(self, frame: Frame) -> None:
        insort(self, (frame.queue_key(), frame))

    def remove(self, frame: Frame) -> None:
        """Take `frame` out; a CSMA attempt's frame need not be the head."""
        for i, (_, f) in enumerate(self):
            if f is frame:
                del self[i]
                return
        raise ValueError("frame not queued")

    def drain(self) -> list[Frame]:
        out = [f for _, f in self]
        self.clear()
        return out

    def has_priority_le(self, priority: int) -> bool:
        return bool(self) and self[0][0][0] <= priority


class EmergencyFlow:
    __slots__ = ("frame", "granted")

    def __init__(self, frame: Frame, granted: bool = False) -> None:
        self.frame = frame  # its source is the emergency node
        self.granted = granted


class Device:
    """One BN or the coordinator during a run; every device starts the run in
    its sleep state with an empty queue."""

    __slots__ = ("id", "placement", "rng", "criticality", "sleep_state", "profile", "gen",
                 "queue", "incoming", "tx_until", "hold_awake_until", "grant_active",
                 "cap_anchor", "cap_end", "fsm", "contention_ev",
                 "backoff_remaining", "ack_ev", "attempt_frame", "attempt_us",
                 "slot_end", "state", "since", "state_us")

    def __init__(self, id: int, placement: Placement, rng: object, criticality: Criticality,
                 sleep_state: RadioState, profile: NodeProfile | None = None,
                 gen: GeneratorSpec | None = None) -> None:
        self.id = id
        self.placement = placement
        self.rng = rng
        self.criticality = criticality
        self.sleep_state = sleep_state
        self.profile = profile
        self.gen = gen
        self.queue = PendingQueue()
        self.incoming = 0  # frames on the air for this device, the beacon included
        self.tx_until = 0  # end of its last transmission; never reset
        # main radio on until then; raised only by Simulation.hold and
        # Simulation.hold_to_beacon, which file the hold's end and apply the rule
        self.hold_awake_until = 0
        self.grant_active = False
        # CSMA attempt state; the CAP it last joined: first backoff boundary, end
        self.cap_anchor = 0
        self.cap_end = 0
        self.fsm = None
        # the pending BackoffExpired or CcaDue entry; never cancelled
        self.contention_ev: list | None = None
        self.backoff_remaining: int | None = None
        # the pending AckTimeout entry, kept to cancel it; set exactly while
        # the attempt's frame is on the air or awaiting its ack
        self.ack_ev: list | None = None
        # the frame bound to the transceiver until its outcome: a CSMA
        # attempt's from its first backoff, a TDMA frame while on the air
        self.attempt_frame: Frame | None = None
        self.attempt_us = 0  # its acked transaction: data, turnaround, ack
        # TDMA slot state
        self.slot_end: SimTime = 0  # end of the last slot or emergency window it opened
        # Radio state: the current one, since when, and the closed time in us per
        # state (see Simulation.set_state).
        self.state = sleep_state
        self.since = 0
        self.state_us: dict[RadioState, SimTime] = {}


class Simulation:
    def __init__(self, scenario: Scenario, seed: int | None = None, trace_sink=None):
        self.scn = scenario
        self.seed = scenario.seed if seed is None else seed
        self.sf = scenario.superframe
        self.policy = scenario.backoff
        self.fp = scenario.frames
        self.wc = scenario.wakeup
        self.horizon_us = scenario.horizon_us

        self.scheduler = Scheduler()
        self.scheduler.trace_sink = trace_sink
        self.rngs = RngStreams(self.seed)
        self.channel = ChannelModel(scenario.channel_params, scenario.link_errors)
        self.ledger = MetricsLedger({n.profile.id: n.profile.traffic_class for n in scenario.nodes})
        self.next_seq = itertools.count(1).__next__  # frame sequence numbers
        # Airtime in us of a frame size, memoised on first use: a run sees a
        # handful of sizes and asks at each begin_tx and attempt's binding.
        self.air_us = functools.cache(functools.partial(airtime, bitrate_bps=self.fp.bitrate_bps))

        self.devices: dict[int, Device] = {}
        self.bnc = Device(
            id=BNC_ID, placement=scenario.bnc_placement, rng=self.rngs.node(BNC_ID),
            criticality=Criticality.CRITICAL, sleep_state=RadioState.WAKEUP_RX,
        )
        self.devices[BNC_ID] = self.bnc
        self.beacon_holds: dict[SimTime, list[Device]] = {}  # see hold_to_beacon
        for cfg in scenario.nodes:
            p = cfg.profile
            self.devices[p.id] = Device(
                id=p.id, placement=p.placement, rng=self.rngs.node(p.id),
                criticality=p.criticality,
                sleep_state=RadioState.WAKEUP_RX if p.wakeup_receiver else RadioState.SLEEP,
                profile=p, gen=cfg.generator,
            )
        self.node_ids = scenario.node_ids()
        self._receiver_nodes = [
            n for n in self.node_ids if self.devices[n].profile.wakeup_receiver
        ]

        if scenario.mac == "tdma":
            self.mac = TdmaMac(self, scenario.tdma)
        else:
            self.mac = CsmaMac(self)

        for kind in EventKind:
            self.scheduler.register(kind, fire)
        self._schedule_initial()

    # -- setup ------------------------------------------------------------------

    def _schedule_initial(self) -> None:
        schedule = self.scheduler.schedule
        schedule(0, BEACON_DUE, BNC_ID, self._on_beacon_due, (0,))
        for node_id in self.node_ids:
            dev = self.devices[node_id]
            if dev.gen is None:
                continue
            if dev.gen.arrival is SATURATED:
                self._offer_frame(dev, dev.profile.traffic_class)
            else:
                t0 = traffic_mod.first_arrival(dev.gen, dev.rng)
                if t0 <= self.horizon_us:
                    schedule(t0, TRAFFIC_ARRIVAL, node_id, self._on_arrival, (dev,))
        for entry in self.scn.on_demand:
            schedule(entry.time_us, TRAFFIC_ARRIVAL, BNC_ID, self._start_query, (entry,))
        schedule(self.horizon_us, EventKind.MEASUREMENT_TICK, None, _horizon_mark)

    def run(self) -> MetricsLedger:
        """Run to the horizon and hand back the ledger.  The finished run
        drops the events left pending and the MAC's reference back to the
        simulation, so no reference cycle is left and reference counting
        frees the simulation with its last user."""
        horizon = self.horizon_us
        self.scheduler.run_until(horizon)
        self.scheduler.clear()
        self.mac.sim = None
        for dev in self.devices.values():  # close each last interval
            us = dev.state_us
            us[dev.state] = us.get(dev.state, 0) + horizon - dev.since
            dev.since = horizon
            self.ledger.state_us[dev.id] = Counter(us)
        return self.ledger

    # -- small helpers -------------------------------------------------------------

    def set_state(self, dev: Device, now: SimTime) -> None:
        """The radio-state rule (see the module docstring); a change closes the
        current interval at `now`."""
        if dev.tx_until > now:
            state = TX
        elif dev.incoming:
            state = RX
        elif now < dev.hold_awake_until:
            state = IDLE
        else:
            state = dev.sleep_state
        prev = dev.state
        if state is prev:
            return
        us = dev.state_us
        us[prev] = us.get(prev, 0) + now - dev.since
        dev.state = state
        dev.since = now

    # -- superframe loop --------------------------------------------------------------

    def _on_beacon_due(self, sf_index: int) -> None:
        ledger = self.ledger
        ledger.total_superframes += 1
        devices = self.devices
        now = self.scheduler.now
        listeners = []
        for node_id in self.node_ids:
            dev = devices[node_id]
            # The pattern is asked for every node, granted or not.
            if is_awake(dev.profile.wakeup_multiplier, sf_index) or dev.grant_active:
                listeners.append(dev)
                ledger.node_awake_superframes[node_id] += 1
        if listeners:
            ledger.bnc_awake_superframes += 1
            info = self.mac.start_superframe(now)
            beacon = Frame(BEACON, BNC_ID, BROADCAST_ID, self.fp.beacon_bits, None, now,
                           self.next_seq(), info)
            self.begin_tx(self.bnc, beacon, now, listeners)
            self.hold(self.bnc, info.cap_end)  # awake through the CAP or the slot region
        for dev in self.beacon_holds.pop(now, ()):  # holds that end at this beacon
            self.set_state(dev, now)
        next_t = (sf_index + 1) * self.sf.beacon_interval_us
        if next_t < self.horizon_us:
            self.scheduler.schedule(next_t, BEACON_DUE, BNC_ID,
                                    self._on_beacon_due, (sf_index + 1,))

    # -- transmissions -------------------------------------------------------------------

    def begin_tx(self, dev: Device, frame: Frame, start: SimTime, listeners: list = ()):
        """Put `frame` on the air at `start`; a beacon's receivers are `listeners`."""
        tx = self.channel.register_tx(frame, dev.placement, start, self.air_us(frame.size_bits))
        tx.receivers = listeners
        schedule = self.scheduler.schedule
        if start <= self.scheduler.now:
            self._tx_started(dev, tx)
        else:
            schedule(start, SLOT_BOUNDARY, dev.id, self._tx_started, (dev, tx))
        schedule(tx.end, TX_END, frame.src, self._on_tx_end, (tx,))
        return tx

    def _tx_started(self, dev: Device, tx) -> None:
        now = self.scheduler.now
        if tx.end > dev.tx_until:
            dev.tx_until = tx.end
        self.set_state(dev, now)
        frame = tx.frame
        if frame.dst >= 0:  # unicast; a beacon's receivers are its listeners
            ddev = self.devices[frame.dst]
            if ddev.state is not ddev.sleep_state and ddev.tx_until <= now:
                tx.receivers = (ddev,)
        for ddev in tx.receivers:
            ddev.incoming += 1
            self.set_state(ddev, now)

    def _on_tx_end(self, tx) -> None:
        """Each receiver gets its reception outcome and leaves rx.  Each of a
        beacon's listeners receives it on its own, at its RxEnd (the
        coordinator, out of tx now, stays awake through its CAP or slot
        region); a unicast frame's outcome goes to the MAC as `delivered`."""
        now = self.scheduler.now
        frame = tx.frame
        self.channel.end_tx(tx)
        src = self.devices[frame.src]
        self.set_state(src, now)
        loss_reasons = self.ledger.loss_reasons
        deliver, rng = self.channel.deliver, self.rngs.channel
        beacon = frame.kind is BEACON
        delivered = False
        for ddev in tx.receivers:
            ddev.incoming -= 1
            outcome = deliver(tx, ddev.placement, rng, ddev.id)
            if beacon and outcome is None:
                # It stays in rx until this RxEnd, which applies the rule
                # once the MAC has set its facts.
                self.scheduler.schedule(now, RX_END, ddev.id,
                                        self.mac.on_beacon_received, (ddev, frame.payload))
                continue
            self.set_state(ddev, now)
            if beacon:
                loss_reasons[f"beacon_{outcome.value}"] += 1
            elif outcome is None:
                delivered = True
            else:
                loss_reasons[outcome.value] += 1
        if not tx.receivers:  # never a beacon: it has a listener
            loss_reasons["destination_not_listening"] += 1
        self.mac.on_tx_end(src, tx, delivered)

    # -- traffic -----------------------------------------------------------------------------

    def _offer_frame(self, dev: Device, cls: TrafficClass) -> Frame:
        frame = Frame(DATA, dev.id, BNC_ID, dev.profile.payload_bits, cls,
                      self.scheduler.now, self.next_seq())
        self.ledger.offered[(dev.id, cls)] += 1
        self.mac.offer(dev, frame)
        return frame

    def _on_arrival(self, dev: Device) -> None:
        frame = self._offer_frame(dev, dev.profile.traffic_class)
        if frame.traffic_class is EMERGENCY:
            self._send_emergency_signal(EmergencyFlow(frame))
        nxt = traffic_mod.next_arrival(dev.gen, self.scheduler.now, dev.rng)
        if nxt <= self.horizon_us:
            self.scheduler.schedule(nxt, TRAFFIC_ARRIVAL, dev.id, self._on_arrival, (dev,))

    def _on_stream_arrival(self, dev: Device, until: SimTime, interval_us: SimTime) -> None:
        """One frame of a continuous query's stream; the stream's next frame
        follows while it is still before `until`."""
        self._offer_frame(dev, TrafficClass.ON_DEMAND_CONTINUOUS)
        nxt = self.scheduler.now + interval_us
        if nxt < until:
            self.scheduler.schedule(nxt, TRAFFIC_ARRIVAL, dev.id, self._on_stream_arrival,
                                    (dev, until, interval_us))

    # -- a frame's fate ----------------------------------------------------------------------

    def receive(self, frame: Frame) -> None:
        """`frame` was received now.  Only the first reception counts: a
        data frame is delivered, with its latency from creation.  A stop
        command changes nothing more: its stream ended when it was sent."""
        if frame.delivered:
            return
        frame.delivered = True
        if frame.kind is DATA:
            self.ledger.add_delivered(frame.src, frame.traffic_class,
                                      self.scheduler.now - frame.created_at)

    def release(self, dev: Device, frame: Frame) -> None:
        """`frame` leaves `dev`'s queue for good.  A data frame never received
        is dropped; a saturated source offers its next frame, and a grant
        ends once no on-demand or emergency frame waits."""
        dev.queue.remove(frame)
        if not frame.delivered and frame.kind is DATA:
            self.ledger.add_dropped(frame.src, frame.traffic_class)
        cls, gen = frame.traffic_class, dev.gen
        if gen is not None and gen.arrival is SATURATED and cls is dev.profile.traffic_class:
            self._offer_frame(dev, cls)
        if dev.grant_active and not dev.queue.has_priority_le(1):
            dev.grant_active = False

    # -- wakeup-radio paths ------------------------------------------------------------------

    def _send_signal(self, dev: Device, dst: int, ctx) -> None:
        """Send a wakeup signal for `dst`; its frame's payload `ctx` is the
        emergency flow or the on-demand entry it serves."""
        now = self.scheduler.now
        self.ledger.wakeup_signals_sent[dev.id] += 1
        sig = Frame(
            kind=WAKEUP_SIGNAL, src=dev.id, dst=dst,
            size_bits=WAKEUP_SIGNAL_BITS, traffic_class=None,
            created_at=now, sequence=self.next_seq(), payload=ctx,
        )
        end = now + self.wc.signal_airtime_us
        dev.tx_until = max(dev.tx_until, end)
        self.set_state(dev, now)
        self.scheduler.schedule(end, TX_END, dev.id, self._on_wakeup_signal_end, (sig,))

    def _send_emergency_signal(self, flow: EmergencyFlow) -> None:
        node_id = flow.frame.src
        self._send_signal(self.devices[node_id], BNC_ID, flow)
        retry_at = self.scheduler.now + EMERGENCY_RETRY_US
        self.scheduler.schedule(retry_at, EventKind.WAKEUP_DUE, node_id,
                                self._retry_emergency, (flow,))

    def _retry_emergency(self, flow: EmergencyFlow) -> None:
        if not flow.granted:
            self._send_emergency_signal(flow)

    def _start_query(self, entry: OnDemandEntry) -> None:
        self._send_signal(self.bnc, entry.target, entry)
        self.hold_to_beacon(self.bnc)

    def _enqueue_stop(self, target: int) -> None:
        cmd = Frame(
            kind=FrameKind.COMMAND, src=BNC_ID, dst=target,
            size_bits=self.fp.command_bits,
            traffic_class=TrafficClass.ON_DEMAND_NON_CONTINUOUS,
            created_at=self.scheduler.now, sequence=self.next_seq(), payload=("stop",),
        )
        self.mac.offer(self.bnc, cmd)

    def _on_wakeup_signal_end(self, sig: Frame) -> None:
        """Each device the signal reaches survives the optional loss draw or
        not, in target order; a survivor acts after its wakeup latency if its
        main radio was off."""
        now = self.scheduler.now
        self.set_state(self.devices[sig.src], now)
        ctx, dst = sig.payload, sig.dst
        loss_p = self.channel.params.wakeup_loss_p
        for device_id in resolve_wakeup_targets(dst, self._receiver_nodes, self.wc):
            if loss_p > 0.0 and self.rngs.channel.random() < loss_p:
                self.ledger.loss_reasons["wakeup_signal_lost"] += 1
                continue
            dev = self.devices[device_id]
            delay = 0 if dev.state is not dev.sleep_state else self.wc.latency_us
            if device_id != dst:
                fn, args = self._spurious_wake, (dev,)
            elif dst == BNC_ID:
                fn, args = self._grant_emergency, (dev, ctx)
            else:
                fn, args = self._answer_query, (dev, ctx)
            self.scheduler.schedule(now + delay, EventKind.WAKEUP_DUE, device_id, fn, args)

    def hold(self, dev: Device, until: SimTime) -> None:
        """Hold `dev` awake to `until`, whose own event applies the rule to
        it, and apply the rule now."""
        dev.hold_awake_until = max(dev.hold_awake_until, until)
        self.scheduler.schedule(until, SLOT_BOUNDARY, dev.id, self.set_state, (dev, until))
        self.set_state(dev, self.scheduler.now)

    def hold_to_beacon(self, dev: Device) -> None:
        """Hold `dev` to the next beacon boundary, whose BeaconDue applies the
        rule to it (a query at a beacon's own instant holds to the one after),
        and apply the rule now."""
        now = self.scheduler.now
        interval = self.sf.beacon_interval_us
        boundary = (now // interval + 1) * interval
        dev.hold_awake_until = max(dev.hold_awake_until, boundary)
        self.beacon_holds.setdefault(boundary, []).append(dev)
        self.set_state(dev, now)

    def _grant_emergency(self, bnc: Device, flow: EmergencyFlow) -> None:
        if flow.granted:
            return
        flow.granted = True
        self.mac.grant_emergency(self.devices[flow.frame.src], flow)

    def _spurious_wake(self, dev: Device) -> None:
        self.ledger.spurious_wakeups[dev.id] += 1
        self.hold(dev, self.scheduler.now + self.sf.active_duration_us)

    def _answer_query(self, dev: Device, entry: OnDemandEntry) -> None:
        now = self.scheduler.now
        dev.grant_active = True
        self.hold_to_beacon(dev)
        if entry.continuous:
            until = now + entry.duration_us
            self.scheduler.schedule(now, TRAFFIC_ARRIVAL, dev.id, self._on_stream_arrival,
                                    (dev, until, entry.interval_us))
            self.scheduler.schedule(until, TRAFFIC_ARRIVAL, BNC_ID, self._enqueue_stop, (dev.id,))
        else:
            self._offer_frame(dev, TrafficClass.ON_DEMAND_NON_CONTINUOUS)


def _horizon_mark() -> None:
    """The horizon's MeasurementTick only marks the end of the run in the trace."""
