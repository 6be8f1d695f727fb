"""Deterministic discrete-event scheduler.

Events fire in (fire_at, insertion order) order; ties at the same instant are
resolved strictly by insertion, so a run's event trace is a pure function of
(scenario, seed).  Scheduling into the past is a fatal logic error.

Dispatch contract: an event carries its own callback and arguments, and
firing it means calling `ev.fn(*ev.args)` (see `fire`).  Its `EventKind` and
`node` do not steer anything; they label the event in the trace, and the
kind is the key a handler is registered under, so dispatches can be counted
and timed per kind.

The scheduler remembers the last 32 dispatched events and formats them as
`<fire_at> <kind> <node or ->` lines only when a handler raises, so the
trace tail costs one deque append per event.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .core import SimTime


class SchedulingError(RuntimeError):
    """Raised when an event is scheduled before the current clock."""


class RunAborted(RuntimeError):
    """A dispatcher raised; the message carries the tail of the event trace."""


class EventKind(Enum):
    BEACON_DUE = "BeaconDue"
    BACKOFF_EXPIRED = "BackoffExpired"
    CCA_DUE = "CcaDue"
    TX_END = "TxEnd"
    RX_END = "RxEnd"
    TRAFFIC_ARRIVAL = "TrafficArrival"
    WAKEUP_DUE = "WakeupDue"
    SLOT_BOUNDARY = "SlotBoundary"
    ACK_TIMEOUT = "AckTimeout"
    MEASUREMENT_TICK = "MeasurementTick"

    # Members are singletons: hash by identity, not by the Python-level
    # `Enum.__hash__` (name hash), which no output depends on.
    __hash__ = object.__hash__


@dataclass(slots=True)
class Event:
    fire_at: SimTime
    kind: EventKind
    node: int | None = None  # acting device id, None for run-level events
    fn: Callable[..., None] | None = None  # what firing the event does
    args: tuple = ()
    seq: int = field(default=-1, init=False)  # insertion counter, set by schedule()
    cancelled: bool = field(default=False, init=False)


def fire(ev: Event) -> None:
    """The handler for every kind: run the event's own callback."""
    ev.fn(*ev.args)


class Scheduler:
    """Event queue and clock for one simulation run."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[tuple[SimTime, int, Event]] = []
        self._counter = 0
        self._handlers: dict[EventKind, Callable[[Event], None]] = {}
        self._trace_tail: deque[Event] = deque(maxlen=32)
        self.trace_sink: Callable[[Event], None] | None = None

    def register(self, kind: EventKind, handler: Callable[[Event], None]) -> None:
        if kind in self._handlers:
            raise ValueError(f"handler for {kind} already registered")
        self._handlers[kind] = handler

    def schedule(self, ev: Event) -> Event:
        """Enqueue an event; the returned handle can be passed to cancel()."""
        if ev.fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule {ev.kind.value} at {ev.fire_at} us; clock is {self.now} us"
            )
        ev.seq = self._counter
        self._counter += 1
        heapq.heappush(self._heap, (ev.fire_at, ev.seq, ev))
        return ev

    def cancel(self, handle: Event) -> None:
        handle.cancelled = True

    def run_until(self, t_end: SimTime) -> SimTime:
        """Dispatch all events with fire_at <= t_end in order; clock ends at t_end."""
        if t_end < self.now:
            raise SchedulingError(f"t_end {t_end} behind clock {self.now}")
        heap = self._heap
        pop = heapq.heappop
        handlers = self._handlers
        remember = self._trace_tail.append
        sink = self.trace_sink
        while heap and heap[0][0] <= t_end:
            _, _, ev = pop(heap)
            if ev.cancelled:
                continue
            self.now = ev.fire_at
            remember(ev)
            if sink is not None:
                sink(ev)
            handler = handlers.get(ev.kind)
            if handler is None:
                raise RunAborted(f"no dispatcher for event kind {ev.kind.value}")
            try:
                handler(ev)
            except Exception as exc:
                tail = "\n".join(
                    f"{e.fire_at} {e.kind.value} {'-' if e.node is None else e.node}"
                    for e in self._trace_tail
                )
                raise RunAborted(
                    f"dispatcher for {ev.kind.value} failed at t={ev.fire_at} us: "
                    f"{exc}\nevent trace tail:\n{tail}"
                ) from exc
        self.now = t_end
        return self.now


class RngStreams:
    """Seeded substreams: one per node plus one for the channel.

    Substreams are derived from (master seed, node id), so adding a node does
    not perturb the draws any other node sees.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._node_streams: dict[int, random.Random] = {}
        self.channel = random.Random(f"{master_seed}/channel")

    def node(self, node_id: int) -> random.Random:
        rng = self._node_streams.get(node_id)
        if rng is None:
            rng = random.Random(f"{self.master_seed}/node/{node_id}")
            self._node_streams[node_id] = rng
        return rng
