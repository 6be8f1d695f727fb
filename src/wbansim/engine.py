"""Deterministic discrete-event scheduler.

Events fire in (fire_at, insertion order) order; ties at the same instant are
resolved strictly by insertion, so a run's event trace is a pure function of
(scenario, seed).  Scheduling into the past is a fatal logic error.

An event is one flat list, the entry `schedule()` files:

    [fire_at, kind, node, fn, args]

The pending events are a calendar of instants: a heap of the distinct
instants that have events, as plain ints, and a dict from each instant to
the list of its entries in insertion order.  `schedule()` appends an entry to
its instant's list and pushes the instant onto the heap only when the
instant has no list yet.  `run_until()` pops an instant, sets the clock once,
dispatches that instant's list in order, including the entries handlers
append to it while it runs, and then deletes the list.  The order rule
follows from the structure alone: earlier instants first, and within an
instant, insertion order.  An entry scheduled at the clock after
`run_until(t_end)` has returned, at `t_end`, starts a new list and fires in
the next `run_until`.

The entry is also the event's handle: `cancel()` clears `fn` in place, and
the loop skips an entry whose `fn` is None when it reaches it.

Dispatch contract: an entry carries its own callback and arguments, and
firing it means calling `fn(*args)` (see `fire`).  Its `EventKind` and `node`
do not steer anything; they label the event in the trace, and the kind is
the key a handler is registered under, so dispatches can be counted and
timed per kind.  Each dispatched entry, as it is, goes to the `trace_sink`
(when one is set) and then to the handler registered for its kind.

The scheduler remembers the last 32 dispatched entries and formats them
(`trace_line`) only when a handler raises, so the trace tail costs one deque
append per event.

What a `RunAborted` leaves pending: the entry whose handler raised (or has
no handler) counts as dispatched, as does every entry before it.  Every
entry after it stays pending, the rest of its instant's list included, and
the clock stays at its instant; a later `run_until` dispatches them in
order.  An exception from the trace sink leaves the same.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from heapq import heappop, heappush
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


# Positions in an event entry.  The per-event code in this module indexes
# with the literal positions, which saves a global read each.
FIRE_AT, KIND, NODE, FN, ARGS = range(5)


def trace_line(entry: list) -> str:
    """An entry as one line of an event trace: `<fire_at> <kind> <node or ->`."""
    node = entry[2]  # NODE
    return f"{entry[0]} {entry[1].value} {'-' if node is None else node}"


def fire(entry: list) -> None:
    """The handler for every kind: run the entry's own callback."""
    entry[3](*entry[4])  # FN, ARGS


class Scheduler:
    """Event queue and clock for one simulation run."""

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._instants: list[SimTime] = []  # heap of the instants in _calendar
        self._calendar: dict[SimTime, list[list]] = {}
        self._handlers: dict[EventKind, Callable[[list], None]] = {}
        self._trace_tail: deque[list] = deque(maxlen=32)
        self.trace_sink: Callable[[list], None] | None = None

    def register(self, kind: EventKind, handler: Callable[[list], None]) -> None:
        if kind in self._handlers:
            raise ValueError(f"handler for {kind} already registered")
        self._handlers[kind] = handler

    def schedule(self, fire_at: SimTime, kind: EventKind, node: int | None,
                 fn: Callable[..., None], args: tuple = ()) -> list:
        """Enqueue `fn(*args)` at `fire_at`; the returned entry is the handle
        for cancel().  `node` is the acting device id, None for run-level
        events."""
        if fire_at < self.now:
            raise SchedulingError(
                f"cannot schedule {kind.value} at {fire_at} us; clock is {self.now} us"
            )
        entry = [fire_at, kind, node, fn, args]
        entries = self._calendar.get(fire_at)
        if entries is None:
            self._calendar[fire_at] = [entry]
            heappush(self._instants, fire_at)
        else:
            entries.append(entry)
        return entry

    def cancel(self, entry: list) -> None:
        entry[FN] = None

    def clear(self) -> None:
        """Drop every pending event and the trace tail.  An entry's callback
        and arguments can reach whatever owns this scheduler, and a device
        can keep an entry as its handle, so each pending entry is emptied as
        well: nothing cyclic is left."""
        for entries in self._calendar.values():
            for entry in entries:
                entry[FN] = entry[ARGS] = None
        self._calendar.clear()
        self._instants.clear()
        self._trace_tail.clear()

    def run_until(self, t_end: SimTime) -> SimTime:
        """Dispatch all events with fire_at <= t_end in order; clock ends at t_end."""
        if t_end < self.now:
            raise SchedulingError(f"t_end {t_end} behind clock {self.now}")
        instants = self._instants
        calendar = self._calendar
        pop = heappop
        handlers = self._handlers
        remember = self._trace_tail.append
        sink = self.trace_sink
        while instants and instants[0] <= t_end:
            self.now = fire_at = pop(instants)
            entries = calendar[fire_at]
            # The list iterator reads the length at each step, so entries a
            # handler appends at this instant are dispatched in this loop.
            try:
                for entry in entries:
                    if entry[3] is None:  # cancelled
                        continue
                    remember(entry)
                    if sink is not None:
                        sink(entry)
                    kind = entry[1]
                    handler = handlers.get(kind)
                    if handler is None:
                        raise RunAborted(f"no dispatcher for event kind {kind.value}")
                    try:
                        handler(entry)
                    except Exception as exc:
                        tail = "\n".join(map(trace_line, self._trace_tail))
                        raise RunAborted(
                            f"dispatcher for {kind.value} failed at t={fire_at} us: "
                            f"{exc}\nevent trace tail:\n{tail}"
                        ) from exc
            except BaseException:  # `entry` counts as dispatched; the rest stays pending
                del entries[:next(k for k, e in enumerate(entries) if e is entry) + 1]
                heappush(instants, fire_at)
                raise
            del calendar[fire_at]
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
