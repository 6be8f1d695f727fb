"""External tracer for the traced benchmark run.

The tracer never edits the simulator's source.  `installed(recorder)` patches
names from the outside for the duration of a `with` block and restores them
afterwards:

* `Scheduler.register` wraps every handler `Simulation` registers, so each
  dispatch becomes a `handler.<EventKind>` span;
* `Scheduler.run_until` and `Scheduler.schedule` become `engine.*` spans;
* every function defined on `Simulation`, `ChannelModel`, `CsmaMac`,
  `TdmaMac` and `MetricsLedger` becomes a `<module>.<method>` span;
* module-level names are patched where the caller looks them up
  (`wbansim.simulation.is_awake`, `wbansim.cli.run_one`, ...).

Spans (name, parent, start, end) are kept in flat arrays in memory and can be
written to one file at the end.  A span's self time is its duration minus the
durations of its direct children; because children nest inside their parent,
the self times of a subtree sum exactly to the duration of its root.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Span-name prefix -> the simulator module whose code runs in that span.
# Handler bodies are Simulation methods or lambdas defined in simulation.py.
MODULE_OF_PREFIX = {
    "engine": "engine",
    "handler": "simulation",
    "simulation": "simulation",
    "channel": "channel",
    "mac_csma": "mac_csma",
    "mac_tdma": "mac_tdma",
    "metrics": "metrics",
    "wakeup": "wakeup",
    "traffic": "traffic",
    "scenario": "scenario",
    "cli": "cli",
}
RUN_UNTIL = "engine.run_until"
EVENT_KINDS = (
    "BeaconDue", "BackoffExpired", "CcaDue", "TxEnd", "RxEnd",
    "TrafficArrival", "WakeupDue", "SlotBoundary", "AckTimeout", "MeasurementTick",
)


def module_of(span_name: str) -> str:
    return MODULE_OF_PREFIX[span_name.split(".", 1)[0]]


class SpanRecorder:
    """Append-only span store; parents are tracked with an explicit stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.notes: Counter[str] = Counter()  # counts that are not span counts
        self.ledgers: list = []  # ledgers returned by cli.run_one

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, before=None, after=None):
        """Return `fn` wrapped in a span; `before(args)` and
        `after(args, result)` run outside the span."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """One JSON header line, then the four arrays back to back."""
        header = {"names": self.names, "spans": len(self),
                  "arrays": ["name_id:i", "parent:i", "start_ns:q", "end_ns:q"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path) -> SpanRecorder:
    rec = SpanRecorder()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            rec._id(name)
        n = header["spans"]
        for arr in (rec.name_id, rec.parent, rec.start, rec.end):
            arr.fromfile(fh, n)
    return rec


def self_times(parent, start, end) -> list[int]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


@contextmanager
def installed(rec: SpanRecorder):
    """Patch the simulator's classes and module names for one traced run."""
    import wbansim.cli as cli
    import wbansim.mac_csma as mac_csma
    import wbansim.simulation as simulation
    import wbansim.traffic as traffic
    from wbansim.channel import CcaResult, ChannelModel
    from wbansim.core import FrameKind
    from wbansim.engine import Scheduler
    from wbansim.mac_tdma import TdmaMac
    from wbansim.metrics import MetricsLedger

    notes = rec.notes
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap_class(cls, prefix: str, hooks: dict) -> None:
        for attr, fn in list(vars(cls).items()):
            if inspect.isfunction(fn) and (attr == "__init__" or not attr.startswith("__")):
                before, after = hooks.get(attr, (None, None))
                label = "init" if attr == "__init__" else attr
                patch(cls, attr, rec.wrap(fn, f"{prefix}.{label}", before, after))

    def cca_after(args, result):
        notes["cca_active_sum"] += len(args[0]._active)
        if result is CcaResult.BUSY:
            notes["cca_busy"] += 1

    def deliver_after(args, result):
        if result is None:
            notes["deliver_ok"] += 1

    def set_state_before(args):
        ledger, node, state = args[0], args[1], args[2]
        if ledger._state_now[node] is state:
            notes["set_state_noop"] += 1

    def begin_tx_before(args):
        if args[2].kind in (FrameKind.DATA, FrameKind.COMMAND):
            notes["data_tx"] += 1

    def run_one_after(args, ledger):
        rec.ledgers.append(ledger)

    orig_register = Scheduler.register

    def register(self, kind, handler):
        return orig_register(self, kind, rec.wrap(handler, f"handler.{kind.value}"))

    patch(Scheduler, "register", register)
    patch(Scheduler, "run_until", rec.wrap(Scheduler.run_until, RUN_UNTIL))
    patch(Scheduler, "schedule", rec.wrap(Scheduler.schedule, "engine.schedule"))
    wrap_class(simulation.Simulation, "simulation",
               {"begin_tx": (begin_tx_before, None)})
    wrap_class(ChannelModel, "channel",
               {"cca_energy_detect": (None, cca_after), "deliver": (None, deliver_after)})
    wrap_class(mac_csma.CsmaMac, "mac_csma", {})
    wrap_class(TdmaMac, "mac_tdma", {})
    wrap_class(MetricsLedger, "metrics", {"set_state": (set_state_before, None)})
    for owner, attr, name in (
        (simulation, "is_awake", "wakeup.is_awake"),
        (simulation, "resolve_wakeup_targets", "wakeup.resolve_wakeup_targets"),
        (traffic, "first_arrival", "traffic.first_arrival"),
        (traffic, "next_arrival", "traffic.next_arrival"),
        (mac_csma, "backoff_draw", "mac_csma.backoff_draw"),
        (cli, "load_scenario", "scenario.load_scenario"),
        (cli, "write_node_csv", "metrics.write_node_csv"),
        (cli, "write_summary_csv", "metrics.write_summary_csv"),
        (cli, "merge_ledgers", "metrics.merge_ledgers"),
    ):
        patch(owner, attr, rec.wrap(getattr(owner, attr), name))
    patch(cli, "run_one", rec.wrap(cli.run_one, "cli.run_one", after=run_one_after))
    try:
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def summarize(rec: SpanRecorder, import_ns: int) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `<module>.self_ms` counts only spans inside `engine.run_until`, so the
    module self times sum to `engine.run_until_ms`.  Everything outside the
    event loop (loading, construction, CSV writing, merging) is reported by
    its own inclusive metric.  `import_ns` is the time the child spent
    importing wbansim before the tracer was installed.
    """
    names = rec.names
    calls: Counter[str] = Counter()
    incl_ns: Counter[str] = Counter()
    first_run_one = main_start = None
    for i, nid in enumerate(rec.name_id):
        name = names[nid]
        calls[name] += 1
        incl_ns[name] += rec.end[i] - rec.start[i]
        if name == "cli.run_one" and first_run_one is None:
            first_run_one = rec.start[i]
        elif name == "cli.main" and main_start is None:
            main_start = rec.start[i]
    self_in_run = module_self_ms_in_run(rec)

    def ms(ns: float) -> float:
        return ns / 1e6

    def self_ms(module: str) -> float:
        return self_in_run.get(module, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    notes = rec.notes
    dispatched = sum(calls[f"handler.{k}"] for k in EVENT_KINDS)
    scheduled = calls["engine.schedule"]
    cca = calls["channel.cca_energy_detect"]
    deliver = calls["channel.deliver"]
    csma_cca = calls["mac_csma.on_cca_due"]
    csma_used = calls["mac_csma.init"] > 0
    deliveries = calls["metrics.add_delivered"]
    slot_starts = calls["mac_tdma.on_slot_start"]
    yielded = sum(ledger.loss_reasons["slot_yielded"] for ledger in rec.ledgers)
    set_state = calls["metrics.set_state"]
    startup_ns = import_ns
    if main_start is not None and first_run_one is not None:
        startup_ns += first_run_one - main_start

    out: dict[str, float] = {
        "engine.dispatched": dispatched,
        "engine.scheduled": scheduled,
        "engine.dispatch_frac": ratio(dispatched, scheduled),
        "engine.self_ms": self_ms("engine"),
        "engine.run_until_ms": ms(incl_ns[RUN_UNTIL]),
    }
    for kind in EVENT_KINDS:
        out[f"engine.{kind}.calls"] = calls[f"handler.{kind}"]
        out[f"engine.{kind}.ms"] = ms(incl_ns[f"handler.{kind}"])
    out.update({
        "channel.self_ms": self_ms("channel"),
        "channel.cca_calls": cca,
        "channel.cca_ms": ms(incl_ns["channel.cca_energy_detect"]),
        "channel.cca_busy_frac": ratio(notes["cca_busy"], cca),
        "channel.active_at_cca_mean": ratio(notes["cca_active_sum"], cca),
        "channel.deliver_calls": deliver,
        "channel.deliver_ms": ms(incl_ns["channel.deliver"]),
        "channel.deliver_ok_frac": ratio(notes["deliver_ok"], deliver),
        "channel.register_tx_calls": calls["channel.register_tx"],
        "channel.register_tx_ms": ms(incl_ns["channel.register_tx"]),
        "mac_csma.self_ms": self_ms("mac_csma"),
        "mac_csma.backoff_draw_calls": calls["mac_csma.backoff_draw"],
        "mac_csma.cca_per_tx": ratio(csma_cca, notes["data_tx"]) if csma_used else 0.0,
        "mac_csma.tx_per_delivery": ratio(notes["data_tx"], deliveries) if csma_used else 0.0,
        "mac_tdma.self_ms": self_ms("mac_tdma"),
        "mac_tdma.slot_starts": slot_starts,
        "mac_tdma.slot_yield_frac": ratio(yielded, slot_starts),
        "simulation.self_ms": self_ms("simulation"),
        "simulation.init_ms": ms(incl_ns["simulation.init"]),
        "simulation.begin_tx_calls": calls["simulation.begin_tx"],
        "simulation.set_state_calls": calls["simulation.set_state"],
        "metrics.self_ms": self_ms("metrics"),
        "metrics.set_state_calls": set_state,
        "metrics.set_state_ms": ms(incl_ns["metrics.set_state"]),
        "metrics.set_state_noop_frac": ratio(notes["set_state_noop"], set_state),
        "metrics.csv_ms": ms(incl_ns["metrics.write_node_csv"]
                             + incl_ns["metrics.write_summary_csv"]),
        "metrics.merge_ms": ms(incl_ns["metrics.merge_ledgers"]),
        "wakeup.is_awake_calls": calls["wakeup.is_awake"],
        "wakeup.resolve_calls": calls["wakeup.resolve_wakeup_targets"],
        "wakeup.ms": ms(incl_ns["wakeup.is_awake"] + incl_ns["wakeup.resolve_wakeup_targets"]),
        "traffic.arrival_calls": calls["traffic.first_arrival"] + calls["traffic.next_arrival"],
        "traffic.ms": ms(incl_ns["traffic.first_arrival"] + incl_ns["traffic.next_arrival"]),
        "scenario.load_ms": ms(incl_ns["scenario.load_scenario"]),
        "cli.startup_ms": ms(startup_ns),
        "cli.run_one_ms": ms(incl_ns["cli.run_one"]),
    })
    return out


def module_self_ms_in_run(rec: SpanRecorder) -> dict[str, float]:
    """Self time per module, restricted to spans inside `engine.run_until`."""
    own = self_times(rec.parent, rec.start, rec.end)
    in_run = bytearray(len(rec))
    run_until_id = rec._ids.get(RUN_UNTIL)
    out: Counter[str] = Counter()
    for i, nid in enumerate(rec.name_id):
        p = rec.parent[i]
        if nid == run_until_id or (p >= 0 and in_run[p]):
            in_run[i] = 1
            out[module_of(rec.names[nid])] += own[i]
    return {module: ns / 1e6 for module, ns in out.items()}
