"""Scenario files: parsing, defaulting and whole-file validation.

Each section is declared once, in `KEYS`, as a map from key to reader; the
declaration is also the set of allowed keys.  A null value is a missing key,
and a missing key takes its record constructor's default, so a minimal
scenario is just a MAC choice, a horizon and a node list.  A value that fails
its own key's check is reported once, with its key path, and is then
unknown: no check that needs it runs.  Every other violation is reported in
the same pass, so a bad file never starts a run.

Each rule on scenario input has one home: a rule on one value lives in its
`KEYS` reader, a rule across the keys of one record in that record's
constructor, and a rule across sections in this loader.  Run-time code never
checks again what the loader guarantees.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import yaml

from .channel import (ChannelParams, LinkClass, PathLossParams, dbm_to_mw, default_path_loss,
                      rx_power_dbm)
from .core import (
    Criticality,
    NodeProfile,
    Placement,
    PlacementKind,
    SimTime,
    SuperframeConfig,
    TrafficClass,
    airtime,
)
from .mac_csma import BackoffPolicy
from .mac_tdma import TdmaSchedule
from .metrics import EnergyModel
from .traffic import (
    DEFAULT_ARRIVAL,
    DEFAULT_RATE_PER_HOUR,
    ArrivalProcess,
    GeneratorSpec,
    OnDemandEntry,
)
from .wakeup import Addressing, WakeupConfig


class ScenarioError(Exception):
    """Validation failed; `violations` lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {v}" for v in violations))


class FrameParams:
    __slots__ = ("beacon_bits", "ack_bits", "command_bits", "default_payload_bits",
                 "bitrate_bps")

    def __init__(self, beacon_bits: int = 304, ack_bits: int = 88, command_bits: int = 184,
                 default_payload_bits: int = 800, bitrate_bps: int = 250_000) -> None:
        self.beacon_bits = beacon_bits
        self.ack_bits = ack_bits
        self.command_bits = command_bits
        self.default_payload_bits = default_payload_bits
        self.bitrate_bps = bitrate_bps


class NodeConfig:
    __slots__ = ("profile", "generator")

    def __init__(self, profile: NodeProfile, generator: GeneratorSpec | None) -> None:
        self.profile = profile
        self.generator = generator  # None for purely reactive (on-demand) nodes


class Scenario:
    """A validated scenario.  `on_demand` defaults to a fresh empty list and
    `bnc_placement` to a fresh on-body placement at the origin."""

    __slots__ = ("name", "mac", "horizon_us", "seed", "superframe", "backoff",
                 "channel_params", "link_errors", "energy", "wakeup", "frames", "nodes",
                 "on_demand", "tdma", "bnc_placement")

    def __init__(self, name: str, horizon_us: SimTime, superframe: SuperframeConfig,
                 backoff: BackoffPolicy, channel_params: ChannelParams,
                 link_errors: dict, energy: EnergyModel, wakeup: WakeupConfig,
                 frames: FrameParams, nodes: list[NodeConfig], mac: str = "csma",
                 seed: int = 1, on_demand: list[OnDemandEntry] | None = None,
                 tdma: TdmaSchedule | None = None,
                 bnc_placement: Placement | None = None) -> None:
        self.name = name
        self.mac = mac
        self.horizon_us = horizon_us
        self.seed = seed
        self.superframe = superframe
        self.backoff = backoff
        self.channel_params = channel_params
        self.link_errors = link_errors
        self.energy = energy
        self.wakeup = wakeup
        self.frames = frames
        self.nodes = nodes
        self.on_demand = [] if on_demand is None else on_demand
        self.tdma = tdma
        self.bnc_placement = Placement() if bnc_placement is None else bnc_placement

    def node_ids(self) -> list[int]:
        return sorted(n.profile.id for n in self.nodes)


# -- readers: each returns the accepted value or raises _Bad ----------------------


class _Bad(Exception):
    """A value that fails its own key's check; the message says why."""


def _number(lo=None, hi=None, *, positive=False, integer=False, unit_us=None):
    """A finite number within its bounds.  With `unit_us` it is a time in
    units of that many microseconds, read as whole microseconds."""
    def read(v):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise _Bad(f"expected a number, got {v!r}")
        if not abs(v) <= sys.float_info.max:  # also an integer beyond the float range
            raise _Bad(f"must be finite, got {v}")
        if positive and v <= 0:
            raise _Bad("must be positive")
        if lo is not None and v < lo:
            raise _Bad(f"must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            raise _Bad(f"must be <= {hi}, got {v}")
        if integer:
            if isinstance(v, float) and not v.is_integer():
                raise _Bad(f"expected an integer, got {v}")
            v = int(v)
        if unit_us is not None:
            if isinstance(v, float) and math.isinf(v * unit_us):
                raise _Bad(f"{v} is too large to convert to microseconds")
            v = round(v * unit_us)
        return v
    return read


def _integer(lo=None):
    return _number(lo, integer=True)


def _choice(options):
    """A token of `options`, read as what it names: an Enum's member by its
    value, a mapping's value by its key, or a set's token as itself."""
    if isinstance(options, type):
        options = {m.value: m for m in options}
    elif not isinstance(options, dict):
        options = {t: t for t in options}

    def read(v):
        if not isinstance(v, str):
            raise _Bad(f"expected a string, got {v!r}")
        if v not in options:
            raise _Bad(f"must be one of {sorted(options)}, got '{v}'")
        return options[v]
    return read


def _flag(v):
    if not isinstance(v, bool):
        raise _Bad(f"expected true/false, got {v!r}")
    return v


def _id_map(what: str, required: bool = False):
    """A mapping of node id -> integer, whose null entries are absent."""
    def read(v):
        if not isinstance(v, dict):
            raise _Bad(what)
        entries = {k: x for k, x in v.items() if x is not None}
        for k, x in entries.items():
            if any(isinstance(n, bool) or not isinstance(n, int) for n in (k, x)):
                raise _Bad(f"bad entry {k!r}: {x!r}")
        if required and not entries:
            raise _Bad(what)
        return entries
    return read


def _airtime_ms(v):
    us = _number(positive=True, unit_us=1000)(v)
    if us == 0:
        raise _Bad(f"{v} ms rounds to 0 us")
    return us


# -- declarations: key -> reader, or (record argument, reader) where the two
# names differ.  A mapping or a one-item list declares a nested section.

_REAL, _INT, _COUNT = _number(), _integer(), _integer(lo=1)
_SECONDS = _number(lo=0, unit_us=1_000_000)
_ORDER = _number(0, 14, integer=True)  # a beacon or superframe order


def _symbol_rate(v):
    """Symbols per second that divide 10^6, for exact microsecond timing."""
    if 1_000_000 % (v := _COUNT(v)):
        raise _Bad(f"must divide 1000000 for exact microsecond timing, got {v}")
    return v


_PLACEMENT = {"kind": _choice(PlacementKind), "x_m": _REAL, "y_m": _REAL,
              "z_m": _REAL, "depth_m": _number(hi=0.2, positive=True)}
_PATH_LOSS = {"ref_loss_db": _number(positive=True), "ref_dist_m": _number(positive=True),
              "exponent": _number(lo=1.5)}
_LINK = {"src": _integer(lo=0), "dst": _integer(lo=0), "p_success": _number(0.0, 1.0)}
_TRAFFIC = {"rate_per_hour": _REAL, "arrival": _choice(ArrivalProcess),
            "phase_s": ("phase_us", _SECONDS)}
_NODE = {
    "id": _COUNT,
    "placement": _PLACEMENT,
    "class": ("traffic_class", _choice(TrafficClass)),
    "criticality": _choice(Criticality),
    "wakeup_multiplier": _COUNT,
    "payload_bits": _COUNT,
    "wakeup_receiver": _flag,
    "traffic": _TRAFFIC,
}
_QUERY = {
    "time_s": ("time_us", _SECONDS),
    "target": _COUNT,
    "mode": ("continuous", _choice({"continuous": True, "non_continuous": False})),
    "rate_per_s": _REAL,
    "duration_s": ("duration_us", _number(unit_us=1_000_000)),
}

KEYS = {
    "mac": _choice({"csma", "tdma"}),
    "horizon_s": ("horizon_us", _number(positive=True, unit_us=1_000_000)),
    "horizon_superframes": _COUNT,
    "seed": _INT,
    "superframe": {"beacon_order": _ORDER, "superframe_order": _ORDER,
                   "symbol_rate_sps": _symbol_rate},
    "mac_params": {"min_be_critical": _INT, "min_be_noncritical": _INT, "max_be": _INT,
                   "max_csma_backoffs": _integer(lo=0), "max_frame_retries": _integer(lo=0)},
    "tdma": {
        "slot_duration_ms": ("slot_duration_us", _airtime_ms),
        "slots_per_superframe": _COUNT,
        "slots": _id_map("tdma requires a node id -> slot index mapping", required=True),
    },
    "channel": {
        "path_loss": {lc.value: _PATH_LOSS for lc in LinkClass},
        "tx_power_dbm": {"on_body": ("tx_power_on_body_dbm", _REAL),
                         "in_body": ("tx_power_in_body_dbm", _REAL)},
        "sensitivity_dbm": _REAL,
        "cca_threshold_dbm": _REAL,
        "capture_margin_db": _number(lo=0),
        "wakeup_loss_p": _number(0.0, 1.0),
        "link_errors": [_LINK],
    },
    "energy": {"tx_mw": _REAL, "rx_mw": _REAL, "idle_listen_mw": _REAL, "sleep_mw": _REAL,
               "wakeup_rx_mw": _number(lo=0)},
    "wakeup": {
        "mode": _choice(Addressing),
        "latency_ms": ("latency_us", _number(lo=0, unit_us=1000)),
        "signal_airtime_ms": ("signal_airtime_us", _airtime_ms),
        "frequencies": _id_map("expected a mapping of node id -> tone"),
    },
    "frames": {k: _COUNT for k in ("beacon_bits", "ack_bits", "command_bits",
                                           "default_payload_bits", "bitrate_bps")},
    "bnc": {"placement": _PLACEMENT},
    "nodes": [_NODE],
    "on_demand": [_QUERY],
}


class _Check(list):
    """The violations found so far, each with its key path."""

    def err(self, path: str, msg: str) -> None:
        self.append(f"{path}: {msg}")


def _read(ck: _Check, raw: object, path: str, keys: dict,
          ids: tuple[str, ...] = ()) -> tuple[dict | None, set[str]]:
    """The accepted values of the mapping `raw` at `path` by record argument,
    and the keys whose value was rejected.  A nested section is passed on
    raw.  The identifying keys `ids` are read first; while one is missing or
    rejected, no other value is read.  The values are None if `raw` is not a
    mapping."""
    if raw is None:
        return {}, set()
    if not isinstance(raw, dict):
        ck.err(path, f"expected a mapping, got {type(raw).__name__}")
        return None, set()
    for key in raw:
        if key not in keys:
            ck.err(path, f"unknown key '{key}'")
    kw, bad = {}, set()
    for key in [k for k in ids if k in raw] + [k for k in raw if k in keys and k not in ids]:
        if key not in ids and len(kw) < len(ids):
            break
        value, spec = raw[key], keys[key]
        if value is None:
            continue
        if isinstance(spec, (dict, list)):
            kw[key] = value
            continue
        arg, reader = spec if isinstance(spec, tuple) else (key, spec)
        try:
            kw[arg] = reader(value)
        except _Bad as exc:
            ck.err(f"{path}.{key}", str(exc))
            bad.add(key)
    return kw, bad


def _record(ck: _Check, path: str, cls, kw: dict | None, bad: set[str]):
    """`cls(**kw)`, which supplies every default, or None while the record is
    unknown: not a mapping, a value rejected, or its own check failed (that
    one reported at `path`)."""
    if kw is None or bad:
        return None
    try:
        return cls(**kw)
    except ValueError as exc:
        ck.err(path, str(exc))
        return None


def _section(ck: _Check, name: str, top: dict, key: str, cls, **derived):
    """The record of the top-level section `key`, taken out of `top`;
    `derived` holds defaults that are not the constructor's."""
    path = f"{name}.{key}"
    kw, bad = _read(ck, top.pop(key, None), path, KEYS[key])
    return _record(ck, path, cls, None if kw is None else {**derived, **kw}, bad)


class ScenarioLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """PyYAML's safe loader, on libyaml's parser when PyYAML has it, that
    also rejects a key repeated in one mapping, which YAML forbids and
    PyYAML would resolve silently to the last value."""

    def construct_mapping(self, node, deep=False):
        keys = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # `<<` merges; the base class resolves it
            key = self.construct_object(key_node, deep=deep)
            try:
                repeated = key in keys
            except TypeError:
                continue  # unhashable; the base class reports it
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            keys.add(key)
        return super().construct_mapping(node, deep=deep)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.load(fh, Loader=ScenarioLoader)
    return parse_scenario(raw, name=path.stem)


def parse_scenario(raw: object, name: str = "scenario") -> Scenario:
    """The scenario of a YAML document.  Each part is None while unknown."""
    if not isinstance(raw, dict):
        raise ScenarioError([f"{name}: scenario file is not a mapping"])
    ck = _Check()
    top, bad = _read(ck, raw, name, KEYS)
    is_tdma = None if "mac" in bad else top.get("mac") == "tdma"  # None: the MAC is unknown

    superframe = _section(ck, name, top, "superframe", SuperframeConfig)
    horizon_us = _horizon(ck, name, top, bad, superframe)
    backoff = _section(ck, name, top, "mac_params", BackoffPolicy)
    channel_params, raw_links = _channel(ck, top.pop("channel", None), f"{name}.channel")
    energy = _section(ck, name, top, "energy", EnergyModel)
    wakeup = _section(ck, name, top, "wakeup", WakeupConfig)
    # The bitrate derives from the symbol rate.  While that is unknown, the
    # constructor's stands in: every check that reads it needs the superframe.
    frames = _section(ck, name, top, "frames", FrameParams, **(
        {} if superframe is None else {"bitrate_bps": superframe.default_bitrate_bps}))
    bnc, _ = _read(ck, top.pop("bnc", None), f"{name}.bnc", KEYS["bnc"])
    bnc_placement = None if bnc is None else \
        _placement(ck, bnc.get("placement"), f"{name}.bnc.placement")

    nodes = _nodes(ck, top.pop("nodes", None), f"{name}.nodes", frames)
    if channel_params is not None and bnc_placement is not None and nodes is not None:
        _link_budgets(ck, f"{name}.channel", channel_params, [(0, bnc_placement)] + [
            (i, n.profile.placement) for i, n in nodes.items() if n is not None])
    if wakeup is not None and wakeup.frequencies and nodes is not None:
        for node_id in [n for n in wakeup.frequencies if n not in nodes]:
            ck.err(f"{name}.wakeup.frequencies", f"tone assigned to unknown node {node_id}")
    link_errors = _link_errors(ck, raw_links, f"{name}.channel.link_errors", nodes)
    on_demand = _on_demand(ck, top.pop("on_demand", None), f"{name}.on_demand",
                           horizon_us, nodes, wakeup)
    raw_tdma, tdma = top.pop("tdma", None), None
    if is_tdma and raw_tdma is None:
        ck.err(f"{name}.tdma", "mac 'tdma' requires a tdma section")
    elif is_tdma:
        tdma = _tdma(ck, raw_tdma, f"{name}.tdma")
    elif is_tdma is False and raw_tdma is not None:
        ck.err(f"{name}.tdma", "tdma section present but mac is not 'tdma'")
    if superframe is not None and frames is not None \
            and (tdma is not None or is_tdma is False):
        _fit_checks(ck, name, nodes, on_demand, tdma, superframe, frames)

    if ck:
        raise ScenarioError(list(ck))
    return Scenario(
        name=name, horizon_us=horizon_us, superframe=superframe, backoff=backoff,
        channel_params=channel_params, link_errors=link_errors, energy=energy,
        wakeup=wakeup, frames=frames, nodes=list(nodes.values()), on_demand=on_demand,
        tdma=tdma, bnc_placement=bnc_placement, **top,  # mac and seed, where given
    )


def _horizon(ck: _Check, name: str, top: dict, bad: set[str],
             sf: SuperframeConfig | None) -> SimTime | None:
    """The run horizon in us, its keys taken out of `top`."""
    horizon_us, horizon_sfs = top.pop("horizon_us", None), top.pop("horizon_superframes", None)
    if {"horizon_s", "horizon_superframes"} & bad:
        return None
    if horizon_us is not None and horizon_sfs is not None:
        ck.err(name, "give only one of horizon_s / horizon_superframes")
        return None
    if horizon_us is None and horizon_sfs is None:
        ck.err(name, "one of horizon_s / horizon_superframes is required")
        return None
    if horizon_sfs is not None:
        return None if sf is None else horizon_sfs * sf.beacon_interval_us
    if sf is not None and horizon_us < sf.beacon_interval_us:  # includes one rounding to 0 us
        ck.err(f"{name}.horizon_s", f"horizon shorter than one beacon interval "
                                    f"({horizon_us} us < {sf.beacon_interval_us} us)")
    return horizon_us


def _channel(ck: _Check, raw: object, path: str) -> tuple[ChannelParams | None, object]:
    """Channel parameters, and the raw link_errors list for `_link_errors`."""
    keys = KEYS["channel"]
    kw, bad = _read(ck, raw, path, keys)
    if kw is None:
        return None, None
    raw_links = kw.pop("link_errors", None)
    power, power_bad = _read(ck, kw.pop("tx_power_dbm", None), f"{path}.tx_power_dbm",
                             keys["tx_power_dbm"])
    given, _ = _read(ck, kw.pop("path_loss", None), f"{path}.path_loss", keys["path_loss"])
    if given is None or power is None:
        return None, raw_links
    # A link class's missing keys keep that class's defaults.
    table = kw["path_loss"] = default_path_loss()
    for lc in LinkClass:
        if lc.value in given:
            p = f"{path}.path_loss.{lc.value}"
            pl, pl_bad = _read(ck, given[lc.value], p, _PATH_LOSS)
            if pl is not None:
                pl = {k: getattr(table[lc], k) for k in PathLossParams.__slots__} | pl
            table[lc] = _record(ck, p, PathLossParams, pl, pl_bad)
    if None in table.values():
        return None, raw_links
    return _record(ck, path, ChannelParams, kw | power, bad | power_bad), raw_links


def _link_errors(ck: _Check, raw: object, path: str, nodes: dict | None) -> dict:
    """(src, dst) -> packet success probability.  Each link joins the BNC (0)
    to a scenario node, either way, and appears at most once: no frame travels
    any other link."""
    table: dict[tuple[int, int], float] = {}
    if raw is None:
        return table
    if not isinstance(raw, list):
        ck.err(path, "expected a list")
        return table
    first_at: dict[tuple[int, int], int] = {}
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        kw, bad = _read(ck, item, p, _LINK, ids=tuple(_LINK))
        if kw is None or bad:
            continue
        if len(kw) < len(_LINK):
            ck.err(p, "needs src, dst and p_success")
            continue
        if nodes is None:
            continue
        src, dst = kw["src"], kw["dst"]
        unknown = [(end, v) for end, v in (("src", src), ("dst", dst))
                   if v != 0 and v not in nodes]
        for end, v in unknown:
            ck.err(p, f"{end} {v} is neither 0 (the BNC) nor a scenario node")
        if unknown:
            continue
        if (src == 0) == (dst == 0):
            ck.err(p, f"link {src} -> {dst} does not join 0 (the BNC) to a node")
            continue
        if (src, dst) in first_at:
            ck.err(p, f"link {src} -> {dst} repeats {path}[{first_at[src, dst]}]")
            continue
        first_at[src, dst] = i
        table[src, dst] = kw["p_success"]
    return table


def _link_budgets(ck: _Check, path: str, params: ChannelParams, devices: list) -> None:
    """Every link budget is finite and the channel can hold it in milliwatts:
    each ordered pair of devices, a device with itself included."""
    for src, at in devices:
        for dst, to in devices:
            rx = rx_power_dbm(params.tx_power_for(at), at, to, params.path_loss)
            if not math.isfinite(rx):
                ck.err(path, f"link {src} -> {dst}: received power {rx} dBm is not finite")
                continue
            try:
                dbm_to_mw(rx)
            except OverflowError:
                ck.err(path, f"link {src} -> {dst}: received power {rx:g} dBm "
                             "is too large to convert to milliwatts")


def _placement(ck: _Check, raw: object, path: str) -> Placement | None:
    return _record(ck, path, Placement, *_read(ck, raw, path, _PLACEMENT))


def _nodes(ck: _Check, raw: object, path: str,
           frames: FrameParams | None) -> dict[int, NodeConfig | None] | None:
    """Node id -> its config, None while unknown; None while a node's id is."""
    if raw is None:
        ck.err(path, "at least one node is required")
        return None
    if not isinstance(raw, list) or not raw:
        ck.err(path, "expected a non-empty list")
        return None
    nodes: dict[int, NodeConfig | None] = {}
    complete = True
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        kw, bad = _read(ck, item, p, _NODE, ids=("id",))
        if kw is not None and not bad and "id" not in kw:
            ck.err(p, "node id is required (integers >= 1; 0 is the BNC)")
        if kw is None or "id" not in kw:
            complete = False
            continue
        if kw["id"] in nodes:
            ck.err(p, f"duplicate node id {kw['id']}")
            continue
        raw_traffic = kw.pop("traffic", None)
        kw["placement"] = _placement(ck, kw.get("placement"), f"{p}.placement")
        if frames is not None:  # the default payload comes from the frames section
            kw.setdefault("payload_bits", frames.default_payload_bits)
        profile = None
        if kw["placement"] is not None and "payload_bits" in kw:
            profile = _record(ck, p, NodeProfile, kw, bad)
        generator = _generator(ck, raw_traffic, f"{p}.traffic", profile)
        nodes[kw["id"]] = None if profile is None else NodeConfig(profile, generator)
    return nodes if complete else None


def _generator(ck: _Check, raw: object, path: str,
               profile: NodeProfile | None) -> GeneratorSpec | None:
    kw, bad = _read(ck, raw, path, _TRAFFIC)
    if profile is None or kw is None:
        return None
    cls = profile.traffic_class
    if cls.is_on_demand:
        if kw or bad:
            ck.err(path, "on-demand nodes are reactive; they take no traffic section")
        return None
    # The arrival process and rate default per class; a saturated node has no
    # rate or phase.
    arrival = kw.setdefault("arrival", DEFAULT_ARRIVAL[cls])
    if arrival is ArrivalProcess.SATURATED:
        for key, arg, what in (("rate_per_hour", "rate_per_hour", "rate"),
                               ("phase_s", "phase_us", "phase")):
            if arg in kw and "arrival" not in bad:
                ck.err(f"{path}.{key}", f"a saturated node takes no {what}")
        kw.pop("rate_per_hour", None)
    else:
        kw.setdefault("rate_per_hour", DEFAULT_RATE_PER_HOUR[cls])
    if arrival is ArrivalProcess.PERIODIC:
        # normal traffic staggers by node id to avoid pathological phase alignment
        kw.setdefault("phase_us", profile.id * 1_000_000)
    return _record(ck, path, GeneratorSpec, kw, bad)


def _on_demand(ck: _Check, raw: object, path: str, horizon_us: SimTime | None,
               nodes: dict | None, wakeup: WakeupConfig | None) -> list[OnDemandEntry]:
    """The entries whose target is a scenario node."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        ck.err(path, "expected a list")
        return []
    entries: list[OnDemandEntry] = []
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        kw, bad = _read(ck, item, p, _QUERY, ids=("time_s", "target"))
        if kw is None or bad:
            continue
        if "time_us" not in kw or "target" not in kw:
            ck.err(p, "needs time_s and target")
            continue
        if horizon_us is not None and kw["time_us"] > horizon_us:
            ck.err(p, f"time_s {item['time_s']} is beyond the run horizon")
        entry = _record(ck, p, OnDemandEntry, kw, bad)
        if entry is not None and not entry.continuous:
            for key, arg in (("rate_per_s", "rate_per_s"), ("duration_s", "duration_us")):
                if arg in kw:
                    ck.err(f"{p}.{key}", "only a continuous query takes it; "
                                         "this one is non_continuous")
        if entry is None or nodes is None:
            continue
        if entry.target not in nodes:
            ck.err(p, f"target {entry.target} is not a scenario node")
            continue
        entries.append(entry)
        target = nodes[entry.target]
        if target is None:
            continue
        if not target.profile.wakeup_receiver:
            ck.err(p, f"target {entry.target} has no wakeup receiver")
        if "continuous" not in kw \
                and target.profile.traffic_class is TrafficClass.ON_DEMAND_CONTINUOUS:
            ck.err(p, "continuous-mode query needs explicit rate_per_s/duration_s; set mode")
        if wakeup is not None and wakeup.mode is Addressing.FREQUENCY_ADDRESSED \
                and entry.target not in (wakeup.frequencies or ()):
            ck.err(p, f"frequency-addressed mode: node {entry.target} has no "
                      "entry under wakeup.frequencies")
    return entries


def _tdma(ck: _Check, raw: object, path: str) -> TdmaSchedule | None:
    kw, bad = _read(ck, raw, path, KEYS["tdma"])
    if kw is None or bad:
        return None
    if "slots" not in kw:
        ck.err(f"{path}.slots", "tdma requires a node id -> slot index mapping")
        return None
    kw.setdefault("slots_per_superframe", max(0, *kw["slots"].values()) + 1)
    return _record(ck, path, TdmaSchedule, kw, bad)


def _fit_checks(ck, name, nodes, on_demand, tdma, sf, frames) -> None:
    """Every frame can ever be sent.  Under TDMA the slot region and beacon
    fit the beacon interval, each node's frame its slot, and each emergency
    frame the free part from the slot region's end to the next beacon, where
    its windows open.  Under CSMA the
    fit rule of CsmaMac.on_backoff_expired holds at the earliest backoff
    boundary after the beacon; a frame that fails it would queue forever.
    And an ack ends before its sender's ack wait does: the timeout, queued
    first, wins a tie, so an ack that ends at the wait's end always comes late."""
    def air(bits):
        return airtime(bits, frames.bitrate_bps)

    profiles = [n.profile for n in (nodes or {}).values() if n is not None]
    if tdma is not None:
        for node_id in [n for n in nodes or () if n not in tdma.slots]:
            ck.err(f"{name}.tdma.slots", f"node {node_id} has no slot assignment")
        for node_id in [n for n in tdma.slots if nodes is not None and n not in nodes]:
            ck.err(f"{name}.tdma.slots", f"slot assigned to unknown node {node_id}")
        region = tdma.region_us + air(frames.beacon_bits)
        if region > sf.beacon_interval_us:
            ck.err(f"{name}.tdma", f"slot region + beacon ({region} us) exceeds the "
                                   f"beacon interval ({sf.beacon_interval_us} us)")
        free = sf.beacon_interval_us - region
        for prof in profiles:
            if air(prof.payload_bits) > tdma.slot_duration_us:
                ck.err(f"{name}.nodes", f"node {prof.id}: frame airtime "
                                        f"{air(prof.payload_bits)} us exceeds slot duration "
                                        f"{tdma.slot_duration_us} us")
            if (prof.traffic_class is TrafficClass.EMERGENCY and free >= 0
                    and air(prof.payload_bits) > free):
                ck.err(f"{name}.nodes", f"node {prof.id}: emergency frame airtime "
                                        f"{air(prof.payload_bits)} us exceeds the {free} us "
                                        f"between the slot region's end and the next beacon")
        return
    ack_us = sf.turnaround_us + air(frames.ack_bits)
    if ack_us >= sf.ack_wait_us:
        ck.err(f"{name}.frames.ack_bits",
               f"{frames.ack_bits} bits: turnaround + ack airtime ({ack_us} us) must be "
               f"below the ack wait ({sf.ack_wait_us} us)")
    ubp = sf.unit_backoff_us
    cap_us = sf.active_duration_us - -(-air(frames.beacon_bits) // ubp) * ubp
    overhead = 2 * ubp + ack_us
    for prof in profiles:
        needed = overhead + air(prof.payload_bits)
        if needed > cap_us:
            ck.err(f"{name}.nodes", f"node {prof.id}: acked transaction ({needed} us with "
                                    f"both CCAs) exceeds the CAP after the beacon ({cap_us} us)")
    # A continuous query ends with the coordinator's stop command, which
    # contends like any data frame.
    needed = overhead + air(frames.command_bits)
    if any(entry.continuous for entry in on_demand) and needed > cap_us:
        ck.err(f"{name}.frames.command_bits",
               f"{frames.command_bits} bits: the stop command's acked transaction "
               f"({needed} us with both CCAs) exceeds the CAP after the beacon ({cap_us} us)")
