"""Scenario files: parsing, defaulting and whole-file validation.

Scenarios are YAML with nested sections; unknown keys are rejected and every
violation is reported with its key path in one pass, so a bad file never
starts a run.  All tunables carry documented defaults; a minimal scenario is
just a MAC choice, a horizon and a node list.
"""

from __future__ import annotations

import math
from pathlib import Path

import yaml

from .channel import ChannelParams, LinkClass, LinkErrorTable, PathLossParams
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

    def __init__(self, name: str, mac: str, horizon_us: SimTime, seed: int,
                 superframe: SuperframeConfig, backoff: BackoffPolicy,
                 channel_params: ChannelParams, link_errors: LinkErrorTable,
                 energy: EnergyModel, wakeup: WakeupConfig, frames: FrameParams,
                 nodes: list[NodeConfig], on_demand: list[OnDemandEntry] | None = None,
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
        self.bnc_placement = (Placement(PlacementKind.ON_BODY) if bnc_placement is None
                              else bnc_placement)

    def node_ids(self) -> list[int]:
        return sorted(n.profile.id for n in self.nodes)

    def profiles(self) -> list[NodeProfile]:
        return [n.profile for n in self.nodes]


class _Check:
    """Accumulates violations with their key paths."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def err(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def section(self, raw: object, path: str, allowed: set[str]) -> dict:
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.err(path, f"expected a mapping, got {type(raw).__name__}")
            return {}
        for key in raw:
            if key not in allowed:
                self.err(path, f"unknown key '{key}'")
        return raw

    def num(self, d: dict, key: str, path: str, default, minimum=None, maximum=None):
        v = d.get(key, default)
        if v is None:
            return None
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.err(f"{path}.{key}", f"expected a number, got {v!r}")
            return default
        if not math.isfinite(v):
            self.err(f"{path}.{key}", f"must be finite, got {v}")
            return default
        if minimum is not None and v < minimum:
            self.err(f"{path}.{key}", f"must be >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            self.err(f"{path}.{key}", f"must be <= {maximum}, got {v}")
        return v

    def micros(self, value: float, unit_us: int, path: str) -> SimTime | None:
        """A finite `value` in units of `unit_us` microseconds, rounded to whole
        microseconds; None, with an error at `path`, if it is too large to
        convert."""
        us = value * unit_us
        if math.isinf(us):
            self.err(path, f"{value} is too large to convert to microseconds")
            return None
        return round(us)

    def integer(self, d: dict, key: str, path: str, default, minimum=None, maximum=None):
        v = self.num(d, key, path, default, minimum, maximum)
        if v is None:
            return None
        if isinstance(v, float) and not v.is_integer():
            self.err(f"{path}.{key}", f"expected an integer, got {v}")
            return default
        return int(v)

    def text(self, d: dict, key: str, path: str, default, choices=None):
        v = d.get(key, default)
        if v is None:
            return None
        if not isinstance(v, str):
            self.err(f"{path}.{key}", f"expected a string, got {v!r}")
            return default
        if choices is not None and v not in choices:
            self.err(f"{path}.{key}", f"must be one of {sorted(choices)}, got '{v}'")
            return default
        return v

    def flag(self, d: dict, key: str, path: str, default: bool) -> bool:
        v = d.get(key, default)
        if not isinstance(v, bool):
            self.err(f"{path}.{key}", f"expected true/false, got {v!r}")
            return default
        return v


_CLASS_TOKENS = {c.value for c in TrafficClass}
_CRIT_TOKENS = {c.value for c in Criticality}
_ARRIVAL_TOKENS = {a.value for a in ArrivalProcess}

_TOP_KEYS = {
    "mac", "horizon_s", "horizon_superframes", "seed", "superframe", "mac_params",
    "tdma", "channel", "energy", "wakeup", "frames", "bnc", "nodes", "on_demand",
}


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
    ck = _Check()
    top = ck.section(raw, name, _TOP_KEYS)
    if not isinstance(raw, dict):
        raise ScenarioError(ck.errors or [f"{name}: scenario file is not a mapping"])

    mac = ck.text(top, "mac", name, "csma", choices={"csma", "tdma"}) or "csma"
    seed = ck.integer(top, "seed", name, 1)

    sf_raw = ck.section(top.get("superframe"), f"{name}.superframe",
                        {"beacon_order", "superframe_order", "symbol_rate_sps"})
    superframe = _build(ck, f"{name}.superframe", SuperframeConfig,
                        beacon_order=ck.integer(sf_raw, "beacon_order", f"{name}.superframe", 6),
                        superframe_order=ck.integer(sf_raw, "superframe_order", f"{name}.superframe", 6),
                        symbol_rate_sps=ck.integer(sf_raw, "symbol_rate_sps", f"{name}.superframe", 62_500))
    superframe = superframe or SuperframeConfig()

    horizon_us = _horizon(ck, top, name, superframe)

    bo_raw = ck.section(top.get("mac_params"), f"{name}.mac_params",
                        {"min_be_critical", "min_be_noncritical", "max_be",
                         "max_csma_backoffs", "max_frame_retries"})
    backoff = _build(ck, f"{name}.mac_params", BackoffPolicy,
                     min_be_critical=ck.integer(bo_raw, "min_be_critical", f"{name}.mac_params", 2),
                     min_be_noncritical=ck.integer(bo_raw, "min_be_noncritical", f"{name}.mac_params", 4),
                     max_be=ck.integer(bo_raw, "max_be", f"{name}.mac_params", 5),
                     max_csma_backoffs=ck.integer(bo_raw, "max_csma_backoffs", f"{name}.mac_params", 4),
                     max_frame_retries=ck.integer(bo_raw, "max_frame_retries", f"{name}.mac_params", 3))
    backoff = backoff or BackoffPolicy()

    channel_params, raw_links = _channel(ck, top.get("channel"), f"{name}.channel")
    energy = _energy(ck, top.get("energy"), f"{name}.energy")
    wakeup = _wakeup(ck, top.get("wakeup"), f"{name}.wakeup")
    frames = _frames(ck, top.get("frames"), f"{name}.frames", superframe)

    bnc_raw = ck.section(top.get("bnc"), f"{name}.bnc", {"placement"})
    bnc_placement = _placement(ck, bnc_raw.get("placement"), f"{name}.bnc.placement") \
        if bnc_raw.get("placement") is not None else Placement(PlacementKind.ON_BODY)

    nodes = _nodes(ck, top.get("nodes"), f"{name}.nodes", frames)
    link_errors = _link_errors(ck, raw_links, f"{name}.channel.link_errors",
                               {n.profile.id for n in nodes})
    on_demand = _on_demand(ck, top.get("on_demand"), f"{name}.on_demand", horizon_us)
    tdma = _tdma(ck, top.get("tdma"), f"{name}.tdma") if mac == "tdma" else None
    if mac != "tdma" and top.get("tdma") is not None:
        ck.err(f"{name}.tdma", "tdma section present but mac is not 'tdma'")

    _cross_checks(ck, name, mac, nodes, on_demand, tdma, wakeup, superframe, frames)

    if ck.errors:
        raise ScenarioError(ck.errors)
    return Scenario(
        name=name, mac=mac, horizon_us=horizon_us, seed=seed,
        superframe=superframe, backoff=backoff, channel_params=channel_params,
        link_errors=link_errors, energy=energy, wakeup=wakeup, frames=frames,
        nodes=nodes, on_demand=on_demand, tdma=tdma, bnc_placement=bnc_placement,
    )


def _build(ck: _Check, path: str, cls, **kwargs):
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        ck.err(path, str(exc))
        return None


def _horizon(ck: _Check, top: dict, name: str, sf: SuperframeConfig) -> SimTime:
    horizon_s = ck.num(top, "horizon_s", name, None, minimum=0)
    horizon_sfs = ck.integer(top, "horizon_superframes", name, None, minimum=1)
    if horizon_s is None and horizon_sfs is None:
        if top.get("horizon_s") is None and top.get("horizon_superframes") is None:
            ck.err(name, "one of horizon_s / horizon_superframes is required")
        return 0
    if horizon_s is not None and horizon_sfs is not None:
        ck.err(name, "give only one of horizon_s / horizon_superframes")
    if horizon_sfs is not None:
        return horizon_sfs * sf.beacon_interval_us
    if horizon_s <= 0:
        ck.err(f"{name}.horizon_s", "must be positive")
        return 0
    horizon_us = ck.micros(horizon_s, 1_000_000, f"{name}.horizon_s")
    if horizon_us is None:
        return 0
    if horizon_us < sf.beacon_interval_us:  # includes one that rounds to 0 us
        ck.err(f"{name}.horizon_s", f"horizon shorter than one beacon interval "
                                    f"({horizon_us} us < {sf.beacon_interval_us} us)")
    return horizon_us


def _channel(ck: _Check, raw: object, path: str) -> tuple[ChannelParams, object]:
    """Channel parameters, and the raw link_errors list for `_link_errors`."""
    sec = ck.section(raw, path, {"path_loss", "tx_power_dbm", "sensitivity_dbm",
                                 "cca_threshold_dbm", "capture_margin_db",
                                 "wakeup_loss_p", "link_errors"})
    defaults = ChannelParams()
    path_loss = dict(defaults.path_loss)
    pl_sec = ck.section(sec.get("path_loss"), f"{path}.path_loss",
                        {lc.value for lc in LinkClass})
    for lc in LinkClass:
        if lc.value not in pl_sec:
            continue
        p = f"{path}.path_loss.{lc.value}"
        entry = ck.section(pl_sec[lc.value], p, {"ref_loss_db", "ref_dist_m", "exponent"})
        built = _build(ck, p, PathLossParams,
                       ref_loss_db=ck.num(entry, "ref_loss_db", p, path_loss[lc].ref_loss_db),
                       ref_dist_m=ck.num(entry, "ref_dist_m", p, path_loss[lc].ref_dist_m),
                       exponent=ck.num(entry, "exponent", p, path_loss[lc].exponent))
        if built is not None:
            path_loss[lc] = built
    tp = ck.section(sec.get("tx_power_dbm"), f"{path}.tx_power_dbm", {"on_body", "in_body"})
    params = ChannelParams(
        path_loss=path_loss,
        tx_power_on_body_dbm=ck.num(tp, "on_body", f"{path}.tx_power_dbm", defaults.tx_power_on_body_dbm),
        tx_power_in_body_dbm=ck.num(tp, "in_body", f"{path}.tx_power_dbm", defaults.tx_power_in_body_dbm),
        sensitivity_dbm=ck.num(sec, "sensitivity_dbm", path, defaults.sensitivity_dbm),
        cca_threshold_dbm=ck.num(sec, "cca_threshold_dbm", path, defaults.cca_threshold_dbm),
        capture_margin_db=ck.num(sec, "capture_margin_db", path, defaults.capture_margin_db, minimum=0),
        wakeup_loss_p=ck.num(sec, "wakeup_loss_p", path, 0.0, minimum=0.0, maximum=1.0),
    )
    return params, sec.get("link_errors", [])


def _link_errors(ck: _Check, raw: object, path: str, node_ids: set[int]) -> LinkErrorTable:
    """Each link joins the BNC (0) or scenario nodes and appears at most once."""
    table = LinkErrorTable()
    if not isinstance(raw, list):
        ck.err(path, "expected a list")
        return table
    first_at: dict[tuple[int, int], int] = {}
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        entry = ck.section(item, p, {"src", "dst", "p_success"})
        src = ck.integer(entry, "src", p, None, minimum=0)
        dst = ck.integer(entry, "dst", p, None, minimum=0)
        prob = ck.num(entry, "p_success", p, None, minimum=0.0, maximum=1.0)
        if src is None or dst is None or prob is None:
            ck.err(p, "needs src, dst and p_success")
            continue
        if not 0.0 <= prob <= 1.0:
            continue  # already reported with its key path
        unknown = [(end, v) for end, v in (("src", src), ("dst", dst))
                   if v != 0 and v not in node_ids]
        for end, v in unknown:
            ck.err(p, f"{end} {v} is neither 0 (the BNC) nor a scenario node")
        if unknown:
            continue
        if (src, dst) in first_at:
            ck.err(p, f"link {src} -> {dst} repeats {path}[{first_at[src, dst]}]")
            continue
        first_at[src, dst] = i
        table.set(src, dst, prob)
    return table


def _energy(ck: _Check, raw: object, path: str) -> EnergyModel:
    sec = ck.section(raw, path, {"tx_mw", "rx_mw", "idle_listen_mw", "sleep_mw", "wakeup_rx_mw"})
    d = EnergyModel()
    built = _build(ck, path, EnergyModel,
                   tx_mw=ck.num(sec, "tx_mw", path, d.tx_mw),
                   rx_mw=ck.num(sec, "rx_mw", path, d.rx_mw),
                   idle_listen_mw=ck.num(sec, "idle_listen_mw", path, d.idle_listen_mw),
                   sleep_mw=ck.num(sec, "sleep_mw", path, d.sleep_mw),
                   wakeup_rx_mw=ck.num(sec, "wakeup_rx_mw", path, d.wakeup_rx_mw))
    return built or d


def _wakeup(ck: _Check, raw: object, path: str) -> WakeupConfig:
    sec = ck.section(raw, path, {"mode", "latency_ms", "signal_airtime_ms", "frequencies"})
    mode_txt = ck.text(sec, "mode", path, "broadcast",
                       choices={a.value for a in Addressing}) or "broadcast"
    latency_ms = ck.num(sec, "latency_ms", path, 5.0, minimum=0)
    airtime_ms = ck.num(sec, "signal_airtime_ms", path, 1.0)
    if airtime_ms is not None and airtime_ms <= 0:
        ck.err(f"{path}.signal_airtime_ms", "must be positive")
        airtime_ms = 1.0
    airtime_us = ck.micros(airtime_ms or 1, 1000, f"{path}.signal_airtime_ms")
    if airtime_us == 0:
        ck.err(f"{path}.signal_airtime_ms", f"{airtime_ms} ms rounds to 0 us")
    freqs = None
    if "frequencies" in sec:
        raw_f = sec["frequencies"]
        if not isinstance(raw_f, dict):
            ck.err(f"{path}.frequencies", "expected a mapping of node id -> tone")
        else:
            freqs = {}
            for k, v in raw_f.items():
                if not isinstance(k, int) or isinstance(v, bool) or not isinstance(v, int):
                    ck.err(f"{path}.frequencies", f"bad entry {k!r}: {v!r}")
                    continue
                freqs[k] = v
    return WakeupConfig(
        mode=Addressing(mode_txt),
        latency_us=ck.micros(latency_ms or 0, 1000, f"{path}.latency_ms") or 0,
        signal_airtime_us=airtime_us or 1000,
        frequencies=freqs,
    )


def _frames(ck: _Check, raw: object, path: str, sf: SuperframeConfig) -> FrameParams:
    sec = ck.section(raw, path, {"beacon_bits", "ack_bits", "command_bits",
                                 "default_payload_bits", "bitrate_bps"})
    d = FrameParams()
    built = _build(ck, path, FrameParams,
                   beacon_bits=ck.integer(sec, "beacon_bits", path, d.beacon_bits, minimum=1),
                   ack_bits=ck.integer(sec, "ack_bits", path, d.ack_bits, minimum=1),
                   command_bits=ck.integer(sec, "command_bits", path, d.command_bits, minimum=1),
                   default_payload_bits=ck.integer(sec, "default_payload_bits", path,
                                                   d.default_payload_bits, minimum=1),
                   bitrate_bps=ck.integer(sec, "bitrate_bps", path,
                                          sf.default_bitrate_bps, minimum=1))
    return built or d


def _placement(ck: _Check, raw: object, path: str) -> Placement:
    sec = ck.section(raw, path, {"kind", "x_m", "y_m", "z_m", "depth_m"})
    kind_txt = ck.text(sec, "kind", path, "on_body",
                       choices={k.value for k in PlacementKind}) or "on_body"
    kind = PlacementKind(kind_txt)
    depth = ck.num(sec, "depth_m", path, None)
    built = _build(ck, path, Placement, kind=kind,
                   x_m=ck.num(sec, "x_m", path, 0.0),
                   y_m=ck.num(sec, "y_m", path, 0.0),
                   z_m=ck.num(sec, "z_m", path, 0.0),
                   depth_m=depth)
    return built or Placement(PlacementKind.ON_BODY)


def _nodes(ck: _Check, raw: object, path: str, frames: FrameParams) -> list[NodeConfig]:
    if raw is None:
        ck.err(path, "at least one node is required")
        return []
    if not isinstance(raw, list) or not raw:
        ck.err(path, "expected a non-empty list")
        return []
    nodes: list[NodeConfig] = []
    seen_ids: set[int] = set()
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        sec = ck.section(item, p, {"id", "placement", "class", "criticality",
                                   "wakeup_multiplier", "payload_bits",
                                   "wakeup_receiver", "traffic"})
        node_id = ck.integer(sec, "id", p, None, minimum=1)
        if node_id is None:
            ck.err(p, "node id is required (integers >= 1; 0 is the BNC)")
            continue
        if node_id in seen_ids:
            ck.err(p, f"duplicate node id {node_id}")
            continue
        seen_ids.add(node_id)
        cls_txt = ck.text(sec, "class", p, "normal_medium", choices=_CLASS_TOKENS)
        cls = TrafficClass(cls_txt or "normal_medium")
        crit_txt = ck.text(sec, "criticality", p, "non_critical", choices=_CRIT_TOKENS)
        crit = Criticality(crit_txt or "non_critical")
        placement = _placement(ck, sec.get("placement"), f"{p}.placement")
        payload = ck.integer(sec, "payload_bits", p, frames.default_payload_bits, minimum=1)
        profile = _build(ck, p, NodeProfile,
                         id=node_id, placement=placement, traffic_class=cls,
                         criticality=crit,
                         wakeup_multiplier=ck.integer(sec, "wakeup_multiplier", p, 1, minimum=1),
                         payload_bits=payload,
                         wakeup_receiver=ck.flag(sec, "wakeup_receiver", p, True))
        if profile is None:
            continue
        generator = _generator(ck, sec.get("traffic"), f"{p}.traffic", profile)
        nodes.append(NodeConfig(profile=profile, generator=generator))
    return nodes


def _generator(ck: _Check, raw: object, path: str, profile: NodeProfile) -> GeneratorSpec | None:
    sec = ck.section(raw, path, {"rate_per_hour", "arrival", "phase_s"})
    cls = profile.traffic_class
    if cls.is_on_demand:
        if sec:
            ck.err(path, "on-demand nodes are reactive; they take no traffic section")
        return None
    arrival_txt = ck.text(sec, "arrival", path, DEFAULT_ARRIVAL[cls].value,
                          choices=_ARRIVAL_TOKENS)
    arrival = ArrivalProcess(arrival_txt or DEFAULT_ARRIVAL[cls].value)
    rate = ck.num(sec, "rate_per_hour", path, DEFAULT_RATE_PER_HOUR[cls])
    # normal traffic staggers by node id to avoid pathological phase alignment
    default_phase_s = float(profile.id) if arrival is ArrivalProcess.PERIODIC else 0.0
    phase_s = ck.num(sec, "phase_s", path, default_phase_s, minimum=0)
    phase_us = ck.micros(phase_s or 0, 1_000_000, f"{path}.phase_s")
    if phase_us is None:
        return None
    return _build(ck, path, GeneratorSpec,
                  traffic_class=cls, payload_bits=profile.payload_bits,
                  rate_per_hour=rate if arrival is not ArrivalProcess.SATURATED else 0.0,
                  arrival=arrival, phase_us=phase_us)


def _on_demand(
    ck: _Check, raw: object, path: str, horizon_us: SimTime
) -> list[tuple[OnDemandEntry, str | None]]:
    """Entries paired with their raw mode text; resolved in _cross_checks."""
    if raw is None:
        return []
    if not isinstance(raw, list):
        ck.err(path, "expected a list")
        return []
    entries: list[tuple[OnDemandEntry, str | None]] = []
    for i, item in enumerate(raw):
        p = f"{path}[{i}]"
        sec = ck.section(item, p, {"time_s", "target", "mode", "rate_per_s", "duration_s"})
        time_s = ck.num(sec, "time_s", p, None, minimum=0)
        target = ck.integer(sec, "target", p, None, minimum=1)
        mode = ck.text(sec, "mode", p, None, choices={"continuous", "non_continuous"})
        if time_s is None or target is None:
            ck.err(p, "needs time_s and target")
            continue
        time_us = ck.micros(time_s, 1_000_000, f"{p}.time_s")
        duration_us = ck.micros(ck.num(sec, "duration_s", p, 0.0) or 0, 1_000_000,
                                f"{p}.duration_s")
        if time_us is None or duration_us is None:
            continue
        if time_us > horizon_us:
            ck.err(p, f"time_s {time_s} is beyond the run horizon")
        continuous = mode == "continuous"
        entry = _build(ck, p, OnDemandEntry,
                       time_us=time_us, target=target, continuous=continuous,
                       rate_per_s=ck.num(sec, "rate_per_s", p, 0.0),
                       duration_us=duration_us)
        if entry is not None:
            entries.append((entry, mode))
    return entries


def _tdma(ck: _Check, raw: object, path: str) -> TdmaSchedule | None:
    sec = ck.section(raw, path, {"slot_duration_ms", "slots_per_superframe", "slots"})
    duration_ms = ck.num(sec, "slot_duration_ms", path, 4.0)
    if duration_ms is not None and duration_ms <= 0:
        ck.err(f"{path}.slot_duration_ms", "must be positive")
        duration_ms = 4.0
    slots_raw = sec.get("slots")
    if not isinstance(slots_raw, dict) or not slots_raw:
        ck.err(f"{path}.slots", "tdma requires a node id -> slot index mapping")
        return None
    slots: dict[int, int] = {}
    for k, v in slots_raw.items():
        if not isinstance(k, int) or isinstance(v, bool) or not isinstance(v, int):
            ck.err(f"{path}.slots", f"bad entry {k!r}: {v!r}")
            continue
        slots[k] = v
    n_slots = ck.integer(sec, "slots_per_superframe", path,
                         max(slots.values(), default=0) + 1, minimum=1)
    slot_us = ck.micros(duration_ms or 4.0, 1000, f"{path}.slot_duration_ms")
    if slot_us is None:
        return None
    return _build(ck, path, TdmaSchedule,
                  slots=slots,
                  slot_duration_us=slot_us,
                  slots_per_superframe=n_slots)


def _cross_checks(ck, name, mac, nodes, on_demand, tdma, wakeup, superframe,
                  frames) -> None:
    ids = {n.profile.id for n in nodes}
    by_id = {n.profile.id: n for n in nodes}
    resolved: list[OnDemandEntry] = []
    for i, (entry, mode) in enumerate(on_demand):
        p = f"{name}.on_demand[{i}]"
        target = by_id.get(entry.target)
        if target is None:
            ck.err(p, f"target {entry.target} is not a scenario node")
            continue
        if not target.profile.wakeup_receiver:
            ck.err(p, f"target {entry.target} has no wakeup receiver")
        if mode is None and target.profile.traffic_class is TrafficClass.ON_DEMAND_CONTINUOUS:
            ck.err(p, "continuous-mode query needs explicit rate_per_s/duration_s; set mode")
        if wakeup.mode is Addressing.FREQUENCY_ADDRESSED:
            if wakeup.frequencies is None or entry.target not in wakeup.frequencies:
                ck.err(p, f"frequency-addressed mode: node {entry.target} has no "
                          "entry under wakeup.frequencies")
        resolved.append(entry)
    on_demand[:] = resolved

    if mac == "tdma":
        if tdma is None:
            ck.err(f"{name}.tdma", "mac 'tdma' requires a tdma section")
            return
        for node_id in ids:
            if node_id not in tdma.slots:
                ck.err(f"{name}.tdma.slots", f"node {node_id} has no slot assignment")
        for node_id in tdma.slots:
            if node_id not in ids:
                ck.err(f"{name}.tdma.slots", f"slot assigned to unknown node {node_id}")
        beacon_air = airtime(frames.beacon_bits, frames.bitrate_bps)
        region = tdma.region_us + beacon_air
        if region > superframe.beacon_interval_us:
            ck.err(f"{name}.tdma", f"slot region + beacon ({region} us) exceeds the "
                                   f"beacon interval ({superframe.beacon_interval_us} us)")
        for node in nodes:
            air = airtime(node.profile.payload_bits, frames.bitrate_bps)
            if air > tdma.slot_duration_us:
                ck.err(f"{name}.nodes", f"node {node.profile.id}: frame airtime {air} us "
                                        f"exceeds slot duration {tdma.slot_duration_us} us")
        return
    # CSMA: the fit rule of CsmaMac.on_backoff_expired, applied at the earliest
    # backoff boundary after the beacon.  A frame that fails it would queue forever.
    ubp = superframe.unit_backoff_us
    beacon_air = airtime(frames.beacon_bits, frames.bitrate_bps)
    cap_us = superframe.active_duration_us - -(-beacon_air // ubp) * ubp
    overhead = 2 * ubp + superframe.turnaround_us + airtime(frames.ack_bits, frames.bitrate_bps)
    for node in nodes:
        needed = overhead + airtime(node.profile.payload_bits, frames.bitrate_bps)
        if needed > cap_us:
            ck.err(f"{name}.nodes", f"node {node.profile.id}: acked transaction "
                                    f"({needed} us with both CCAs) exceeds the CAP after "
                                    f"the beacon ({cap_us} us)")
    # A continuous query ends with the coordinator's stop command, which
    # contends like any data frame.
    if any(entry.continuous for entry in on_demand):
        needed = overhead + airtime(frames.command_bits, frames.bitrate_bps)
        if needed > cap_us:
            ck.err(f"{name}.frames.command_bits",
                   f"{frames.command_bits} bits: the stop command's acked transaction "
                   f"({needed} us with both CCAs) exceeds the CAP after the beacon "
                   f"({cap_us} us)")
