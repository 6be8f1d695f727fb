import copy
import importlib.util
import math
from enum import Enum
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from wbansim.channel import LinkClass
from wbansim.core import Criticality, PlacementKind, TrafficClass
import wbansim.scenario
from wbansim.scenario import ScenarioError, ScenarioLoader, load_scenario, parse_scenario
from wbansim.simulation import Simulation
from wbansim.traffic import ArrivalProcess

from conftest import base_scenario_dict


def minimal():
    return {"mac": "csma", "horizon_s": 10.0, "nodes": [{"id": 1}]}


def with_rate(rate_per_hour):
    raw = minimal()
    raw["nodes"][0]["traffic"] = {"rate_per_hour": rate_per_hour}
    return raw


def with_key(path, value, raw=None):
    """`raw` (default: `minimal()`) with `value` set at `path`."""
    raw = raw or minimal()
    *up, key = path
    d = raw
    for step in up:
        d = d.setdefault(step, {}) if isinstance(step, str) else d[step]
    d[key] = value
    return raw


def with_stream(rate_per_s):
    raw = minimal()
    raw["nodes"][0]["class"] = "on_demand_continuous"
    raw["on_demand"] = [{"time_s": 1.0, "target": 1, "mode": "continuous",
                         "rate_per_s": rate_per_s, "duration_s": 2.0}]
    return raw


# Each of these hung the run, crashed it, or failed without a key path.
NUMERIC_TRAPS = [
    pytest.param({**minimal(), "horizon_s": math.nan},
                 r"scenario\.horizon_s: must be finite", id="horizon-nan"),
    pytest.param({**minimal(), "horizon_s": math.inf},
                 r"scenario\.horizon_s: must be finite", id="horizon-inf"),
    pytest.param(with_rate(math.nan),
                 r"nodes\[0\]\.traffic\.rate_per_hour: must be finite", id="rate-nan"),
    pytest.param(with_rate(math.inf),
                 r"nodes\[0\]\.traffic\.rate_per_hour: must be finite", id="rate-inf"),
    pytest.param(with_rate(10_000_000_000),  # 0.36 us period
                 r"nodes\[0\]\.traffic: .* period under 1 us", id="rate-period-0us"),
    pytest.param(with_stream(5_000_000),  # 0.2 us interval
                 r"on_demand\[0\]: .* interval under 1 us", id="stream-interval-0us"),
    pytest.param(with_stream(math.inf),
                 r"on_demand\[0\]\.rate_per_s: must be finite", id="stream-inf"),
    pytest.param(with_rate(1e-300),
                 r"nodes\[0\]\.traffic: .* mean interval over", id="rate-period-inf"),
    pytest.param(with_stream(1e-300),
                 r"on_demand\[0\]: .* stream interval over", id="stream-interval-inf"),
    # Times whose conversion to microseconds overflows a float.
    pytest.param(with_key(("horizon_s",), 1e303), r"scenario\.horizon_s: 1e\+303 is too large",
                 id="horizon_s"),
    pytest.param(with_key(("on_demand", 0, "time_s"), 1e303, with_stream(5)),
                 r"scenario\.on_demand\[0\]\.time_s: 1e\+303 is too large", id="time_s"),
    pytest.param(with_key(("on_demand", 0, "duration_s"), 1e303, with_stream(5)),
                 r"scenario\.on_demand\[0\]\.duration_s: 1e\+303 is too large", id="duration_s"),
    pytest.param(with_key(("nodes", 0, "traffic"), {"phase_s": 1e303}),
                 r"scenario\.nodes\[0\]\.traffic\.phase_s: 1e\+303 is too large", id="phase_s"),
    pytest.param(with_key(("wakeup", "latency_ms"), 1.7e308),
                 r"scenario\.wakeup\.latency_ms: 1\.7e\+308 is too large", id="latency_ms"),
    pytest.param(with_key(("wakeup", "signal_airtime_ms"), 1.7e308),
                 r"scenario\.wakeup\.signal_airtime_ms: 1\.7e\+308 is too large",
                 id="signal_airtime_ms"),
    pytest.param(with_key(("tdma",), {"slot_duration_ms": 1.7e308, "slots": {1: 0}},
                          {**minimal(), "mac": "tdma"}),
                 r"scenario\.tdma\.slot_duration_ms: 1\.7e\+308 is too large",
                 id="slot_duration_ms"),
    pytest.param(with_key(("wakeup", "signal_airtime_ms"), 0.0001),
                 r"signal_airtime_ms: 0\.0001 ms rounds to 0 us", id="signal-airtime-0us"),
    pytest.param(with_key(("channel",), {"link_errors": [{"src": 1, "dst": 0, "p_success": -1}]}),
                 r"link_errors\[0\]\.p_success: must be >= 0", id="link-p-negative"),
    pytest.param(with_key(("tdma",), {"slot_duration_ms": 0.0001, "slots": {1: 0}},
                          {**minimal(), "mac": "tdma"}),
                 r"scenario\.tdma\.slot_duration_ms: 0\.0001 ms rounds to 0 us",
                 id="slot-duration-0us"),
    # Link budgets too large for milliwatts: the first beacon's TxEnd raised
    # OverflowError.
    pytest.param(base_scenario_dict(channel={"tx_power_dbm": {"on_body": 4000}}),
                 r"scenario\.channel: link 0 -> 1: received power 3970\.46 dBm is too large",
                 id="tx-power-overflow"),
    pytest.param(base_scenario_dict(channel={"path_loss": {"on_body": {"exponent": 1e10}}}),
                 r"scenario\.channel: link 0 -> 0: received power 3e\+11 dBm is too large",
                 id="exponent-overflow"),
    pytest.param(base_scenario_dict(channel={"path_loss": {"on_body": {
                     "ref_dist_m": 1e300, "ref_loss_db": 1e-300}}}),
                 r"scenario\.channel: link 1 -> 1: received power 6060 dBm is too large",
                 id="ref-dist-overflow"),
    # Link budgets that are not a number: 10 x exponent overflows to inf, and
    # inf x log10(1) at the reference distance is NaN.  The run delivered
    # every frame, since no comparison with NaN holds.
    pytest.param(base_scenario_dict(channel={"path_loss": {"on_body": {
                     "exponent": 1e308, "ref_dist_m": 0.3}}}),
                 r"scenario\.channel: link 0 -> 1: received power nan dBm is not finite",
                 id="exponent-nan"),
]


class TestDefaults:
    def test_minimal_file_materializes_all_defaults(self):
        scn = parse_scenario(minimal())
        assert scn.mac == "csma"
        assert scn.seed == 1
        assert scn.superframe.beacon_order == 6
        assert scn.backoff.min_be_critical == 2
        assert scn.backoff.min_be_noncritical == 4
        assert scn.channel_params.sensitivity_dbm == -95.0
        assert scn.channel_params.cca_threshold_dbm == -85.0
        assert scn.channel_params.path_loss[LinkClass.IN_TO_ON].exponent == 4.5
        assert scn.energy.tx_mw == 52.2
        assert scn.wakeup.latency_us == 5000
        assert scn.frames.bitrate_bps == 250_000
        node = scn.nodes[0]
        assert node.profile.traffic_class is TrafficClass.NORMAL_MEDIUM
        assert node.profile.criticality is Criticality.NON_CRITICAL
        assert node.profile.wakeup_multiplier == 1
        assert node.profile.payload_bits == 800
        assert node.generator.arrival is ArrivalProcess.PERIODIC
        assert node.generator.rate_per_hour == 1.0
        assert node.generator.phase_us == 1_000_000  # staggered by node id

    def test_bitrate_derives_from_the_symbol_rate(self):
        scn = parse_scenario(with_key(("superframe", "symbol_rate_sps"), 31_250))
        assert scn.frames.bitrate_bps == 125_000

    def test_placement_defaults_to_on_body_origin(self):
        scn = parse_scenario(minimal())
        assert scn.nodes[0].profile.placement.kind is PlacementKind.ON_BODY
        assert scn.bnc_placement.kind is PlacementKind.ON_BODY


class TestRejections:
    def test_duplicate_node_id_named(self):
        raw = minimal()
        raw["nodes"].append({"id": 1})
        with pytest.raises(ScenarioError, match="duplicate node id 1"):
            parse_scenario(raw)

    def test_unknown_top_level_key(self):
        raw = minimal()
        raw["spurious_knob"] = 3
        with pytest.raises(ScenarioError, match="unknown key 'spurious_knob'"):
            parse_scenario(raw)

    def test_unknown_nested_key(self):
        raw = minimal()
        raw["superframe"] = {"beacon_order": 6, "cargo": 1}
        with pytest.raises(ScenarioError, match="superframe: unknown key 'cargo'"):
            parse_scenario(raw)

    def test_deepest_implant_loads(self):
        raw = with_key(("nodes", 0, "placement"), {"kind": "in_body", "depth_m": 0.2})
        assert parse_scenario(raw).nodes[0].profile.placement.depth_m == 0.2

    def test_tdma_frame_larger_than_slot_cites_both_values(self):
        raw = {
            "mac": "tdma",
            "horizon_s": 10.0,
            "superframe": {"beacon_order": 3, "superframe_order": 3},
            "tdma": {"slot_duration_ms": 2.0, "slots": {1: 0}},
            "nodes": [{"id": 1, "payload_bits": 4000}],  # 16 ms airtime at 250 kbps
        }
        with pytest.raises(ScenarioError, match=r"16000 us.*2000 us"):
            parse_scenario(raw)

    def test_tdma_requires_slot_for_every_node(self):
        raw = {
            "mac": "tdma",
            "horizon_s": 10.0,
            "superframe": {"beacon_order": 3, "superframe_order": 3},
            "tdma": {"slot_duration_ms": 4.0, "slots": {1: 0}},
            "nodes": [{"id": 1}, {"id": 2}],
        }
        with pytest.raises(ScenarioError, match="node 2 has no slot assignment"):
            parse_scenario(raw)

    def test_all_violations_reported_together(self):
        raw = minimal()
        raw["nodes"].append({"id": 1})          # duplicate
        raw["mystery"] = True                    # unknown key
        raw["nodes"][0]["wakeup_multiplier"] = 0  # bad multiplier
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.violations == [
            "scenario: unknown key 'mystery'",
            "scenario.nodes[0].wakeup_multiplier: must be >= 1, got 0",
            "scenario.nodes[1]: duplicate node id 1",
        ]

    def test_on_demand_target_must_exist(self):
        raw = minimal()
        raw["on_demand"] = [{"time_s": 1.0, "target": 9, "mode": "non_continuous"}]
        with pytest.raises(ScenarioError, match="target 9"):
            parse_scenario(raw)

    def test_frequency_addressed_needs_assignment(self):
        raw = minimal()
        raw["wakeup"] = {"mode": "frequency_addressed"}
        raw["on_demand"] = [{"time_s": 1.0, "target": 1, "mode": "non_continuous"}]
        with pytest.raises(ScenarioError, match="wakeup.frequencies"):
            parse_scenario(raw)

    def test_on_demand_node_takes_no_traffic_section(self):
        raw = minimal()
        raw["nodes"][0]["class"] = "on_demand_non_continuous"
        raw["nodes"][0]["traffic"] = {"rate_per_hour": 4}
        with pytest.raises(ScenarioError, match="reactive"):
            parse_scenario(raw)

    def test_horizon_required(self):
        raw = {"mac": "csma", "nodes": [{"id": 1}]}
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(raw)

    def test_only_one_horizon(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario({**minimal(), "horizon_superframes": 20})
        assert err.value.violations == [
            "scenario: give only one of horizon_s / horizon_superframes"]

    def test_document_must_be_a_mapping(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario([{"mac": "csma"}])
        assert err.value.violations == ["scenario: scenario file is not a mapping"]

    @pytest.mark.parametrize("raw, match", NUMERIC_TRAPS)
    def test_numbers_that_would_hang_or_crash_a_run(self, raw, match):
        with pytest.raises(ScenarioError, match=match):
            parse_scenario(raw)

    @pytest.mark.parametrize("horizon_s, horizon_us", [
        (0.0000004, 0),      # rounds to 0 us: used to run a zero-length simulation
        (0.0000006, 1),
        (0.5, 500_000),      # under the default 983 040 us beacon interval
    ])
    def test_horizon_below_one_beacon_interval_names_the_key(self, horizon_s, horizon_us):
        with pytest.raises(ScenarioError) as err:
            parse_scenario({**minimal(), "horizon_s": horizon_s})
        assert err.value.violations == [
            f"scenario.horizon_s: horizon shorter than one beacon interval "
            f"({horizon_us} us < 983040 us)"
        ]

    def test_horizon_of_exactly_one_beacon_interval_is_accepted(self):
        scn = parse_scenario({**minimal(), "horizon_s": 0.98304})
        assert scn.horizon_us == scn.superframe.beacon_interval_us

    @pytest.mark.parametrize("links, messages", [
        ([{"src": 33, "dst": 0, "p_success": 0.8}],
         ["src 33 is neither 0 (the BNC) nor a scenario node"]),
        ([{"src": 0, "dst": 9, "p_success": 0.8}],
         ["dst 9 is neither 0 (the BNC) nor a scenario node"]),
        ([{"src": 7, "dst": 8, "p_success": 0.8}],
         ["src 7 is neither 0 (the BNC) nor a scenario node",
          "dst 8 is neither 0 (the BNC) nor a scenario node"]),
        ([{"src": 1, "dst": 0, "p_success": 0.9}, {"src": 1, "dst": 0, "p_success": 0.5}],
         ["link 1 -> 0 repeats scenario.channel.link_errors[0]"]),
        ([{"src": 1, "dst": 2, "p_success": 0.5}],
         ["link 1 -> 2 does not join 0 (the BNC) to a node"]),
        ([{"src": 1, "dst": 0, "p_success": 0.9}, {"src": 1, "dst": 1, "p_success": 0.5}],
         ["link 1 -> 1 does not join 0 (the BNC) to a node"]),
        ([{"src": 0, "dst": 0, "p_success": 0.5}],
         ["link 0 -> 0 does not join 0 (the BNC) to a node"]),
    ], ids=["unknown-src", "unknown-dst", "unknown-both", "repeated-pair", "node-to-node",
            "self-link", "bnc-to-bnc"])
    def test_link_error_entry_names_its_index(self, links, messages):
        raw = minimal()
        raw["nodes"].append({"id": 2})
        raw["channel"] = {"link_errors": links}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        index = len(links) - 1
        assert err.value.violations == [
            f"scenario.channel.link_errors[{index}]: {m}" for m in messages
        ]

    def test_csma_transaction_longer_than_cap_cites_both_values(self):
        # BO = SO = 0: a 15 360 us active period, of which 14 080 us follow the
        # first backoff boundary after the 1 216 us beacon.  Two CCAs (640 us),
        # turnaround (192 us) and the ack (352 us) leave 12 896 us of data,
        # which is 3 224 bits at 250 kbps.
        raw = base_scenario_dict(superframe={"beacon_order": 0, "superframe_order": 0})
        raw["nodes"][0]["payload_bits"] = 3225
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.violations == [
            "scenario.nodes: node 1: acked transaction (14084 us with both CCAs) "
            "exceeds the CAP after the beacon (14080 us)"
        ]
        raw["nodes"][0]["payload_bits"] = 3224
        parse_scenario(raw)

    def test_csma_ack_ending_at_the_ack_wait_cites_both_values(self):
        # Turnaround (192 us) plus 168 bits of ack at 250 kbps (672 us) end
        # exactly at the 864 us ack wait: its timeout, queued first, wins.
        raw = base_scenario_dict(frames={"ack_bits": 168})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.violations == [
            "scenario.frames.ack_bits: 168 bits: turnaround + ack airtime (864 us) "
            "must be below the ack wait (864 us)"
        ]
        raw["frames"]["ack_bits"] = 167
        parse_scenario(raw)
        # TDMA sends no ack.
        parse_scenario(with_key(("frames", "ack_bits"), 168, tdma_minimal()))

    def test_csma_stop_command_longer_than_cap_cites_both_values(self):
        # The same CAP as above: a continuous query's stop command obeys the
        # data frame's fit rule, so 3 224 bits fit and 3 225 do not.
        raw = base_scenario_dict(superframe={"beacon_order": 0, "superframe_order": 0})
        raw["nodes"][0]["class"] = "on_demand_continuous"
        del raw["nodes"][0]["traffic"]
        raw["on_demand"] = [{"time_s": 0.5, "target": 1, "mode": "continuous",
                             "rate_per_s": 10.0, "duration_s": 0.5}]
        raw["frames"] = {"command_bits": 3225}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.violations == [
            "scenario.frames.command_bits: 3225 bits: the stop command's acked transaction "
            "(14084 us with both CCAs) exceeds the CAP after the beacon (14080 us)"
        ]
        raw["frames"]["command_bits"] = 3224
        parse_scenario(raw)
        # Without a continuous query no stop command is ever sent.
        raw["frames"]["command_bits"] = 40000
        raw["on_demand"] = [{"time_s": 0.5, "target": 1, "mode": "non_continuous"}]
        raw["nodes"][0]["class"] = "on_demand_non_continuous"
        parse_scenario(raw)


def tdma_minimal():
    return {"mac": "tdma", "horizon_s": 10.0, "nodes": [{"id": 1}],
            "superframe": {"beacon_order": 3, "superframe_order": 3}, "tdma": {"slots": {1: 0}}}


def with_query(raw=None):
    raw = raw or minimal()
    raw["on_demand"] = [{"time_s": 1, "target": 1, "mode": "non_continuous"}]
    return raw


class TestNullIsAbsent:
    """Each of these keys used to give `null` a meaning of its own: a seed of
    None, a sensitivity of None that crashed the run, a TypeError without a
    key path, a latency of 0 us, or a violation naming no key."""

    @pytest.mark.parametrize("path, attribute, default", [
        (("seed",), lambda s: s.seed, 1),
        (("channel", "sensitivity_dbm"), lambda s: s.channel_params.sensitivity_dbm, -95.0),
        (("frames", "ack_bits"), lambda s: s.frames.ack_bits, 88),
        (("wakeup", "latency_ms"), lambda s: s.wakeup.latency_us, 5000),
        (("superframe", "beacon_order"), lambda s: s.superframe.beacon_order, 6),
    ], ids=["seed", "sensitivity_dbm", "ack_bits", "latency_ms", "beacon_order"])
    def test_null_takes_the_default(self, path, attribute, default):
        assert attribute(parse_scenario(with_key(path, None))) == default


class TestOneViolationPerRejectedValue:
    """A value that fails its own check is reported once, at its key path,
    and nothing runs on it afterwards.  Each of these used to add a second
    or third violation, or to crash the loader, unless its comment says
    otherwise."""

    @pytest.mark.parametrize("raw, violation", [
        (with_key(("frames", "beacon_bits"), 0), "frames.beacon_bits: must be >= 1, got 0"),
        (with_key(("frames", "ack_bits"), 0), "frames.ack_bits: must be >= 1, got 0"),
        (with_key(("frames", "bitrate_bps"), 0), "frames.bitrate_bps: must be >= 1, got 0"),
        (with_key(("frames", "bitrate_bps"), -5), "frames.bitrate_bps: must be >= 1, got -5"),
        (with_key(("nodes", 0, "id"), 0), "nodes[0].id: must be >= 1, got 0"),
        (with_key(("nodes", 0, "wakeup_multiplier"), 0),
         "nodes[0].wakeup_multiplier: must be >= 1, got 0"),
        (with_key(("nodes", 0, "payload_bits"), 0), "nodes[0].payload_bits: must be >= 1, got 0"),
        (with_key(("frames", "default_payload_bits"), 0),
         "frames.default_payload_bits: must be >= 1, got 0"),
        (with_key(("frames", "default_payload_bits"), 0, tdma_minimal()),
         "frames.default_payload_bits: must be >= 1, got 0"),
        (with_key(("tdma", "slots_per_superframe"), 0, tdma_minimal()),
         "tdma.slots_per_superframe: must be >= 1, got 0"),
        # The derived slot count used to be 0, a value of a key never set.
        (with_key(("tdma", "slots"), {1: -1}, tdma_minimal()),
         "tdma: node 1: slot index -1 out of range"),
        ({**with_query(), "horizon_s": None, "horizon_superframes": 0},
         "horizon_superframes: must be >= 1, got 0"),
        (with_key(("on_demand", 0, "target"), 0, with_query()),
         "on_demand[0].target: must be >= 1, got 0"),
        (with_key(("on_demand", 0, "target"), "x", with_query()),
         "on_demand[0].target: expected a number, got 'x'"),
        (with_key(("channel", "link_errors"), [{"src": -1, "dst": 0, "p_success": 0.5}]),
         "channel.link_errors[0].src: must be >= 0, got -1"),
        (with_key(("nodes",), []), "nodes: expected a non-empty list"),
        (with_key(("nodes",), [5]), "nodes[0]: expected a mapping, got int"),
        (with_key(("tdma",), 5, tdma_minimal()), "tdma: expected a mapping, got int"),
        # These used to load: a negative power gave a negative energy, and a
        # YAML boolean key stood for node 1.
        (with_key(("energy", "wakeup_rx_mw"), -5.0),
         "energy.wakeup_rx_mw: must be >= 0, got -5.0"),
        (with_key(("tdma", "slots"), {True: 0}, tdma_minimal()), "tdma.slots: bad entry True: 0"),
        (with_key(("wakeup", "frequencies"), {True: 1}), "wakeup.frequencies: bad entry True: 1"),
        # These were checked by a record constructor at the record's path.
        (with_key(("channel", "path_loss", "on_body"), {"ref_loss_db": 0}),
         "channel.path_loss.on_body.ref_loss_db: must be positive"),
        (with_key(("channel", "path_loss", "in_to_on"), {"ref_dist_m": -1}),
         "channel.path_loss.in_to_on.ref_dist_m: must be positive"),
        (with_key(("channel", "path_loss", "in_to_in"), {"exponent": 1.4}),
         "channel.path_loss.in_to_in.exponent: must be >= 1.5, got 1.4"),
        (with_key(("mac_params", "max_csma_backoffs"), -1),
         "mac_params.max_csma_backoffs: must be >= 0, got -1"),
        (with_key(("mac_params", "max_frame_retries"), -1),
         "mac_params.max_frame_retries: must be >= 0, got -1"),
        # These reach checks that no other input reached.
        (with_key(("channel", "link_errors"), [{"src": 1, "dst": 0, "p_success": 1.5}]),
         "channel.link_errors[0].p_success: must be <= 1.0, got 1.5"),
        (with_key(("tdma", "slots"), {}, tdma_minimal()),
         "tdma.slots: tdma requires a node id -> slot index mapping"),
        (with_key(("tdma", "slots"), {1: 0, 2: 1}, tdma_minimal()),
         "tdma.slots: slot assigned to unknown node 2"),
        (with_key(("channel",), 5), "channel: expected a mapping, got int"),
        (with_key(("channel", "path_loss"), 5), "channel.path_loss: expected a mapping, got int"),
        (with_key(("channel", "link_errors"), 5), "channel.link_errors: expected a list"),
        (with_key(("on_demand", 0, "time_s"), 11, with_query()),
         "on_demand[0]: time_s 11 is beyond the run horizon"),
        (with_key(("nodes", 0, "wakeup_receiver"), False, with_query()),
         "on_demand[0]: target 1 has no wakeup receiver"),
        # These were checked by a record constructor at the record's path.
        (with_key(("superframe", "beacon_order"), 15),
         "superframe.beacon_order: must be <= 14, got 15"),
        (with_key(("superframe", "superframe_order"), -1),
         "superframe.superframe_order: must be >= 0, got -1"),
        (with_key(("superframe", "symbol_rate_sps"), 60_000),
         "superframe.symbol_rate_sps: must divide 1000000 for exact microsecond timing, "
         "got 60000"),
        (with_key(("superframe", "symbol_rate_sps"), 0),
         "superframe.symbol_rate_sps: must be >= 1, got 0"),
        (with_key(("nodes", 0, "placement"), {"kind": "in_body", "depth_m": 0.5}),
         "nodes[0].placement.depth_m: must be <= 0.2, got 0.5"),
        (with_key(("nodes", 0, "placement"), {"kind": "in_body", "depth_m": 0.0}),
         "nodes[0].placement.depth_m: must be positive"),
        # SuperframeConfig keeps the rule across its two orders.
        (with_key(("superframe",), {"beacon_order": 3, "superframe_order": 4}),
         "superframe: need SO <= BO, got SO=4 BO=3"),
    ], ids=lambda v: v.split(":")[0] if isinstance(v, str) else None)
    def test_reproducer(self, raw, violation):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.violations == [f"scenario.{violation}"]


class TestValuesThatWouldBeIgnored:
    """Each of these used to load and then be dropped without a word."""

    def violations(self, raw):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        return err.value.violations

    def test_saturated_node_takes_no_rate(self):
        raw = with_key(("nodes", 0, "traffic"), {"arrival": "saturated", "rate_per_hour": 5})
        assert self.violations(raw) == [
            "scenario.nodes[0].traffic.rate_per_hour: a saturated node takes no rate"]
        del raw["nodes"][0]["traffic"]["rate_per_hour"]
        assert parse_scenario(raw).nodes[0].generator.arrival is ArrivalProcess.SATURATED

    def test_saturated_node_takes_no_phase(self):
        raw = with_key(("nodes", 0, "traffic"), {"arrival": "saturated", "phase_s": 5})
        assert self.violations(raw) == [
            "scenario.nodes[0].traffic.phase_s: a saturated node takes no phase"]
        del raw["nodes"][0]["traffic"]["phase_s"]
        assert parse_scenario(raw).nodes[0].generator.phase_us == 0

    def test_frequency_of_an_unknown_node(self):
        raw = with_key(("wakeup", "frequencies"), {1: 2, 99: 1})
        assert self.violations(raw) == [
            "scenario.wakeup.frequencies: tone assigned to unknown node 99"]
        del raw["wakeup"]["frequencies"][99]
        assert parse_scenario(raw).wakeup.frequencies == {1: 2}

    def test_non_continuous_query_takes_no_rate_or_duration(self):
        raw = with_query(with_key(("nodes", 0, "class"), "on_demand_non_continuous"))
        raw["on_demand"][0].update(rate_per_s=-3, duration_s=-5)
        message = "only a continuous query takes it; this one is non_continuous"
        assert self.violations(raw) == [f"scenario.on_demand[0].rate_per_s: {message}",
                                        f"scenario.on_demand[0].duration_s: {message}"]
        del raw["on_demand"][0]["rate_per_s"], raw["on_demand"][0]["duration_s"]
        assert parse_scenario(raw).on_demand[0].continuous is False


class TestLoadFromFile(object):
    def test_round_trip_through_yaml(self, tmp_path):
        import yaml

        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(base_scenario_dict()), encoding="utf-8")
        scn = load_scenario(path)
        assert scn.name == "tiny"
        assert scn.nodes[0].profile.id == 1

    def test_link_errors_parse(self):
        raw = minimal()
        raw["channel"] = {"link_errors": [{"src": 1, "dst": 0, "p_success": 0.84}]}
        scn = parse_scenario(raw)
        assert scn.link_errors == {(1, 0): 0.84}

    def test_horizon_superframes_is_exact(self):
        raw = minimal()
        del raw["horizon_s"]
        raw["horizon_superframes"] = 430
        scn = parse_scenario(raw)
        assert scn.horizon_us == 430 * scn.superframe.beacon_interval_us


SHIPPED = {p.stem: yaml.safe_load(p.read_text())
           for p in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.yaml"))}

# Two valid scenarios that together set every declared key.
FULL_CSMA = {
    "mac": "csma", "horizon_s": 600, "seed": 7,
    "superframe": {"beacon_order": 6, "superframe_order": 5, "symbol_rate_sps": 62500},
    "mac_params": {"min_be_critical": 1, "min_be_noncritical": 3, "max_be": 5,
                   "max_csma_backoffs": 3, "max_frame_retries": 2},
    "channel": {
        "path_loss": {"on_body": {"ref_loss_db": 41.0, "ref_dist_m": 1.0, "exponent": 2.1},
                      "in_to_on": {"ref_loss_db": 61.0, "ref_dist_m": 1.0, "exponent": 4.4},
                      "in_to_in": {"ref_loss_db": 59.0, "ref_dist_m": 0.5, "exponent": 6.1}},
        "tx_power_dbm": {"on_body": -1.0, "in_body": -15.0},
        "sensitivity_dbm": -94.0, "cca_threshold_dbm": -84.0, "capture_margin_db": 9.0,
        "wakeup_loss_p": 0.1,
        "link_errors": [{"src": 1, "dst": 0, "p_success": 0.9}],
    },
    "energy": {"tx_mw": 50.0, "rx_mw": 55.0, "idle_listen_mw": 1.2, "sleep_mw": 0.05,
               "wakeup_rx_mw": 0.02},
    "wakeup": {"mode": "frequency_addressed", "latency_ms": 4.0, "signal_airtime_ms": 0.5,
               "frequencies": {2: 1, 3: 2}},
    "frames": {"beacon_bits": 300, "ack_bits": 90, "command_bits": 180,
               "default_payload_bits": 700, "bitrate_bps": 250000},
    "bnc": {"placement": {"kind": "on_body", "x_m": 0.0, "y_m": 0.1, "z_m": 0.2}},
    "nodes": [
        {"id": 1, "class": "emergency", "criticality": "critical", "wakeup_multiplier": 4,
         "payload_bits": 600, "wakeup_receiver": True,
         "placement": {"kind": "in_body", "x_m": 0.01, "y_m": 0.05, "z_m": 0.25,
                       "depth_m": 0.08},
         "traffic": {"rate_per_hour": 30.0, "arrival": "poisson", "phase_s": 0.5}},
        {"id": 2, "class": "on_demand_non_continuous", "placement": {"z_m": 0.3}},
        {"id": 3, "class": "on_demand_continuous", "wakeup_multiplier": 2},
    ],
    "on_demand": [
        {"time_s": 100.0, "target": 2, "mode": "non_continuous"},
        {"time_s": 200.0, "target": 3, "mode": "continuous", "rate_per_s": 5, "duration_s": 4},
    ],
}
FULL_TDMA = {
    "mac": "tdma", "horizon_superframes": 100,
    "superframe": {"beacon_order": 1, "superframe_order": 1},
    "tdma": {"slot_duration_ms": 3.4, "slots_per_superframe": 4, "slots": {1: 0, 2: 2}},
    "bnc": {"placement": {"kind": "in_body", "depth_m": 0.05}},
    "nodes": [{"id": 1, "traffic": {"rate_per_hour": 3600.0}}, {"id": 2, "class": "normal_low"}],
}
DOCUMENTS = {**SHIPPED, "full_csma": FULL_CSMA, "full_tdma": FULL_TDMA}


def positions(tree, prefix=()):
    """The key path of every value in a parsed YAML tree, the root excluded."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from positions(child, prefix + (key,))


# Boundary values next to the ones `st.floats()` favours: a time at 1e303 s
# no longer fits a float in microseconds, a rate at 5e-324 gives an infinite
# period.
EXTREMES = [0, -1, 0.5, 1e-9, 5e-324, 1e9, 1e303, 1.7976931348623157e308, 2**63]
NUMBERS = st.one_of(st.integers(), st.floats(), st.sampled_from(EXTREMES))
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def mutated_shipped_scenarios(draw, one_in=8):
    """A shipped scenario or a full fixture in which each value is, with
    probability 1/`one_in`, deleted or replaced: a number mostly by another
    number, anything else by a value of any type.  The fixtures set the
    channel and energy keys that no shipped scenario sets.  Positions are
    visited children first and last sibling first, so every path stays valid
    while the tree changes."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    raw = copy.deepcopy(DOCUMENTS[name])
    for *up, key in reversed(list(positions(raw))):
        if draw(st.integers(1, one_in)) > 1:
            continue
        parent = raw
        for step in up:
            parent = parent[step]
        old = parent[key]
        how = draw(st.integers(0, 3))
        if how == 0:
            del parent[key]
        elif isinstance(old, (int, float)) and not isinstance(old, bool) and how < 3:
            parent[key] = draw(NUMBERS)
        else:
            parent[key] = draw(ANY_VALUE)
    return name, raw


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_shipped_scenarios())
def test_mutated_shipped_scenarios_parse_or_raise_scenario_error(case):
    name, raw = case
    try:
        parse_scenario(raw, name=name)
    except ScenarioError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutated_shipped_scenarios(one_in=48))
def test_accepted_mutants_run(case):
    """Every scenario the loader accepts runs, here for its first 20 ms.  One
    value in 48 changes, so about half of the mutants are accepted."""
    name, raw = case
    try:
        scenario = parse_scenario(raw, name=name)
    except ScenarioError:
        return
    scenario.horizon_us = min(scenario.horizon_us, 20_000)
    Simulation(scenario).run()


# -- one declaration per key: null, rejected values, documented defaults -------


def key_paths(tree, path=()):
    """The dotted key path of each leaf value.  List entries share their
    list's path; a mapping keyed by node id is one value."""
    if isinstance(tree, list):
        for item in tree:
            yield from key_paths(item, path)
    elif isinstance(tree, dict) and tree and all(isinstance(k, str) for k in tree):
        for key, child in tree.items():
            yield from key_paths(child, path + (key,))
    else:
        yield ".".join(path)


def declared_paths(keys=None, path=()):
    for key, spec in (keys or wbansim.scenario.KEYS).items():
        spec = spec[0] if isinstance(spec, list) else spec
        if isinstance(spec, dict):
            yield from declared_paths(spec, path + (key,))
        else:
            yield ".".join(path + (key,))


def dump(obj):
    """A record's attributes, recursively, as plain comparable values."""
    if isinstance(obj, (list, tuple)):
        return type(obj)(dump(x) for x in obj)
    if isinstance(obj, dict):
        return {dump(k): dump(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    names = getattr(obj, "__slots__", None) or vars(obj)
    return (type(obj).__name__, {n: dump(getattr(obj, n)) for n in names})


def outcome(raw, name):
    try:
        return dump(parse_scenario(raw, name=name))
    except ScenarioError as err:
        return err.violations


def at(raw, position):
    """The mapping or list holding `position`, and its last step."""
    *up, key = position
    for step in up:
        raw = raw[step]
    return raw, key


def test_fixtures_set_every_declared_key():
    for name in ("full_csma", "full_tdma"):
        parse_scenario(DOCUMENTS[name], name=name)
    assert set(key_paths(FULL_CSMA)) | set(key_paths(FULL_TDMA)) == set(declared_paths())


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_null_is_a_missing_key(name):
    """Setting any key to null parses exactly as deleting it."""
    for position in positions(DOCUMENTS[name]):
        nulled, deleted = copy.deepcopy(DOCUMENTS[name]), copy.deepcopy(DOCUMENTS[name])
        holder, key = at(nulled, position)
        if not isinstance(holder, dict):
            continue
        holder[key] = None
        holder, key = at(deleted, position)
        del holder[key]
        assert outcome(nulled, name) == outcome(deleted, name), position


def path_text(name, position):
    return name + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in position)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_each_rejected_value_is_one_violation(name):
    """Any leaf value replaced by `[0]` gives one violation, at that key or
    at the mapping that holds it, and no other check runs on a stand-in."""
    for position in positions(DOCUMENTS[name]):
        raw = copy.deepcopy(DOCUMENTS[name])
        holder, key = at(raw, position)
        if isinstance(holder[key], (dict, list)):
            continue
        holder[key] = [0]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw, name=name)
        [violation] = err.value.violations
        assert violation.startswith((path_text(name, position) + ": ",
                                     path_text(name, position[:-1]) + ": ")), violation


def readme_block():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("All keys with their defaults:\n\n```yaml\n", 1)[1]
    return yaml.safe_load(block.split("```", 1)[0])


def test_readme_lists_every_declared_key_at_its_default():
    block = readme_block()
    assert set(key_paths(block)) == set(declared_paths())
    del block["channel"]["link_errors"], block["wakeup"]["frequencies"]
    bare = parse_scenario(minimal())
    for section, attribute in [("superframe", "superframe"), ("mac_params", "backoff"),
                               ("channel", "channel_params"), ("energy", "energy"),
                               ("wakeup", "wakeup"), ("frames", "frames")]:
        documented = parse_scenario({**minimal(), section: block[section]})
        assert dump(getattr(documented, attribute)) == dump(getattr(bare, attribute)), section


# -- YAML loading ---------------------------------------------------------------


@pytest.fixture(scope="module")
def without_libyaml():
    """`wbansim.scenario` as it loads where PyYAML has no libyaml: a second
    copy of the module, executed with `yaml.CSafeLoader` hidden."""
    spec = importlib.util.spec_from_file_location(
        "wbansim._scenario_without_libyaml", wbansim.scenario.__file__)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(yaml, "CSafeLoader", raising=False)
        spec.loader.exec_module(module)
    return module


def both_loaders(text, fallback):
    """The document as libyaml and as the pure-Python loader build it."""
    return (yaml.load(text, Loader=ScenarioLoader),
            yaml.load(text, Loader=fallback.ScenarioLoader))


def test_loader_parses_with_libyaml_when_pyyaml_has_it(without_libyaml):
    assert without_libyaml.ScenarioLoader.__bases__ == (yaml.SafeLoader,)
    if yaml.__with_libyaml__:
        assert ScenarioLoader.__bases__ == (yaml.CSafeLoader,)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenarios_load_equal_without_libyaml(name, without_libyaml):
    path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.yaml"
    fast, pure = both_loaders(path.read_text(encoding="utf-8"), without_libyaml)
    assert fast == SHIPPED[name]
    assert repr(pure) == repr(fast)
    # The fallback module parses and builds the same scenario.
    ours = load_scenario(path)
    theirs = without_libyaml.load_scenario(path)
    assert (theirs.name, theirs.horizon_us, theirs.node_ids()) == \
        (ours.name, ours.horizon_us, ours.node_ids())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mutated_shipped_scenarios())
def test_mutated_shipped_scenarios_load_equal_without_libyaml(without_libyaml, case):
    _, raw = case
    fast, pure = both_loaders(yaml.safe_dump(raw), without_libyaml)
    assert repr(pure) == repr(fast)  # repr: NaN compares unequal to itself


@pytest.mark.parametrize("text, key, line", [
    ("mac: csma\nhorizon_s: 600\nhorizon_s: 400\n", "horizon_s", 3),
    ("superframe:\n  beacon_order: 6\n  beacon_order: 3\n", "beacon_order", 3),
    ("nodes:\n  - {id: 1,\n     id: 2}\n", "id", 3),
    ("tdma:\n  slots: {1: 0, 2: 1, 1: 2}\n", 1, 2),
], ids=["top-level", "nested", "flow-mapping", "integer-key"])
@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_repeated_key_is_rejected_with_its_line(text, key, line, libyaml, without_libyaml):
    loader = ScenarioLoader if libyaml else without_libyaml.ScenarioLoader
    with pytest.raises(yaml.constructor.ConstructorError) as err:
        yaml.load(text, Loader=loader)
    assert f"found duplicate key {key!r}\n  in \"<unicode string>\", line {line}," \
        in str(err.value)


def test_merge_key_may_be_overridden(without_libyaml):
    text = "base: &b {x: 1, y: 2}\nuse: {<<: *b, x: 3}\n"
    fast, pure = both_loaders(text, without_libyaml)
    assert fast == pure == {"base": {"x": 1, "y": 2}, "use": {"x": 3, "y": 2}}
