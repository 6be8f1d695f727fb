import gc
import tracemalloc
import weakref
from pathlib import Path

import yaml

import pytest

import wbansim.cli
from wbansim.cli import main, parse_seed_range
from wbansim.scenario import load_scenario

from conftest import base_scenario_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(base_scenario_dict()), encoding="utf-8")
    return path


class TestSeedRange:
    def test_inclusive_range(self):
        assert parse_seed_range("1..4") == [1, 2, 3, 4]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_seed_range("5")
        with pytest.raises(ValueError):
            parse_seed_range("9..1")


class TestExitCodes:
    def test_success_is_zero(self, scenario_file, tmp_path):
        assert main(["--scenario", str(scenario_file), "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 0

    def test_validation_failure_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        raw = base_scenario_dict()
        raw["nodes"].append({"id": 1})
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["--scenario", str(bad)]) == 2
        assert "duplicate node id" in capsys.readouterr().err

    def test_non_finite_number_is_two_with_key_path(self, tmp_path, capsys):
        bad = tmp_path / "nan.yaml"
        raw = base_scenario_dict()
        bad.write_text(yaml.safe_dump(raw).replace("horizon_s: 10.0", "horizon_s: .nan"),
                       encoding="utf-8")
        assert main(["--scenario", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "nan.horizon_s: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, message", [
        (base_scenario_dict(channel={"tx_power_dbm": {"on_body": 4000}}),
         "bad.channel: link 0 -> 1: received power 3970.46 dBm is too large to convert"),
        (base_scenario_dict(channel={"path_loss": {"on_body": {"exponent": 1e308,
                                                               "ref_dist_m": 0.3}}}),
         "bad.channel: link 0 -> 1: received power nan dBm is not finite"),
        (base_scenario_dict(superframe={"beacon_order": 15, "superframe_order": 3}),
         "bad.superframe.beacon_order: must be <= 14, got 15"),
        (base_scenario_dict(superframe={"symbol_rate_sps": 60_000}),
         "bad.superframe.symbol_rate_sps: must divide 1000000"),
        (base_scenario_dict(nodes=[{"id": 1, "placement": {"kind": "in_body", "depth_m": 0.5}}]),
         "bad.nodes[0].placement.depth_m: must be <= 0.2, got 0.5"),
    ], ids=["budget-overflow", "budget-nan", "beacon-order", "symbol-rate", "depth"])
    def test_rejected_budget_or_value_is_two_with_key_path(self, tmp_path, capsys, raw, message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_horizon_rounding_to_zero_is_two_with_key_path(self, tmp_path, capsys):
        bad = tmp_path / "tiny.yaml"
        raw = base_scenario_dict(horizon_s=0.0000004)
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        assert "tiny.horizon_s: horizon shorter than one beacon interval" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shipped, edit, message", [
        # Link 3 -> 0 would silently become lossless.
        ("tdma_three_links", ("src: 3,", "src: 33,"),
         "channel.link_errors[1]: src 33 is neither 0 (the BNC) nor a scenario node"),
        ("tdma_three_links", ("src: 3,", "src: 2,"),
         "channel.link_errors[1]: link 2 -> 0 repeats"),
        # No frame travels node to node: the entry would be ignored.
        ("tdma_three_links", ("dst: 0, p_success: 0.84", "dst: 2, p_success: 0.84"),
         "channel.link_errors[1]: link 3 -> 2 does not join 0 (the BNC) to a node"),
        # Node 3's frame would stay queued forever while the run exits 0.
        ("wakeup_patterns_10_43", ("wakeup_multiplier: 43\n",
                                   "wakeup_multiplier: 43\n    payload_bits: 4000000\n"),
         "nodes: node 3: acked transaction (16001184 us with both CCAs) exceeds the CAP "
         "after the beacon (981760 us)"),
    ], ids=["link-unknown-src", "link-repeated", "link-node-to-node", "csma-frame-never-fits"])
    def test_shipped_scenario_with_bad_edit_is_two(self, tmp_path, capsys, shipped, edit, message):
        text = (SCENARIOS / f"{shipped}.yaml").read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        bad = tmp_path / f"{shipped}.yaml"
        bad.write_text(text.replace(*edit), encoding="utf-8")
        assert main(["--scenario", str(bad), "--validate-only"]) == 2
        assert f"{shipped}.{message}" in capsys.readouterr().err

    def test_repeated_key_is_two_with_its_line(self, tmp_path, capsys):
        # A second `horizon_s` used to win silently: the run lasted 400 s.
        text = (SCENARIOS / "emergency_8bn.yaml").read_text(encoding="utf-8")
        bad = tmp_path / "emergency_8bn.yaml"
        bad.write_text(text + "horizon_s: 400\n", encoding="utf-8")
        assert main(["--scenario", str(bad), "--validate-only"]) == 2
        line = text.count("\n") + 1
        assert (f"found duplicate key 'horizon_s'\n  in \"{bad}\", line {line}, column 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("edit", [
        ("nodes:\n", "nodes: [\n"),            # unclosed flow sequence
        ("  beacon_order: 6", "\tbeacon_order: 6"),  # tab indent
        ("  beacon_order: 6", "  [beacon_order]: 6"),  # unhashable key
    ], ids=["unclosed-bracket", "tab-indent", "unhashable-key"])
    def test_malformed_yaml_is_two(self, tmp_path, capsys, edit):
        text = (SCENARIOS / "emergency_8bn.yaml").read_text(encoding="utf-8")
        assert text.count(edit[0]) == 1
        bad = tmp_path / "emergency_8bn.yaml"
        bad.write_text(text.replace(*edit), encoding="utf-8")
        assert main(["--scenario", str(bad), "--validate-only"]) == 2
        assert "error: cannot load scenario:" in capsys.readouterr().err

    def test_csma_stop_command_that_never_fits_is_two(self, tmp_path, capsys):
        # It used to load and run to exit 0 with the stop command stuck in
        # the coordinator's queue and the stream never stopped.
        raw = base_scenario_dict(superframe={"beacon_order": 0, "superframe_order": 0},
                                 frames={"command_bits": 40000})
        raw["nodes"][0]["class"] = "on_demand_continuous"
        del raw["nodes"][0]["traffic"]
        raw["on_demand"] = [{"time_s": 0.5, "target": 1, "mode": "continuous",
                             "rate_per_s": 10.0, "duration_s": 0.5}]
        bad = tmp_path / "stop.yaml"
        bad.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        assert ("stop.frames.command_bits: 40000 bits: the stop command's acked transaction "
                "(161184 us with both CCAs) exceeds the CAP after the beacon (14080 us)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_csma_ack_later_than_the_ack_wait_is_two(self, tmp_path, capsys):
        # It used to run to exit 0 with every ack late: each of the 10 frames
        # was sent 4 times, and all 40 acks ended after their ack timeout.
        bad = tmp_path / "ack.yaml"
        bad.write_text(yaml.safe_dump(base_scenario_dict(frames={"ack_bits": 200})),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--scenario", str(bad), "--out", str(out)]) == 2
        assert ("ack.frames.ack_bits: 200 bits: turnaround + ack airtime (992 us) "
                "must be below the ack wait (864 us)" in capsys.readouterr().err)
        assert not out.exists()

    def test_rejected_frame_size_is_two_with_key_path(self, tmp_path, capsys):
        # The loader used the rejected size to compute an airtime, and the
        # ValueError that raised was reported as an unreadable file.
        bad = tmp_path / "tiny.yaml"
        bad.write_text(yaml.safe_dump(base_scenario_dict(frames={"beacon_bits": 0})),
                       encoding="utf-8")
        assert main(["--scenario", str(bad), "--validate-only"]) == 2
        err = capsys.readouterr().err
        assert "tiny.frames.beacon_bits: must be >= 1, got 0" in err
        assert "cannot load scenario" not in err

    def test_loader_defect_is_one(self, scenario_file, monkeypatch, capsys):
        def broken(path):
            raise TypeError("a defect")
        monkeypatch.setattr(wbansim.cli, "load_scenario", broken)
        assert main(["--scenario", str(scenario_file), "--validate-only"]) == 1
        assert "internal error: a defect" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert main(["--scenario", str(tmp_path / "nope.yaml")]) == 2

    def test_conflicting_seed_flags_rejected(self, scenario_file):
        assert main(["--scenario", str(scenario_file), "--seed", "1",
                     "--seeds", "1..2"]) == 2

    def test_seed_range_ending_before_its_start_is_two(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--scenario", str(scenario_file), "--seeds", "9..1", "--out", str(out)]) == 2
        assert "error: bad seed range '9..1': end before start" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_only_stops_before_any_run(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--scenario", str(scenario_file), "--validate-only",
                     "--out", str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        assert not out.exists()

    def test_unwritable_output_directory_is_one(self, scenario_file, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way", encoding="utf-8")
        assert main(["--scenario", str(scenario_file), "--seed", "1",
                     "--out", str(blocker)]) == 1
        assert "error" in capsys.readouterr().err


class TestOutputs:
    def test_single_run_writes_node_and_summary_csv(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--seed", "3", "--out", str(out)])
        node_csv = (out / "tiny_seed3.csv").read_text(encoding="utf-8")
        summary_csv = (out / "tiny_seed3_summary.csv").read_text(encoding="utf-8")
        assert node_csv.startswith("run_id,seed,mac,node_id,class,")
        assert ",csma,1,normal_high," in node_csv
        assert "bnc_awake_fraction" in summary_csv

    def test_without_a_seed_flag_the_scenario_seed_runs(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump(base_scenario_dict(seed=5)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--scenario", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["tiny_seed5.csv",
                                                        "tiny_seed5_summary.csv"]

    def test_repeat_runs_byte_identical(self, scenario_file, tmp_path):
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["--scenario", str(scenario_file), "--seed", "7", "--out", str(out)])
            texts.append((out / "tiny_seed7.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_trace_flag_emits_event_log(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--seed", "1", "--out", str(out), "--trace"])
        trace = (out / "tiny_seed1_trace.log").read_text(encoding="utf-8").splitlines()
        assert trace
        t, kind, node = trace[0].split()
        assert t == "0" and kind == "BeaconDue"
        times = [int(line.split()[0]) for line in trace]
        assert times == sorted(times)

    def test_sweep_writes_per_run_and_aggregate(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--seeds", "1..4", "--out", str(out)])
        per_run = sorted(p.name for p in out.glob("tiny_seed*.csv") if "summary" not in p.name)
        assert per_run == [f"tiny_seed{i}.csv" for i in (1, 2, 3, 4)]
        assert (out / "tiny_aggregate.csv").exists()

    def test_aggregate_equals_merge_of_per_run_ledgers(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--seeds", "1..3", "--out", str(out)])
        offered = delivered = 0
        for i in (1, 2, 3):
            lines = (out / f"tiny_seed{i}.csv").read_text().splitlines()[1:]
            for line in lines:
                f = line.split(",")
                offered += int(f[5])
                delivered += int(f[6])
        agg = (out / "tiny_aggregate.csv").read_text().splitlines()[1]
        fields = agg.split(",")
        assert int(fields[5]) == offered
        assert int(fields[6]) == delivered
        assert fields[0] == "tiny-aggregate"


class TestRunLifetime:
    """Once `run_one` returns, its `Simulation` is freed by reference counting
    alone, with the cycle collector off, so a long sweep's memory does not
    wait on a collection.  A sweep folds each run's ledger into its aggregate
    as the run ends and keeps no per-run ledger, so its memory does not grow
    with the number of seeds either."""

    @pytest.mark.parametrize("name,horizon_us,trace", [
        ("emergency_8bn", None, False),        # CSMA with wakeup-radio paths
        ("priority_saturated", 1_000_000, False),  # CSMA attempts pending at the horizon
        ("tdma_three_links", 200 * 30_720, True),  # 200 superframes, traced
    ])
    def test_finished_simulation_is_freed_without_the_collector(
            self, tmp_path, monkeypatch, name, horizon_us, trace):
        scenario = load_scenario(SCENARIOS / f"{name}.yaml")
        if horizon_us is not None:
            scenario.horizon_us = horizon_us
        built, original = [], wbansim.cli.Simulation

        def simulation(*args, **kwargs):
            sim = original(*args, **kwargs)
            built.append(weakref.ref(sim))
            return sim

        monkeypatch.setattr(wbansim.cli, "Simulation", simulation)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            ledger = wbansim.cli.run_one(scenario, 1, tmp_path, trace)
            assert len(built) == 1 and built[0]() is None
        finally:
            if was_enabled:
                gc.enable()
        assert sum(ledger.delivered.values()) > 0

    # A sweep's traced peak may grow by at most this much per added seed.
    # Fixed before the test first ran: keeping every ledger until the sweep
    # ends costs about 8.4 KiB a seed on this scenario, while the aggregate
    # grows only by the latency samples of the few frames each seed delivers.
    BYTES_PER_SEED = 1024

    def test_sweep_peak_does_not_grow_with_the_seed_count(self, tmp_path):
        raw = yaml.safe_load((SCENARIOS / "emergency_8bn.yaml").read_text(encoding="utf-8"))
        raw["horizon_s"] = 320
        path = tmp_path / "emergency_8bn.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")

        def sweep_peak(seeds):
            tracemalloc.start()
            try:
                assert main(["--scenario", str(path), f"--seeds=1..{seeds}",
                             "--out", str(tmp_path / f"out{seeds}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep_peak(2)  # warm-up: imports and caches a first call fills
        few, many = sweep_peak(8), sweep_peak(32)
        assert many - few <= self.BYTES_PER_SEED * (32 - 8), (few, many)
