import pytest

import tracer
import wbansim.cli as cli
from wbansim import Simulation, load_scenario
from wbansim.engine import Scheduler


def hand_built_tree() -> tracer.SpanRecorder:
    """run_until [0, 100) > handler [10, 60) > channel [20, 30)
                          > handler [70, 90)"""
    rec = tracer.SpanRecorder()
    for name, parent, start, end in (
        (tracer.RUN_UNTIL, -1, 0, 100),
        ("handler.TxEnd", 0, 10, 60),
        ("channel.deliver", 1, 20, 30),
        ("handler.CcaDue", 0, 70, 90),
    ):
        rec.name_id.append(rec._id(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    return rec


def test_self_time_is_span_minus_child_spans():
    rec = hand_built_tree()
    assert tracer.self_times(rec.parent, rec.start, rec.end) == [30, 40, 10, 20]
    assert tracer.module_self_ms_in_run(rec) == {
        "engine": 30e-6, "simulation": 60e-6, "channel": 10e-6,
    }


def test_spans_round_trip_through_file(tmp_path):
    rec = hand_built_tree()
    rec.write(tmp_path / "spans.bin")
    back = tracer.read_spans(tmp_path / "spans.bin")
    assert back.names == rec.names
    for field in ("name_id", "parent", "start", "end"):
        assert getattr(back, field) == getattr(rec, field)


def traced_cli_run(argv) -> tracer.SpanRecorder:
    rec = tracer.SpanRecorder()
    with tracer.installed(rec):
        assert rec.wrap(cli.main, "cli.main")(argv) == 0
    return rec


@pytest.fixture
def csma_short(short_scenario):
    return short_scenario("priority_saturated", "horizon_s", 2)


def test_tracer_is_removed_after_the_run(csma_short, tmp_path):
    before = (Scheduler.run_until, cli.run_one, Simulation.begin_tx)
    traced_cli_run(["--scenario", str(csma_short), "--seed=3", "--out", str(tmp_path / "o")])
    assert (Scheduler.run_until, cli.run_one, Simulation.begin_tx) == before


@pytest.mark.parametrize("name,key,value,seeds", [
    ("priority_saturated", "horizon_s", 2, [2]),
    ("tdma_three_links", "horizon_superframes", 400, [2]),
    ("emergency_8bn", "horizon_s", 600, [4, 5]),
])
def test_traced_counts_repeat_and_match_trace_sink(short_scenario, tmp_path,
                                                   name, key, value, seeds):
    path = short_scenario(name, key, value)
    seed_arg = f"--seed={seeds[0]}" if len(seeds) == 1 else f"--seeds={seeds[0]}..{seeds[-1]}"
    runs = [
        tracer.summarize(
            traced_cli_run(["--scenario", str(path), seed_arg, "--out", str(tmp_path / f"o{k}")]),
            import_ns=0)
        for k in range(2)
    ]
    counts = [{m: v for m, v in r.items() if not m.endswith(("ms", "_frac", "_mean"))}
              for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["engine.dispatched"] > 0

    dispatched = 0

    def sink(ev):
        nonlocal dispatched
        dispatched += 1

    scenario = load_scenario(path)
    for seed in seeds:
        Simulation(scenario, seed=seed, trace_sink=sink).run()
    assert counts[0]["engine.dispatched"] == dispatched


def test_module_self_times_sum_to_run_until(csma_short, tmp_path):
    rec = traced_cli_run(["--scenario", str(csma_short), "--seed=1", "--out", str(tmp_path)])
    per_module = tracer.module_self_ms_in_run(rec)
    summary = tracer.summarize(rec, import_ns=0)
    assert {"engine", "simulation", "channel", "mac_csma", "metrics"} <= set(per_module)
    assert sum(per_module.values()) == pytest.approx(summary["engine.run_until_ms"], rel=1e-9)
    assert summary["mac_tdma.self_ms"] == 0.0
    assert summary["channel.cca_calls"] > 0 and summary["mac_csma.backoff_draw_calls"] > 0
