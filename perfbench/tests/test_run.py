import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN.read_text(encoding="utf-8"))


def untraced_rep(digests):
    return {"traced": False, "problems": [], "digests": dict(digests)}


def traced_rep(digests, dispatched):
    layer = tracer.summarize(tracer.SpanRecorder(), import_ns=0)
    layer["engine.dispatched"] = dispatched
    return {"traced": True, "problems": [], "digests": dict(digests), "layer": layer}


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = [*tracer.summarize(tracer.SpanRecorder(), import_ns=0), "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m: run.layer_unit(m) for m in layer}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_golden_digests_pass(golden):
    name = "emergency_sweep"
    gold = golden[name]
    reps = [traced_rep(gold["digests"], gold["dispatched"]), untraced_rep(gold["digests"])]
    assert run.evaluate(name, run.DEFAULT_SEED, reps, golden) == 0
    assert all(not r["problems"] for r in reps)


def test_corrupted_digest_is_a_failed_run(golden):
    name = "tdma_links"
    bad = copy.deepcopy(golden)
    csv = sorted(bad[name]["digests"])[0]
    bad[name]["digests"][csv] = "0" * 64
    reps = [untraced_rep(golden[name]["digests"]) for _ in range(2)]
    assert run.evaluate(name, run.DEFAULT_SEED, reps, bad) == 2
    assert csv in reps[0]["problems"][0] and "golden" in reps[0]["problems"][0]


def test_dispatched_count_must_match_golden(golden):
    name = "csma_saturated"
    gold = golden[name]
    reps = [traced_rep(gold["digests"], gold["dispatched"] + 1)]
    assert run.evaluate(name, run.DEFAULT_SEED, reps, golden) == 1


def test_other_seeds_must_agree_byte_for_byte(golden):
    name = "tdma_links"
    digests = {csv: str(k) * 64 for k, csv in enumerate(sorted(golden[name]["digests"]))}
    changed = dict(digests)
    changed[min(changed)] = "f" * 64
    reps = [untraced_rep(digests), untraced_rep(digests), untraced_rep(changed)]
    assert run.evaluate(name, 7, reps, golden) == 1
    assert reps[2]["problems"] and not reps[1]["problems"]


def test_traced_counts_must_repeat(golden):
    name = "tdma_links"
    digests = golden[name]["digests"]
    reps = [traced_rep(digests, 5), traced_rep(digests, 6)]
    assert run.evaluate(name, 9, reps, golden) == 1
    assert "engine.dispatched" in reps[1]["problems"][0]


def test_corrupted_golden_fails_a_real_run(golden, tmp_path, monkeypatch, capsys):
    name = "emergency_sweep"
    bad = copy.deepcopy(golden)
    bad[name]["digests"]["emergency_8bn_aggregate.csv"] = "0" * 64
    bad_file = tmp_path / "golden.json"
    bad_file.write_text(json.dumps(bad), encoding="utf-8")
    monkeypatch.setattr(run, "GOLDEN", bad_file)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    assert run.run_workload(name, run.DEFAULT_SEED, seconds=0, trace=False)
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1 + run.MIN_REPS
    assert any(line.startswith("FAILED") and "aggregate.csv" in line for line in out)


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tdma_links", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not a wbansim checkout" in proc.stderr
