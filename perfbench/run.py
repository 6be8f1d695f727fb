"""wbansim benchmark: one workload per run, each repetition in a fresh interpreter.

    python3 perfbench/run.py --workload csma_saturated --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, both modes

Run from anywhere; paths resolve against the directory above this file, which
must hold `src/wbansim` and `scenarios/`.  Repetitions run one at a time in
child processes (`child.py`), so the measured program is single-threaded and
every repetition starts cold.

`--trace 0` prints the end-to-end metrics: one traced repetition first (it
supplies the dispatched-event count and the radio-state partition check),
then untraced repetitions until `--seconds` have passed, at least MIN_REPS of
them.  `wall_s` is the slowest untraced repetition, the other end-to-end
metrics are medians over them (README.md, "Bounds and noise", says why).
`--trace 1` alternates traced and untraced repetitions over `--seconds` and
prints the per-layer metrics, medians over the traced repetitions.

Every repetition's CSVs are hashed.  At the default seed the digests and the
dispatched-event count must equal `golden.json`; at any other seed all
repetitions must agree byte for byte.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
GOLDEN = BENCH / "golden.json"
DEFAULT_SEED = 1
MIN_REPS = 3             # untraced repetitions per run, whatever --seconds says
CHILD_TIMEOUT_S = 45     # a repetition takes 1 to 10 s on a 2-core Xeon VM
LAST_START_S = 120       # no repetition starts later than this into a run


@dataclass(frozen=True)
class Workload:
    scenario: str
    seeds: int = 1                  # consecutive seeds from --seed
    horizon_s: int | None = None    # replaces the scenario's horizon_s

    def cli_argv(self, scenario_path: Path, seed: int, out_dir: Path) -> list[str]:
        if self.seeds == 1:
            seed_arg = f"--seed={seed}"
        else:
            seed_arg = f"--seeds={seed}..{seed + self.seeds - 1}"
        return ["--scenario", str(scenario_path), seed_arg, "--out", str(out_dir)]

    @property
    def csv_count(self) -> int:
        """Node and summary CSV per seed, plus the two aggregates of a sweep."""
        return 2 * self.seeds + (2 if self.seeds > 1 else 0)


WORKLOADS = {
    # Saturated slotted CSMA/CA: CCA and the backoff FSM dominate; the longer
    # horizon lets the transmission log show in peak RSS.
    "csma_saturated": Workload("scenarios/priority_saturated.yaml", horizon_s=30),
    # Contention-free TDMA: no backoff, no CSMA; dispatch, wiring, ledger
    # state changes and per-link delivery draws dominate.
    "tdma_links": Workload("scenarios/tdma_three_links.yaml"),
    # The paper's headline scenario as a 20-seed CLI sweep: per-seed set-up,
    # sparse beacons, wakeup-radio paths, CSV writing and the ledger merge.
    "emergency_sweep": Workload("scenarios/emergency_8bn.yaml", seeds=20),
}

END_TO_END = {
    "wall_s": "s",
    "sim_s_per_wall_s": "ratio",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_frac", "_mean", "_per_tx", "_per_delivery")):
        return "ratio"
    return "count"


def prepare(name: str, seed: int, run_dir: Path) -> tuple[Path, list[str]]:
    """Scenario file and CLI arguments of one workload at one seed."""
    wl = WORKLOADS[name]
    scenario = ROOT / wl.scenario
    if wl.horizon_s is not None:
        text, n = re.subn(r"^horizon_s: .*$", f"horizon_s: {wl.horizon_s}",
                          scenario.read_text(encoding="utf-8"), flags=re.M)
        if n != 1:
            raise ValueError(f"{wl.scenario}: expected one top-level horizon_s line")
        scenario = run_dir / scenario.name
        scenario.write_text(text, encoding="utf-8")
    return scenario, wl.cli_argv(scenario, seed, run_dir / "csv")


def run_child(name: str, seed: int, run_dir: Path, rep: int, traced: bool) -> dict:
    """One repetition; a crash is returned as {"problems": [...]}."""
    wl = WORKLOADS[name]
    rep_dir = run_dir / f"rep{rep}"
    rep_dir.mkdir()
    scenario, argv = prepare(name, seed, rep_dir)
    spec = {
        "src": str(ROOT / "src"), "argv": argv, "scenario": str(scenario),
        "seed": seed, "runs": wl.seeds, "out": str(rep_dir / "csv"),
        "traced": traced, "spans": str(run_dir / "spans.bin"),
    }
    label = f"rep {rep} ({'traced' if traced else 'untraced'})"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"{label}: timed out after {CHILD_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"traced": traced,
                "problems": [f"{label}: exited {proc.returncode}: {' | '.join(tail)}"]}
    res["traced"] = traced
    res["problems"] = [f"{label}: {p}" for p in res.get("problems", [])]
    if res["rc"] != 0:
        res["problems"].append(f"{label}: wbansim exited {res['rc']}: {proc.stderr.strip()}")
    return res


def evaluate(name: str, seed: int, reps: list[dict], golden: dict) -> int:
    """Append each repetition's correctness problems to it; return the failures.

    The reference digests are the golden ones at the default seed, otherwise
    those of the first repetition that ran cleanly.  Traced repetitions must
    also repeat their counts exactly.
    """
    wl = WORKLOADS[name]
    gold = golden.get(name) if seed == DEFAULT_SEED else None
    ref_digests = gold["digests"] if gold else None
    ref_counts = None
    failed = 0
    for k, rep in enumerate(reps):
        problems = rep["problems"]
        if "digests" in rep and not problems:
            digests = rep["digests"]
            if len(digests) != wl.csv_count:
                problems.append(f"rep {k}: {len(digests)} CSVs written, {wl.csv_count} expected")
            if ref_digests is None:
                ref_digests = digests
            for csv in sorted(set(digests) | set(ref_digests)):
                if digests.get(csv) != ref_digests.get(csv):
                    problems.append(
                        f"rep {k}: {csv} sha256 {digests.get(csv)} != "
                        f"{'golden' if gold else 'rep 0'} {ref_digests.get(csv)}")
            if rep["traced"]:
                counts = {m: v for m, v in rep["layer"].items() if layer_unit(m) == "count"}
                if gold and counts["engine.dispatched"] != gold["dispatched"]:
                    problems.append(f"rep {k}: {counts['engine.dispatched']} events "
                                    f"dispatched, golden {gold['dispatched']}")
                if ref_counts is None:
                    ref_counts = counts
                diff = sorted(m for m in counts if counts[m] != ref_counts[m])
                if diff:
                    problems.append(f"rep {k}: counts differ between traced runs: {diff}")
        failed += bool(problems)
    return failed


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], int]:
    """All repetitions of one run and how many of them failed."""
    run_dir = OUT / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    reps = [run_child(name, seed, run_dir, 0, traced=True)]
    deadline = time.monotonic() + seconds

    def untraced_count() -> int:
        return sum(not r["traced"] for r in reps)

    while time.monotonic() - started < LAST_START_S and (
        untraced_count() < MIN_REPS or time.monotonic() < deadline
    ):
        reps.append(run_child(name, seed, run_dir, len(reps), traced=False))
        if trace:
            reps.append(run_child(name, seed, run_dir, len(reps), traced=True))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return reps, evaluate(name, seed, reps, golden)


def metrics_of(name: str, reps: list[dict], trace: bool) -> dict[str, tuple[float, str]]:
    """Metrics over the repetitions that completed, correct or not.

    Host speed on a shared machine moves in phases of tens of seconds; the
    slowest repetition of a run repeats between runs more closely than the
    median does (spread 0.13 against 0.18 on average over seven ten-run
    samples), so `wall_s` and the rates derived from it use it.
    """
    done = [r for r in reps if r.get("rc") == 0]
    traced = [r for r in done if r["traced"]]
    untraced = [r for r in done if not r["traced"]]
    if not traced or not untraced:
        raise RuntimeError("no traced and untraced repetition completed")
    if trace:
        out = {m: (statistics.median(r["layer"][m] for r in traced), layer_unit(m))
               for m in traced[0]["layer"]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in untraced) - 1)
        out["trace.overhead_frac"] = (overhead, "ratio")
        return out
    wall = max(r["wall_s"] for r in untraced)
    sim_s = traced[0]["horizon_us"] / 1e6 * WORKLOADS[name].seeds
    values = {
        "wall_s": wall,
        "sim_s_per_wall_s": sim_s / wall,
        "events_per_s": traced[0]["layer"]["engine.dispatched"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
    }
    return {m: (v, END_TO_END[m]) for m, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Measure one workload, print its metrics and the result line."""
    reps, failed = measure(name, seed, seconds, trace)
    for rep in reps:
        for problem in rep["problems"]:
            print(f"FAILED {problem}")
    try:
        metrics = metrics_of(name, reps, trace)
    except RuntimeError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return False
    print(f"# {name} seed {seed}, {'traced' if trace else 'untraced'} metrics, "
          f"{sum(not r['traced'] for r in reps)} untraced + "
          f"{sum(r['traced'] for r in reps)} traced repetitions")
    for m, (value, unit) in metrics.items():
        print(f"{m:34s} {value:16.6f} {unit}")
    print(f"{'failed_runs_frac':34s} {failed / len(reps):16.6f} ratio")
    walls = [r["wall_s"] for r in reps if r.get("rc") == 0 and not r["traced"]]
    if len(walls) >= 2:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        print(f"# wall_s of {len(walls)} untraced repetitions: min {min(walls):.4f} "
              f"q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} max {max(walls):.4f}")
        print("# wall_s per repetition: " + " ".join(f"{w:.4f}" for w in walls))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return True


def record_golden() -> None:
    """Write golden.json from one traced repetition per workload at the default seed."""
    golden = {}
    run_dir = OUT / "golden"
    for name in WORKLOADS:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        rep = run_child(name, DEFAULT_SEED, run_dir, 0, traced=True)
        if rep["problems"]:
            raise SystemExit("\n".join(rep["problems"]))
        golden[name] = {"seed": DEFAULT_SEED, "seeds": WORKLOADS[name].seeds,
                        "dispatched": rep["layer"]["engine.dispatched"],
                        "digests": rep["digests"]}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(--workload all runs both)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current source and exit")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/wbansim/cli.py", *(w.scenario for w in WORKLOADS.values()))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a wbansim checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload != "all":
        return 0 if run_workload(args.workload, args.seed, args.seconds, bool(args.trace)) else 1
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            ok &= run_workload(name, args.seed, args.seconds, trace)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
