"""Command-line entry point: validate scenarios, run single seeds or sweeps.

Exit codes: 0 success, 2 scenario validation failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .engine import trace_line
# `merge_ledgers` is not called here, but the benchmark's tracer
# (`perfbench/tracer.py`) patches `wbansim.cli.merge_ledgers` by name.
from .metrics import MetricsLedger, merge_ledgers, write_node_csv, write_summary_csv  # noqa: F401
from .scenario import ScenarioError, load_scenario
from .simulation import Simulation


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbansim",
        description="Deterministic discrete-event simulator for body-area-network MACs",
    )
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument("--seed", type=int, help="single run with this seed")
    parser.add_argument("--seeds", help="seed sweep, inclusive range as A..B")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--trace", action="store_true",
                        help="also write a per-dispatch event trace per run")
    parser.add_argument("--validate-only", action="store_true",
                        help="validate the scenario and exit")
    return parser


def parse_seed_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"bad seed range '{text}', expected A..B")
    start, end = int(lo), int(hi)
    if end < start:
        raise ValueError(f"bad seed range '{text}': end before start")
    return list(range(start, end + 1))


def run_one(scenario, seed: int, out_dir: Path, trace: bool):
    trace_fh = None
    trace_sink = None
    if trace:
        trace_fh = open(out_dir / f"{scenario.name}_seed{seed}_trace.log", "w", encoding="utf-8")
        def trace_sink(entry, _fh=trace_fh):
            _fh.write(trace_line(entry) + "\n")
    try:
        sim = Simulation(scenario, seed=seed, trace_sink=trace_sink)
        ledger = sim.run()
    finally:
        if trace_fh is not None:
            trace_fh.close()
    run_id = f"{scenario.name}-s{seed}"
    with open(out_dir / f"{scenario.name}_seed{seed}.csv", "w", encoding="utf-8") as fh:
        write_node_csv(fh, ledger, run_id, seed, scenario.mac, scenario.energy)
    with open(out_dir / f"{scenario.name}_seed{seed}_summary.csv", "w", encoding="utf-8") as fh:
        write_summary_csv(fh, ledger, run_id, seed, scenario.mac, scenario.energy)
    return ledger


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:  # unreadable file, bad YAML
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of the loader, not of the file
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    if args.validate_only:
        print(f"{args.scenario}: OK")
        return 0

    if args.seed is not None and args.seeds:
        print("error: give either --seed or --seeds, not both", file=sys.stderr)
        return 2
    try:
        if args.seeds:
            seeds = parse_seed_range(args.seeds)
        elif args.seed is not None:
            seeds = [args.seed]
        else:
            seeds = [scenario.seed]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if len(seeds) == 1:
            run_one(scenario, seeds[0], out_dir, args.trace)
        else:
            # Fold each run into the aggregate, in seed order, as it ends, so
            # a sweep holds one aggregate and the running seed, however many
            # seeds it has.
            merged = MetricsLedger()
            for seed in seeds:
                merged.merge_from(run_one(scenario, seed, out_dir, args.trace))
            run_id = f"{scenario.name}-aggregate"
            with open(out_dir / f"{scenario.name}_aggregate.csv", "w", encoding="utf-8") as fh:
                write_node_csv(fh, merged, run_id, "", scenario.mac, scenario.energy)
            with open(out_dir / f"{scenario.name}_aggregate_summary.csv", "w", encoding="utf-8") as fh:
                write_summary_csv(fh, merged, run_id, "", scenario.mac, scenario.energy)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure; report and signal distinctly
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
