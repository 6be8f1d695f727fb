"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py '<json spec>'

The spec names the simulator's source directory (`src`), the `wbansim`
command-line arguments of the workload (`argv`), the scenario file and first
seed for the set-up probe, the output directory the arguments point at
(`out`), whether to trace, and where a traced run writes its spans.

Untraced: time `import wbansim`, `load_scenario` and `Simulation(...)`
construction (set-up), then `wbansim.cli.main(argv)` exactly as the
`wbansim` command calls it.  Traced: install the external tracer, run the
same `cli.main(argv)`, check that every device's radio states partition the
horizon, and summarise the spans into per-layer metrics.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def csv_digests(out_dir: str) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).glob("*.csv"))
    }


def partition_errors(ledgers, horizon_us: int) -> list[str]:
    """Every device's radio-state durations must sum to the horizon."""
    errors = []
    for k, ledger in enumerate(ledgers):
        for node, states in sorted(ledger.state_us.items()):
            total = sum(states.values())
            if total != horizon_us:
                errors.append(
                    f"run {k} device {node}: radio states sum to {total} us, "
                    f"horizon is {horizon_us} us"
                )
    return errors


def main() -> int:
    spec = json.loads(sys.argv[1])
    clock = time.perf_counter_ns
    t0 = clock()
    sys.path.insert(0, spec["src"])
    import wbansim.cli as cli
    from wbansim import Simulation, load_scenario

    import_ns = clock() - t0
    result: dict = {}
    if spec["traced"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracer

        rec = tracer.SpanRecorder()
        with tracer.installed(rec):
            t1 = clock()
            rc = rec.wrap(cli.main, "cli.main")(spec["argv"])
            main_ns = clock() - t1
        scenario = load_scenario(spec["scenario"])
        result["layer"] = tracer.summarize(rec, import_ns)
        result["problems"] = partition_errors(rec.ledgers, scenario.horizon_us)
        if len(rec.ledgers) != spec["runs"]:
            result["problems"].append(
                f"{len(rec.ledgers)} runs traced, {spec['runs']} expected")
        rec.write(spec["spans"])
    else:
        scenario = load_scenario(spec["scenario"])
        Simulation(scenario, seed=spec["seed"])
        result["setup_s"] = (clock() - t0) / 1e9
        t1 = clock()
        rc = cli.main(spec["argv"])
        main_ns = clock() - t1
    result.update(
        rc=rc,
        wall_s=(import_ns + main_ns) / 1e9,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        horizon_us=scenario.horizon_us,
        digests=csv_digests(spec["out"]),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
