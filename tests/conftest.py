import copy

import pytest
import yaml

from wbansim import cli
from wbansim.scenario import parse_scenario


def base_scenario_dict(**overrides):
    """A small valid CSMA scenario; tests tweak copies of it."""
    raw = {
        "mac": "csma",
        "horizon_s": 10.0,
        "seed": 1,
        "superframe": {"beacon_order": 3, "superframe_order": 3},
        "nodes": [
            {
                "id": 1,
                "class": "normal_high",
                "criticality": "critical",
                "placement": {"kind": "on_body", "x_m": 0.3},
                "traffic": {"rate_per_hour": 3600.0, "phase_s": 0.05},
            },
        ],
    }
    raw.update(copy.deepcopy(overrides))
    return raw


def make_scenario(name="scenario", **overrides):
    return parse_scenario(base_scenario_dict(**overrides), name=name)


def run_sweep(raw, name, seeds, out_dir):
    """Run `wbansim --seeds 1..<seeds>` on the scenario dict `raw`, saved as
    `<name>.yaml` in `out_dir`, writing its CSVs there too.  Returns each
    run's ledger, in seed order, as `cli.run_one` returned it."""
    path = out_dir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    ledgers, run_one = [], cli.run_one

    def recording(*args):
        ledgers.append(run_one(*args))
        return ledgers[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_one", recording)
        assert cli.main(["--scenario", str(path), f"--seeds=1..{seeds}",
                         "--out", str(out_dir)]) == 0
    return ledgers


def pending_entries(scheduler, current):
    """The scheduler's pending entries, cancelled ones included, in no
    particular order, as a trace sink sees them while `current` is being
    dispatched.  An instant's list stays on the calendar until all of it is
    dispatched, so the entries of `current`'s instant up to and including
    `current` are left out: they have been dispatched already."""
    pending = []
    for at, entries in scheduler._calendar.items():
        if at == current[0]:  # FIRE_AT
            entries = entries[next(k for k, e in enumerate(entries) if e is current) + 1:]
        pending.extend(entries)
    return pending


@pytest.fixture
def tiny_scenario():
    return make_scenario()
