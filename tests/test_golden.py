"""Golden gate: every CSV and trace byte and every RNG draw of the shipped
scenarios is pinned.

For each scenario under `scenarios/`, a three-seed sweep with `--trace`
writes per-seed node and summary CSVs, per-seed trace logs and the aggregate
CSVs.  Their sha256 digests must equal the ones in `golden_digests.json`.
The same sweep records every draw of every random stream (`RecordingRandom`),
so a change that keeps the outputs but draws differently fails too; each
seed's entry `<scenario>_seed<N>_rng` holds its draw count and the digest of
its streams.  `emergency_8bn_lossy` is `emergency_8bn` with a lossy wakeup
radio and four lossy beacon links: the channel draws of the wakeup loss and
of a beacon reception run on no shipped scenario.  `tdma_three_links_wakeup`
adds an emergency node and an on-demand node to `tdma_three_links`: the TDMA
emergency grant and window, spurious wakes and a stop command carried on a
beacon run on no shipped scenario.  A change that alters
any digest changes what the simulator computes and must say why, together
with the regenerated entries of the digest file:

    PYTHONPATH=src python tests/test_golden.py --write [NAME ...]

With names, only those entries are rewritten; without, every entry is.  Each
digest that changed is printed, and an unknown name exits non-zero with the
file untouched.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml

import wbansim.engine
from wbansim.cli import main
from wbansim.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
SEEDS = "1..3"
# name -> (shipped scenario, top-level sections it replaces)
VARIANTS = {
    "emergency_8bn_lossy": ("emergency_8bn", {"channel": {
        "wakeup_loss_p": 0.3,
        "link_errors": [{"src": 0, "dst": n, "p_success": p}
                        for n, p in ((1, 0.7), (2, 0.7), (3, 0.9), (4, 0.9))],
    }}),
    "tdma_three_links_wakeup": ("tdma_three_links", {
        "horizon_superframes": 3000,
        "tdma": {"slot_duration_ms": 3.4, "slots": {1: 0, 2: 1, 3: 2, 4: 3, 5: 4}},
        "nodes": [
            {"id": 1, "class": "normal_high", "placement": {"kind": "on_body", "x_m": 0.1},
             "traffic": {"rate_per_hour": 117187.5, "phase_s": 0.001}},
            {"id": 2, "class": "normal_high", "placement": {"kind": "on_body", "z_m": 0.3},
             "traffic": {"rate_per_hour": 117187.5, "phase_s": 0.002}},
            {"id": 3, "class": "normal_high", "placement": {"kind": "on_body", "z_m": -1.0},
             "traffic": {"rate_per_hour": 117187.5, "phase_s": 0.003}},
            {"id": 4, "class": "emergency", "criticality": "critical", "wakeup_multiplier": 8,
             "placement": {"kind": "in_body", "y_m": 0.05, "z_m": 0.25, "depth_m": 0.08},
             "traffic": {"rate_per_hour": 1800}},
            {"id": 5, "class": "on_demand_continuous", "wakeup_multiplier": 2,
             "placement": {"kind": "on_body", "y_m": 0.15, "z_m": 0.1}},
        ],
        "on_demand": [
            {"time_s": 10, "target": 5, "mode": "continuous", "rate_per_s": 20,
             "duration_s": 3},
            {"time_s": 50, "target": 5, "mode": "non_continuous"},
        ],
    }),
}
NAMES = sorted([p.stem for p in SCENARIOS.glob("*.yaml")] + list(VARIANTS))


def recording_random(streams: dict[str, list]) -> type:
    """A `random.Random` whose instances log each draw under their seed text.

    `randrange` draws through `getrandbits` and `expovariate` through
    `random`, so the two overrides see every draw the simulator makes.
    """

    class RecordingRandom(random.Random):
        def __init__(self, x=None):
            self._log = streams.setdefault(str(x), [hashlib.sha256(), 0])
            super().__init__(x)

        def random(self):
            value = super().random()
            self._log[0].update(value.hex().encode() + b";")
            self._log[1] += 1
            return value

        def getrandbits(self, k):
            value = super().getrandbits(k)
            self._log[0].update(f"{k}:{value};".encode())
            self._log[1] += 1
            return value

    return RecordingRandom


def rng_digests(name: str, streams: dict[str, list]) -> dict[str, str]:
    """One entry per seed: its total draw count and a digest of its streams.
    A stream's seed text is `<seed>/channel` or `<seed>/node/<id>`."""
    by_seed: dict[str, list[str]] = {}
    for text, (digest, count) in sorted(streams.items()):
        seed = text.split("/", 1)[0]
        by_seed.setdefault(seed, []).append(f"{text} {count} {digest.hexdigest()}")
    out = {}
    for seed, lines in by_seed.items():
        draws = sum(int(line.split()[1]) for line in lines)
        joined = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        out[f"{name}_seed{seed}_rng"] = f"{draws} draws {joined}"
    return out


def variant_raw(name: str) -> dict:
    """The golden variant `name` as a scenario dict: its shipped scenario
    with the variant's sections in place."""
    base, sections = VARIANTS[name]
    raw = yaml.safe_load((SCENARIOS / f"{base}.yaml").read_text(encoding="utf-8"))
    return {**raw, **sections}


def variant_scenario(name: str):
    return parse_scenario(variant_raw(name), name=name)


def scenario_file(name: str, tmp: Path) -> Path:
    if name not in VARIANTS:
        return SCENARIOS / f"{name}.yaml"
    path = tmp / f"{name}.yaml"
    path.write_text(yaml.safe_dump(variant_raw(name)), encoding="utf-8")
    return path


def sweep_digests(name: str, tmp: Path) -> dict[str, str]:
    out = tmp / "out"
    streams: dict[str, list] = {}
    with mock.patch.object(wbansim.engine.random, "Random", recording_random(streams)):
        assert main(["--scenario", str(scenario_file(name, tmp)), f"--seeds={SEEDS}",
                     "--trace", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    digests.update(rng_digests(name, streams))
    return dict(sorted(digests.items()))


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_golden_digests(name, tmp_path):
    golden = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))[name]
    assert sweep_digests(name, tmp_path) == golden


def write(names: list[str]) -> None:
    """Rewrite the entries of `names` (every entry if none is named) and
    print each digest that changed."""
    unknown = sorted(set(names) - set(NAMES))
    if unknown:
        raise SystemExit(f"unknown name(s) {', '.join(unknown)}; known: {', '.join(NAMES)}")
    old = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    digests = dict(old) if names else {}
    for name in names or NAMES:
        with tempfile.TemporaryDirectory() as tmp:
            digests[name] = sweep_digests(name, Path(tmp))
        before, after = old.get(name, {}), digests[name]
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"{name}: {key} {before.get(key)} -> {after.get(key)}")
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


def test_write_rejects_an_unknown_name():
    before = DIGEST_FILE.read_bytes()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, __file__, "--write", NAMES[0], "no_such_scenario"],
                          capture_output=True, text=True, env=env)
    assert done.returncode != 0 and "no_such_scenario" in done.stderr
    assert DIGEST_FILE.read_bytes() == before


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        raise SystemExit("usage: test_golden.py --write [NAME ...]")
    write(sys.argv[2:])
