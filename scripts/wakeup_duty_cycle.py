#!/usr/bin/env python3
"""Coordinator duty cycle under superframe-multiple wakeup patterns.

Runs the shipped {10x, 43x} two-node scenario and reports measured wake
counts, then sweeps a second node's multiplier against a fixed 10x node to
show how the coordinator's exact awake fraction responds.
"""

from pathlib import Path

from wbansim.scenario import load_scenario
from wbansim.simulation import Simulation
from wbansim.wakeup import bnc_awake_fraction

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "wakeup_patterns_10_43.yaml"


def main():
    scn = load_scenario(SCENARIO)
    ledger = Simulation(scn, seed=scn.seed).run()
    frac = ledger.bnc_awake_fraction()
    print(f"measured over {ledger.total_superframes} superframes:")
    print(f"  BN-1 (10x) awake {ledger.node_awake_superframes[1]} times")
    print(f"  BN-3 (43x) awake {ledger.node_awake_superframes[3]} times")
    print(f"  BNC awake {ledger.bnc_awake_superframes} times "
          f"({frac} = {float(frac):.4f})")

    print("\nexact long-run BNC awake fraction, node A fixed at 10x:")
    print(f"{'node B multiplier':>18}{'awake fraction':>16}")
    for k in (1, 2, 5, 10, 20, 43, 86):
        frac = bnc_awake_fraction([10, k])
        print(f"{k:>18}{float(frac):>16.4f}")


if __name__ == "__main__":
    main()
