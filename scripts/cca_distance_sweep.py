#!/usr/bin/env python3
"""Energy-detection CCA verdict vs distance for an implanted transmitter.

Sweeps the separation between a -16 dBm in-body source and an on-body
listener and prints the received power plus the busy/idle verdict for the
-85 dBm and -95 dBm thresholds.  The steep in-body path loss makes the
implant invisible beyond a few meters.
"""

import argparse

from wbansim.channel import CcaResult, ChannelModel, ChannelParams
from wbansim.core import Frame, FrameKind, Placement, PlacementKind, TrafficClass


def verdict(distance_m: float, threshold_dbm: float) -> tuple[float, CcaResult]:
    ch = ChannelModel(ChannelParams(tx_power_in_body_dbm=-16.0))
    frame = Frame(FrameKind.DATA, 1, 0, 800, TrafficClass.EMERGENCY, 0, 1)
    src = Placement(PlacementKind.IN_BODY, distance_m, 0, 0, depth_m=0.05)
    ch.register_tx(frame, src, 0, 10_000)
    listener = Placement(PlacementKind.ON_BODY)
    power = ch.received_power_dbm(listener, 5_000)
    return power, ch.cca_energy_detect(listener, threshold_dbm, 5_000)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=float, default=4.0)
    parser.add_argument("--step-m", type=float, default=0.5)
    args = parser.parse_args()

    print(f"{'distance m':>11}{'rx dBm':>10}{'thr -85':>9}{'thr -95':>9}")
    d = args.step_m
    while d <= args.max_m + 1e-9:
        power, _ = verdict(d, -85.0)
        v85 = verdict(d, -85.0)[1].value
        v95 = verdict(d, -95.0)[1].value
        print(f"{d:>11.1f}{power:>10.2f}{v85:>9}{v95:>9}")
        d += args.step_m


if __name__ == "__main__":
    main()
