"""Per-node and per-class accounting: delivery, latency, energy, duty cycle.

Latency is measured from frame creation to the successful end of the data
frame at its receiver; acknowledgements are excluded.  Radio-state time
integrals partition the whole run per device, which makes the energy figures
conservative by construction (they always cover the full horizon).  The
ledger holds only their totals, `state_us`: each device tracks its own live
radio state during the run, and the simulation fills `state_us` at the
horizon.

`delivered` counts frames the destination actually received (duplicates from
a lost acknowledgement are not double-counted); `dropped` counts frames
abandoned without any successful reception.  Frames still in flight when the
horizon ends belong to neither.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from enum import Enum
from typing import IO, TYPE_CHECKING, Iterable

from .core import BNC_ID, SimTime, TrafficClass

if TYPE_CHECKING:
    from fractions import Fraction


class RadioState(Enum):
    TX = "tx"
    RX = "rx"
    IDLE_LISTEN = "idle_listen"  # awake, includes CCA
    SLEEP = "sleep"              # everything off
    WAKEUP_RX = "wakeup_rx"      # main radio off, wakeup receiver on

    __hash__ = object.__hash__  # identity hash; see engine.EventKind


class EnergyModel:
    __slots__ = ("tx_mw", "rx_mw", "idle_listen_mw", "sleep_mw", "wakeup_rx_mw")

    def __init__(self, tx_mw: float = 52.2, rx_mw: float = 56.4,
                 idle_listen_mw: float = 1.28, sleep_mw: float = 0.06,
                 wakeup_rx_mw: float = 0.01) -> None:
        if not (tx_mw > idle_listen_mw and rx_mw > idle_listen_mw):
            raise ValueError("tx and rx power must exceed idle_listen power")
        if not idle_listen_mw > sleep_mw >= 0:
            raise ValueError("idle_listen power must exceed sleep power, sleep >= 0")
        self.tx_mw = tx_mw
        self.rx_mw = rx_mw
        self.idle_listen_mw = idle_listen_mw
        self.sleep_mw = sleep_mw
        self.wakeup_rx_mw = wakeup_rx_mw

    def power_mw(self, state: RadioState) -> float:
        return {
            RadioState.TX: self.tx_mw,
            RadioState.RX: self.rx_mw,
            RadioState.IDLE_LISTEN: self.idle_listen_mw,
            RadioState.SLEEP: self.sleep_mw,
            RadioState.WAKEUP_RX: self.wakeup_rx_mw,
        }[state]


NODE_CSV_COLUMNS = (
    "run_id,seed,mac,node_id,class,offered,delivered,dropped,pdr,"
    "mean_latency_us,p50_us,p99_us,max_us,energy_mj,spurious_wakeups"
)
SUMMARY_CSV_COLUMNS = (
    "run_id,seed,mac,total_superframes,bnc_awake_superframes,"
    "bnc_awake_fraction,bnc_energy_mj,wakeup_signals_sent"
)


class MetricsLedger:
    """Counters and samples for one run; ledgers merge for seed sweeps."""

    def __init__(self, profile_classes: dict[int, TrafficClass] | None = None) -> None:
        self.profile_classes = dict(profile_classes or {})
        self.offered: Counter[tuple[int, TrafficClass]] = Counter()
        self.delivered: Counter[tuple[int, TrafficClass]] = Counter()
        self.dropped: Counter[tuple[int, TrafficClass]] = Counter()
        # Latency samples per (node, class) as exact int64 arrays: 8 bytes a
        # sample, where a list holds a pointer to a Python int of 28 bytes.
        self.latency: dict[tuple[int, TrafficClass], array] = {}
        self.state_us: dict[int, Counter[RadioState]] = {}
        self.spurious_wakeups: Counter[int] = Counter()
        self.node_awake_superframes: Counter[int] = Counter()
        self.wakeup_signals_sent: Counter[int] = Counter()
        self.loss_reasons: Counter[str] = Counter()
        self.bnc_awake_superframes = 0
        self.total_superframes = 0

    # -- counting -----------------------------------------------------------

    def add_delivered(self, node: int, cls: TrafficClass, latency_us: SimTime) -> None:
        key = (node, cls)
        self.delivered[key] += 1
        samples = self.latency.get(key)
        if samples is None:
            samples = self.latency[key] = array("q")
        samples.append(latency_us)

    def add_dropped(self, node: int, cls: TrafficClass) -> None:
        self.dropped[(node, cls)] += 1

    # -- derived figures ------------------------------------------------------

    def pdr(self, node: int | None = None, cls: TrafficClass | None = None) -> float | None:
        offered = self._sum(self.offered, node, cls)
        if offered == 0:
            return None
        return self._sum(self.delivered, node, cls) / offered

    def energy_mj(self, node: int, model: EnergyModel) -> float:
        """`fsum` makes it independent of the order states entered `state_us` in."""
        per_state = self.state_us.get(node, Counter())
        return math.fsum(
            dur_us * 1e-6 * model.power_mw(state) for state, dur_us in per_state.items()
        )

    def latency_samples(self, node: int | None = None, cls: TrafficClass | None = None) -> list[SimTime]:
        out: list[SimTime] = []
        for (n, c), samples in self.latency.items():
            if (node is None or n == node) and (cls is None or c == cls):
                out.extend(samples)
        return out

    def bnc_awake_fraction(self) -> Fraction | None:
        from fractions import Fraction  # imported here: no run needs it

        if self.total_superframes == 0:
            return None
        return Fraction(self.bnc_awake_superframes, self.total_superframes)

    def _sum(self, counter: Counter, node: int | None, cls: TrafficClass | None) -> int:
        return sum(
            v for (n, c), v in counter.items()
            if (node is None or n == node) and (cls is None or c == cls)
        )

    # -- merging --------------------------------------------------------------

    def merge_from(self, other: "MetricsLedger") -> None:
        self.profile_classes.update(other.profile_classes)
        self.offered.update(other.offered)
        self.delivered.update(other.delivered)
        self.dropped.update(other.dropped)
        for key, samples in other.latency.items():
            self.latency.setdefault(key, array("q")).extend(samples)
        for node, states in other.state_us.items():
            self.state_us.setdefault(node, Counter()).update(states)
        self.spurious_wakeups.update(other.spurious_wakeups)
        self.node_awake_superframes.update(other.node_awake_superframes)
        self.wakeup_signals_sent.update(other.wakeup_signals_sent)
        self.loss_reasons.update(other.loss_reasons)
        self.bnc_awake_superframes += other.bnc_awake_superframes
        self.total_superframes += other.total_superframes


def merge_ledgers(ledgers: Iterable[MetricsLedger]) -> MetricsLedger:
    merged = MetricsLedger()
    for ledger in ledgers:
        merged.merge_from(ledger)
    return merged


def nearest_rank(sorted_samples: list[SimTime], q: float) -> SimTime:
    n = len(sorted_samples)
    idx = max(1, math.ceil(q * n))
    return sorted_samples[idx - 1]


def latency_stats(samples: list[SimTime]) -> dict[str, float | SimTime] | None:
    """mean/p50/p99/max over recorded samples; None when there are none."""
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        "mean": sum(ordered) / len(ordered),
        "p50": nearest_rank(ordered, 0.50),
        "p99": nearest_rank(ordered, 0.99),
        "max": ordered[-1],
    }


# -- CSV export ---------------------------------------------------------------


def node_csv_rows(
    ledger: MetricsLedger,
    run_id: str,
    seed: int | str,
    mac: str,
    energy_model: EnergyModel,
) -> list[str]:
    keys = set(ledger.offered) | set(ledger.delivered) | set(ledger.dropped)
    covered_nodes = {n for n, _ in keys}
    for node, cls in sorted(ledger.profile_classes.items()):
        if node not in covered_nodes:
            keys.add((node, cls))
    rows = []
    for node, cls in sorted(keys, key=lambda k: (k[0], k[1].value)):
        offered = ledger.offered[(node, cls)]
        delivered = ledger.delivered[(node, cls)]
        dropped = ledger.dropped[(node, cls)]
        pdr = "" if offered == 0 else f"{delivered / offered:.6f}"
        stats = latency_stats(ledger.latency.get((node, cls), []))
        if stats is None:
            mean = p50 = p99 = mx = ""
        else:
            mean = f"{stats['mean']:.3f}"
            p50, p99, mx = str(stats["p50"]), str(stats["p99"]), str(stats["max"])
        energy = f"{ledger.energy_mj(node, energy_model):.6f}"
        rows.append(
            f"{run_id},{seed},{mac},{node},{cls.value},{offered},{delivered},{dropped},"
            f"{pdr},{mean},{p50},{p99},{mx},{energy},{ledger.spurious_wakeups[node]}"
        )
    return rows


def write_node_csv(
    fh: IO[str],
    ledger: MetricsLedger,
    run_id: str,
    seed: int | str,
    mac: str,
    energy_model: EnergyModel,
) -> None:
    fh.write(NODE_CSV_COLUMNS + "\n")
    for row in node_csv_rows(ledger, run_id, seed, mac, energy_model):
        fh.write(row + "\n")


def write_summary_csv(
    fh: IO[str],
    ledger: MetricsLedger,
    run_id: str,
    seed: int | str,
    mac: str,
    energy_model: EnergyModel,
) -> None:
    # Int true division is correctly rounded, so this equals
    # float(ledger.bnc_awake_fraction()).
    total = ledger.total_superframes
    frac_txt = "" if total == 0 else f"{ledger.bnc_awake_superframes / total:.6f}"
    bnc_energy = f"{ledger.energy_mj(BNC_ID, energy_model):.6f}"
    signals = sum(ledger.wakeup_signals_sent.values())
    fh.write(SUMMARY_CSV_COLUMNS + "\n")
    fh.write(
        f"{run_id},{seed},{mac},{ledger.total_superframes},{ledger.bnc_awake_superframes},"
        f"{frac_txt},{bnc_energy},{signals}\n"
    )
