"""Propagation, packet error injection, collisions and energy-detection CCA.

Path loss follows a log-distance model with separate parameters per link
class (on-body/on-body, in-body/on-body, in-body/in-body); the in-body
exponents are much steeper, which is what makes energy-detection CCA blind
to implants beyond a few meters.  Power sums for CCA are always done in
linear milliwatts, never in dB.

The model covers the data radio only.  Wakeup signals travel out of band:
they never occupy this channel, so CCA and collisions do not see them; the
simulation resolves their receivers and draws their optional loss
(`ChannelParams.wakeup_loss_p`) itself.

Placements, tx powers and path-loss parameters are fixed for the life of a
`ChannelModel`, so the link budget of a (source, listener) pair never
changes.  The model keeps one row per source placement, at that placement's
tx power, mapping each listener to its received dBm and mW, and fills an
entry the first time it is read.  `register_tx` binds the row to the
transmission and lists the rows of its interferers, so a CCA sum or a
reception decision costs one listener lookup per transmission and gets the
same floats the formulas return.

The model keeps only the transmissions on the air, so its memory does not
grow with the number of transmissions in a run.
"""

from __future__ import annotations

import math
import random
from enum import Enum

from .core import Frame, Placement, PlacementKind, SimTime

MIN_DISTANCE_M = 0.001  # log-singularity guard


class LinkClass(Enum):
    ON_BODY = "on_body"            # OnBody <-> OnBody
    IN_TO_ON = "in_to_on"          # InBody <-> OnBody, either direction
    IN_TO_IN = "in_to_in"          # InBody <-> InBody


class CcaResult(Enum):
    IDLE = "idle"
    BUSY = "busy"


class LossReason(Enum):
    COLLISION = "collision"
    BELOW_SENSITIVITY = "below_sensitivity"
    RANDOM_ERROR = "random_error"


# Enum members read on the per-event paths, bound once (see simulation.py).
BUSY, IDLE = CcaResult.BUSY, CcaResult.IDLE
IN_BODY = PlacementKind.IN_BODY


class PathLossParams:
    __slots__ = ("ref_loss_db", "ref_dist_m", "exponent")

    def __init__(self, ref_loss_db: float, ref_dist_m: float, exponent: float) -> None:
        self.ref_loss_db = ref_loss_db
        self.ref_dist_m = ref_dist_m
        self.exponent = exponent


def default_path_loss() -> dict[LinkClass, PathLossParams]:
    """Defaults calibrated so a -16 dBm implant is invisible to on-body CCA
    at 3 m but detected at 1.5 m with a -85 dBm threshold."""
    return {
        LinkClass.ON_BODY: PathLossParams(40.0, 1.0, 2.0),
        LinkClass.IN_TO_ON: PathLossParams(60.0, 1.0, 4.5),
        LinkClass.IN_TO_IN: PathLossParams(60.0, 1.0, 6.0),
    }


class ChannelParams:
    """Radio and propagation settings; `path_loss` defaults to a fresh
    `default_path_loss()`."""

    __slots__ = ("path_loss", "tx_power_on_body_dbm", "tx_power_in_body_dbm",
                 "sensitivity_dbm", "cca_threshold_dbm", "capture_margin_db", "wakeup_loss_p")

    def __init__(self, path_loss: dict[LinkClass, PathLossParams] | None = None,
                 tx_power_on_body_dbm: float = 0.0, tx_power_in_body_dbm: float = -16.0,
                 sensitivity_dbm: float = -95.0, cca_threshold_dbm: float = -85.0,
                 capture_margin_db: float = 10.0, wakeup_loss_p: float = 0.0) -> None:
        self.path_loss = default_path_loss() if path_loss is None else path_loss
        self.tx_power_on_body_dbm = tx_power_on_body_dbm
        self.tx_power_in_body_dbm = tx_power_in_body_dbm
        self.sensitivity_dbm = sensitivity_dbm
        self.cca_threshold_dbm = cca_threshold_dbm
        self.capture_margin_db = capture_margin_db
        self.wakeup_loss_p = wakeup_loss_p

    def tx_power_for(self, placement: Placement) -> float:
        if placement.kind is IN_BODY:
            return self.tx_power_in_body_dbm
        return self.tx_power_on_body_dbm


def link_class(src: Placement, dst: Placement) -> LinkClass:
    in_body = (src.kind is PlacementKind.IN_BODY, dst.kind is PlacementKind.IN_BODY)
    if all(in_body):
        return LinkClass.IN_TO_IN
    if any(in_body):
        return LinkClass.IN_TO_ON
    return LinkClass.ON_BODY


def path_loss_db(
    src: Placement, dst: Placement, params: dict[LinkClass, PathLossParams]
) -> float:
    """Log-distance loss using the parameter set of the link class."""
    p = params[link_class(src, dst)]
    d = max(src.distance_to(dst), MIN_DISTANCE_M)
    return p.ref_loss_db + 10.0 * p.exponent * math.log10(d / p.ref_dist_m)


def rx_power_dbm(
    tx_power_dbm: float,
    src: Placement,
    dst: Placement,
    params: dict[LinkClass, PathLossParams],
) -> float:
    return tx_power_dbm - path_loss_db(src, dst, params)


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


class BudgetRow(dict):
    """Listener -> (received dBm, received mW) of one source at its tx
    power, filled on first use."""

    __slots__ = ("tx_power_dbm", "src_placement", "path_loss")

    def __init__(self, tx_power_dbm: float, src_placement: Placement,
                 path_loss: dict[LinkClass, PathLossParams]) -> None:
        super().__init__()
        self.tx_power_dbm = tx_power_dbm
        self.src_placement = src_placement
        self.path_loss = path_loss

    def __missing__(self, listener: Placement) -> tuple[float, float]:
        rx = rx_power_dbm(self.tx_power_dbm, self.src_placement, listener, self.path_loss)
        link = self[listener] = (rx, dbm_to_mw(rx))
        return link


class ActiveTx:
    """A data-radio transmission registered for [start, end).

    `budget` is the link-budget row of its source placement, and
    `interferers` lists the row of each overlapping transmission: all that a
    reception decision needs.
    Holding no reference to the other `ActiveTx` keeps an ended transmission
    from being kept alive by a chain of overlaps.  `receivers` lists the
    devices that receive it, fixed by `Simulation._tx_started` when it
    starts: a beacon's listeners, or a unicast frame's destination if that
    device was awake and not itself transmitting (none otherwise).  Each
    counts it in `incoming`, which `Simulation.set_state` reads, until its
    end.
    """

    __slots__ = ("frame", "budget", "start", "end", "interferers", "receivers")

    def __init__(self, frame: Frame, budget: BudgetRow, start: SimTime, end: SimTime) -> None:
        self.frame = frame
        self.budget = budget
        self.start = start
        self.end = end
        self.interferers: list[BudgetRow] = []
        self.receivers: tuple | list = ()


class ChannelModel:
    """Active-transmission registry backing CCA and reception decisions."""

    def __init__(
        self,
        params: ChannelParams | None = None,
        link_errors: dict[tuple[int, int], float] | None = None,
    ) -> None:
        self.params = params or ChannelParams()
        self._link_p = link_errors or {}  # (src, dst) -> success probability
        self._active: list[ActiveTx] = []
        self._budget: dict[Placement, BudgetRow] = {}  # source placement -> its row

    def register_tx(
        self,
        frame: Frame,
        src_placement: Placement,
        start: SimTime,
        duration: SimTime,
    ) -> ActiveTx:
        budget = self._budget.get(src_placement)
        if budget is None:
            budget = self._budget[src_placement] = BudgetRow(
                self.params.tx_power_for(src_placement), src_placement, self.params.path_loss)
        tx = ActiveTx(frame, budget, start, start + duration)
        # A transmission may be registered ahead of its start instant, so
        # interference links require a genuine interval overlap.
        for other in self._active:
            if other.end > tx.start and tx.end > other.start:
                other.interferers.append(budget)
                tx.interferers.append(other.budget)
        self._active.append(tx)
        return tx

    def end_tx(self, tx: ActiveTx) -> None:
        self._active.remove(tx)

    def received_power_dbm(self, listener: Placement, now: SimTime) -> float:
        """Linear-milliwatt sum over the transmissions on the air, in dBm."""
        total_mw = 0.0
        for tx in self._active:  # summed in registration order, as the verdicts assume
            if tx.start <= now < tx.end:
                total_mw += tx.budget[listener][1]
        return 10.0 * math.log10(total_mw) if total_mw > 0.0 else -math.inf

    def cca_energy_detect(
        self, listener: Placement, threshold_dbm: float, now: SimTime
    ) -> CcaResult:
        power = self.received_power_dbm(listener, now)
        return BUSY if power >= threshold_dbm else IDLE

    def deliver(
        self,
        tx: ActiveTx,
        dst_placement: Placement,
        rng: random.Random,
        dst_id: int | None = None,
    ) -> LossReason | None:
        """Reception outcome at one destination; None means delivered.

        Failure reasons are checked in a fixed order: collision, then
        sensitivity, then configured link error.
        """
        frame = tx.frame
        dst = frame.dst if dst_id is None else dst_id
        own_rx = tx.budget[dst_placement][0]
        capture_floor = own_rx - self.params.capture_margin_db
        for row in tx.interferers:
            if row[dst_placement][0] >= capture_floor:
                return LossReason.COLLISION
        if own_rx < self.params.sensitivity_dbm:
            return LossReason.BELOW_SENSITIVITY
        p = self._link_p.get((frame.src, dst), 1.0)
        if p < 1.0 and rng.random() >= p:
            return LossReason.RANDOM_ERROR
        return None
