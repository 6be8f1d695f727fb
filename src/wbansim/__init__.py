"""Deterministic discrete-event simulator for low-power WBAN MAC protocols."""

from .core import (
    BNC_ID,
    Criticality,
    Frame,
    FrameKind,
    NodeProfile,
    Placement,
    PlacementKind,
    TrafficClass,
    airtime,
)
from .metrics import EnergyModel, MetricsLedger, RadioState, merge_ledgers
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .simulation import Simulation

__version__ = "0.1.0"
