"""End-device models: configuration, traffic generation, standard ADR."""

from __future__ import annotations

from .adr import ADR_MARGIN_DB, AdrDecision, POWER_STEPS_DBM, adr_decision
from .device import EndDevice
from .traffic import (
    burst_by_final_preamble,
    capacity_burst,
    duty_cycle_schedule,
)

__all__ = [
    "ADR_MARGIN_DB", "AdrDecision", "POWER_STEPS_DBM", "adr_decision",
    "EndDevice",
    "burst_by_final_preamble", "capacity_burst", "duty_cycle_schedule",
]
