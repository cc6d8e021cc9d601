"""Discrete-event network simulation over the gateway/node substrates."""

from __future__ import annotations

from .metrics import (
    LossBreakdown,
    LossCause,
    bucketed_prr,
    classify_loss,
    loss_breakdown,
    outcome_counts,
    retry_delivery_breakdown,
    service_ratio,
    spectrum_utilization,
    throughput_bps,
    time_to_recover_s,
)
from .resilience import ResilientResult, run_with_retransmissions
from .scenario import (
    Network,
    all_combos,
    assign_orthogonal_combos,
    assign_random_channels,
    assign_tier_by_reach,
    build_network,
)
from .engine import OnlineSimulator, Reconfiguration
from .medium import Medium
from .simulator import SimulationResult, Simulator, tx_key
from .topology import (
    AREA_HEIGHT_M,
    AREA_WIDTH_M,
    LinkBudget,
    grid_positions,
    uniform_positions,
)

__all__ = [
    "LossBreakdown", "LossCause", "classify_loss", "loss_breakdown",
    "service_ratio", "spectrum_utilization", "throughput_bps",
    "bucketed_prr", "outcome_counts",
    "retry_delivery_breakdown", "time_to_recover_s",
    "ResilientResult", "run_with_retransmissions",
    "Network", "all_combos", "assign_orthogonal_combos",
    "assign_random_channels",
    "assign_tier_by_reach", "build_network",
    "OnlineSimulator", "Reconfiguration", "Medium",
    "SimulationResult", "Simulator", "tx_key",
    "AREA_HEIGHT_M", "AREA_WIDTH_M", "LinkBudget", "grid_positions",
    "uniform_positions",
]
