"""Deployment geometry: gateway/node placement and link budgets.

Stands in for the paper's 2.1 km x 1.6 km urban testbed (Figure 11):
gateways on a regular grid, nodes scattered uniformly, and a seeded
log-distance path-loss model supplying every link RSSI/SNR.  Path loss
per (node, gateway) pair is cached — the deployment is static.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..phy.link import (
    LogDistancePathLoss,
    PathLossModel,
    Position,
    noise_floor_dbm,
)

__all__ = [
    "AREA_WIDTH_M",
    "AREA_HEIGHT_M",
    "grid_positions",
    "uniform_positions",
    "LinkBudget",
]

# The paper's testbed footprint.
AREA_WIDTH_M = 2_100.0
AREA_HEIGHT_M = 1_600.0


def grid_positions(
    count: int,
    width_m: float = AREA_WIDTH_M,
    height_m: float = AREA_HEIGHT_M,
) -> List[Position]:
    """Place ``count`` gateways on a near-square grid inside the area.

    Grid placement mirrors how operators densify coverage; it is
    deterministic so capacity curves vary only with the planner.
    """
    if count < 1:
        raise ValueError("need at least one position")
    cols = int(count ** 0.5)
    while cols * (count // cols + (1 if count % cols else 0)) < count:
        cols += 1
    rows = count // cols + (1 if count % cols else 0)
    positions: List[Position] = []
    for i in range(count):
        r, c = divmod(i, cols)
        x = width_m * (c + 0.5) / cols
        y = height_m * (r + 0.5) / rows
        positions.append(Position(x, y))
    return positions


def uniform_positions(
    count: int,
    seed: int = 0,
    width_m: float = AREA_WIDTH_M,
    height_m: float = AREA_HEIGHT_M,
) -> List[Position]:
    """Scatter ``count`` nodes uniformly at random (seeded)."""
    rng = random.Random(seed)
    return [
        Position(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m))
        for _ in range(count)
    ]


@dataclass
class LinkBudget:
    """Cached link-budget calculator over a static deployment.

    Args:
        path_loss: The propagation model (defaults to the calibrated
            urban log-distance model).
        noise_figure_db: Gateway receiver noise figure.
    """

    path_loss: PathLossModel = field(default_factory=LogDistancePathLoss)
    noise_figure_db: float = 6.0
    _cache: Dict[Tuple[float, float, float, float], float] = field(
        default_factory=dict, repr=False
    )

    def path_loss_db(self, a: Position, b: Position) -> float:
        """Cached path loss for the (unordered) link ``a <-> b``."""
        key = (a.x, a.y, b.x, b.y) if (a.x, a.y) <= (b.x, b.y) else (
            b.x, b.y, a.x, a.y
        )
        loss = self._cache.get(key)
        if loss is None:
            loss = self.path_loss.path_loss_db(a, b)
            self._cache[key] = loss
        return loss

    def rssi_dbm(
        self,
        tx_power_dbm: float,
        a: Position,
        b: Position,
        antenna_gain_db: float = 0.0,
    ) -> float:
        """Received power for a transmission over the link."""
        return tx_power_dbm + antenna_gain_db - self.path_loss_db(a, b)

    def snr_db(
        self,
        tx_power_dbm: float,
        a: Position,
        b: Position,
        bandwidth_hz: float = 125_000.0,
        antenna_gain_db: float = 0.0,
    ) -> float:
        """Link SNR at the receiver."""
        return self.rssi_dbm(tx_power_dbm, a, b, antenna_gain_db) - (
            noise_floor_dbm(bandwidth_hz, self.noise_figure_db)
        )
