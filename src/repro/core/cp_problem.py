"""The intra-network Channel Planning (CP) problem (paper section 4.3.1).

Formalizes the triplet (GW, ND, CH) with distance tiers DR, the coverage
tensor ``r[i][j][l]``, per-gateway resource constants (decoders ``C_j``,
channel budget ``P_j``, radio span ``B_j``), and node traffic ``u_i``.
The solution assigns every gateway a contiguous channel window and every
node a (channel, tier) pair; the objective is the traffic-weighted sum
of per-node packet-loss risks, with a secondary penalty for overloading
a single (channel, data-rate) cell (channel contention).

The problem is a knapsack variant (NP-hard); :mod:`.intra_planner` runs
the evolutionary engine over the encoding defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.channels import Channel
from ..phy.link import DEFAULT_TIERS, DistanceTier

__all__ = ["GatewaySpec", "NodeSpec", "CPInput", "CPSolution", "CPEvaluator"]


@dataclass(frozen=True)
class GatewaySpec:
    """Per-gateway constants: decoders ``C_j``, channels ``P_j``, span ``B_j``."""

    gateway_id: int
    decoders: int
    max_channels: int
    max_span_channels: int  # B_j expressed in grid slots


@dataclass(frozen=True)
class NodeSpec:
    """Per-node constants: traffic ``u_i`` and tier-wise reachability."""

    node_id: int
    traffic: float  # expected concurrent load u_i within the window
    # reach[l] = indices of gateways reachable when using tier l.
    reach: Tuple[Tuple[int, ...], ...]


@dataclass
class CPInput:
    """A complete CP problem instance."""

    gateways: List[GatewaySpec]
    nodes: List[NodeSpec]
    channels: List[Channel]
    tiers: Tuple[DistanceTier, ...] = DEFAULT_TIERS

    def __post_init__(self) -> None:
        if not self.gateways:
            raise ValueError("CP needs at least one gateway")
        if not self.channels:
            raise ValueError("CP needs at least one channel")
        for node in self.nodes:
            if len(node.reach) != len(self.tiers):
                raise ValueError(
                    f"node {node.node_id} has {len(node.reach)} reach sets "
                    f"but there are {len(self.tiers)} tiers"
                )


@dataclass
class CPSolution:
    """A decoded CP decision.

    Attributes:
        gateway_windows: Per-gateway (start_channel_index, count).
        node_channels: Per-node channel index.
        node_tiers: Per-node distance-tier index.
        risk: Objective value (lower is better).
        connectivity_violations: Nodes left without any serving gateway.
    """

    gateway_windows: List[Tuple[int, int]]
    node_channels: List[int]
    node_tiers: List[int]
    risk: float
    connectivity_violations: int

    def gateway_channels(self, cp: CPInput, j: int) -> List[Channel]:
        """Materialize gateway ``j``'s channel window."""
        start, count = self.gateway_windows[j]
        return list(cp.channels[start : start + count])


# The objective is expressed in *expected lost packets*, so every term
# is a per-packet loss probability weighted by traffic.  This keeps the
# solver's fitness directly comparable to measured deliveries and makes
# the trade-offs between serving, colliding, and parking well-posed.
#
# Cost per unit of unserved traffic (a node with no serving gateway).
# The paper states connectivity as a hard constraint; we soften it so
# that, when offered demand exceeds total decoder capacity, the solver
# can deliberately park excess users on unserved channels — where their
# packets are truncated by every front-end and consume no decoders —
# instead of poisoning the decoder pools that serve everyone else.
UNSERVED_COST = 1.0
# Per-packet cost inside a collided (channel, DR) cell: slightly above
# a sure loss so collisions are never preferred over parking (they also
# waste the colliding partner and a decoder).
CELL_OVERLOAD_WEIGHT = 1.2
# Per extra gateway hearing a packet: decoder occupancy without a
# delivery (section 3.2).  Small: redundancy is only traded away when
# it costs nothing else.
REDUNDANCY_WEIGHT = 0.05


class CPEvaluator:
    """Vectorized evaluation of CP genomes.

    Genome layout (all integers)::

        [gw0_start, gw0_count, gw1_start, gw1_count, ...,
         node0_channel, node0_tier, node1_channel, node1_tier, ...]

    ``count`` genes range 1..min(P_j, span, num_channels); ``start``
    genes range over valid window starts.

    When ``fixed_nodes`` is given (the "without node-side cooperation"
    variant of Strategy 7), the genome contains only the gateway genes
    and node (channel, tier) assignments stay at the provided values.
    """

    def __init__(
        self,
        cp: CPInput,
        fixed_nodes: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
        cell_overload_weight: Optional[float] = None,
        redundancy_weight: Optional[float] = None,
        unserved_cost: Optional[float] = None,
    ) -> None:
        self.cp = cp
        self.cell_overload_weight = (
            CELL_OVERLOAD_WEIGHT
            if cell_overload_weight is None
            else cell_overload_weight
        )
        self.redundancy_weight = (
            REDUNDANCY_WEIGHT if redundancy_weight is None else redundancy_weight
        )
        self.unserved_cost = (
            UNSERVED_COST if unserved_cost is None else unserved_cost
        )
        if fixed_nodes is not None:
            ch, tiers = fixed_nodes
            if len(ch) != len(cp.nodes) or len(tiers) != len(cp.nodes):
                raise ValueError("fixed_nodes arrays must match the node count")
            self.fixed_nodes: Optional[Tuple[np.ndarray, np.ndarray]] = (
                np.asarray(ch, dtype=int),
                np.asarray(tiers, dtype=int),
            )
        else:
            self.fixed_nodes = None
        self.num_gw = len(cp.gateways)
        self.num_nodes = len(cp.nodes)
        self.num_channels = len(cp.channels)
        self.num_tiers = len(cp.tiers)
        # reach[l, i, j] boolean tensor.
        self.reach = np.zeros(
            (self.num_tiers, self.num_nodes, self.num_gw), dtype=bool
        )
        for i, node in enumerate(cp.nodes):
            for l, gw_ids in enumerate(node.reach):
                for j in gw_ids:
                    self.reach[l, i, j] = True
        self._node_index = np.arange(self.num_nodes)
        # Grid channel indices as a column, for the window table.
        self._grid = np.arange(self.num_channels)[:, None]
        self.traffic = np.array([n.traffic for n in cp.nodes], dtype=float)
        self.decoders = np.array([g.decoders for g in cp.gateways], dtype=float)
        # DR index per tier (for the cell-overload penalty).
        self.tier_dr = np.array([int(t.dr) for t in cp.tiers], dtype=int)

    # -- genome helpers -------------------------------------------------

    def bounds(self) -> List[Tuple[int, int]]:
        """Per-gene bounds for the evolutionary engine."""
        out: List[Tuple[int, int]] = []
        for g in self.cp.gateways:
            max_count = min(g.max_channels, g.max_span_channels, self.num_channels)
            out.append((0, self.num_channels - 1))  # start (clamped in decode)
            out.append((1, max_count))  # count
        if self.fixed_nodes is None:
            for _ in self.cp.nodes:
                out.append((0, self.num_channels - 1))  # node channel
                out.append((0, self.num_tiers - 1))  # node tier
        return out

    def split(self, genome: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Decode a genome into (starts, counts, node_channels, node_tiers).

        The node arrays are views into an int64 array genome (no copy).
        """
        g = np.asarray(genome, dtype=np.int64)
        gw_part = g[: 2 * self.num_gw].reshape(self.num_gw, 2)
        if self.fixed_nodes is not None:
            node_ch, node_tier = self.fixed_nodes
        else:
            node_part = g[2 * self.num_gw :].reshape(self.num_nodes, 2)
            node_ch, node_tier = node_part[:, 0], node_part[:, 1]
        counts = np.maximum(gw_part[:, 1], 1)
        # Clamp the window inside the grid.
        starts = np.minimum(gw_part[:, 0], self.num_channels - counts)
        starts = np.maximum(starts, 0)
        return starts, counts, node_ch, node_tier

    # -- evaluation ------------------------------------------------------

    def link_matrix(
        self,
        starts: np.ndarray,
        counts: np.ndarray,
        node_ch: np.ndarray,
        node_tier: np.ndarray,
    ) -> np.ndarray:
        """``link[i, j]`` — node i can deliver through gateway j.

        A C-contiguous (nodes, gateways) bool array.  A node channel off
        the grid links nowhere.
        """
        # Channel membership start_j <= c < start_j + count_j, tabled once
        # per genome: row c + 1 for grid channel c, and all-False first
        # and last rows, which the clipped gather maps every off-grid
        # channel to.
        table = np.zeros((self.num_channels + 2, self.num_gw), dtype=bool)
        grid = self._grid
        np.logical_and(grid >= starts, grid < starts + counts, out=table[1:-1])
        link = np.take(table, node_ch + 1, axis=0, mode="clip")
        link &= self.reach[node_tier, self._node_index, :]
        return link

    def risk(self, genome: Sequence[int]) -> Tuple[float, int]:
        """Objective value and connectivity violations for a genome."""
        starts, counts, node_ch, node_tier = self.split(genome)
        link = self.link_matrix(starts, counts, node_ch, node_tier)

        # Gateway load k_j, overload phi_j, and per-packet loss
        # probability at the gateway: of k_j contending packets, the
        # phi_j beyond the decoder pool are dropped, uniformly at random
        # over lock-on order — so each packet loses with phi_j / k_j.
        k = self.traffic @ link  # (G,)
        phi = np.maximum(k - self.decoders, 0.0)
        gw_loss = np.where(k > 0.0, phi / np.maximum(k, 1e-9), 0.0)

        # Node risk Phi_i = min over serving gateways (the paper's risk,
        # normalized to a loss probability).  The minimum and the link
        # count reduce a gateway-major copy: a minimum does not depend on
        # the order it is taken in, and a count is an integer, so both
        # are exact.  The float sum ``k`` stays on ``link``, whose layout
        # sets the order BLAS adds in.
        by_gw = np.ascontiguousarray(link.T)
        node_risk = np.where(by_gw, gw_loss[:, None], np.inf).min(axis=0)
        links_per_node = by_gw.sum(axis=0)
        disconnected = ~np.isfinite(node_risk)
        violations = int(np.count_nonzero(disconnected))
        node_risk[disconnected] = 0.0

        total = float((self.traffic * node_risk).sum())
        total += self.unserved_cost * float(self.traffic[disconnected].sum())

        # Channel contention: concurrent load sharing one (channel, DR)
        # cell collides pairwise.  The expected collision cost in a cell
        # is ~2x the pairwise product of its members' concurrent loads
        # (each packet is lost when it overlaps a partner), capped by
        # the cell's total load (one cannot lose more than everything).
        # For unit burst loads this reduces to "a multiply-occupied cell
        # loses its whole load"; for fractional duty-cycle loads it
        # grades smoothly, rewarding spreading across channels and DRs.
        dr = self.tier_dr[node_tier]
        cell = node_ch * 6 + dr
        num_cells = self.num_channels * 6
        load = np.bincount(cell, weights=self.traffic, minlength=num_cells)
        sumsq = np.bincount(
            cell, weights=self.traffic * self.traffic, minlength=num_cells
        )
        pairs = np.maximum(load * load - sumsq, 0.0)  # 2 * sum_{i<j} u_i u_j
        collided = np.minimum(load, pairs).sum()
        total += self.cell_overload_weight * float(collided)

        # Redundant decoder occupancy: gateways beyond the first that
        # hear a packet consume decoders without adding deliveries.
        redundancy = float(
            (self.traffic * np.maximum(links_per_node - 1, 0)).sum()
        )
        total += self.redundancy_weight * redundancy
        return total, violations

    def fitness(self, genome: Sequence[int]) -> float:
        """Fitness for the GA (negated risk)."""
        total, _ = self.risk(genome)
        return -total

    def decode(self, genome: Sequence[int]) -> CPSolution:
        """Decode a genome into a full :class:`CPSolution`."""
        starts, counts, node_ch, node_tier = self.split(genome)
        total, violations = self.risk(genome)
        return CPSolution(
            gateway_windows=[(int(s), int(c)) for s, c in zip(starts, counts)],
            node_channels=[int(c) for c in node_ch],
            node_tiers=[int(t) for t in node_tier],
            risk=total,
            connectivity_violations=violations,
        )
