"""Scenario builders: assemble gateways, devices, and configurations.

Helpers shared by the experiments: grid-deployed gateways, uniformly
scattered nodes, orthogonal (channel, DR) assignment for capacity
bursts, random device channels, and reach-based DR/power tiers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..gateway.gateway import Gateway
from ..gateway.models import GatewayModel, get_model
from ..node.device import EndDevice
from ..phy.channels import Channel
from ..phy.lora import DataRate
from .topology import AREA_HEIGHT_M, AREA_WIDTH_M, grid_positions, uniform_positions

__all__ = [
    "Network",
    "build_network",
    "assign_orthogonal_combos",
    "assign_random_channels",
    "assign_tier_by_reach",
    "all_combos",
]


@dataclass
class Network:
    """One operator's deployment: its gateways and subscribed devices."""

    network_id: int
    gateways: List[Gateway] = field(default_factory=list)
    devices: List[EndDevice] = field(default_factory=list)

    @property
    def channels_in_use(self) -> Tuple[Channel, ...]:
        """Union of channels configured on this network's gateways."""
        chans = {c for gw in self.gateways for c in gw.channels}
        return tuple(sorted(chans))


def build_network(
    network_id: int,
    num_gateways: int,
    num_nodes: int,
    channels: Sequence[Channel],
    seed: int = 0,
    model: Optional[GatewayModel] = None,
    gateway_id_base: int = 0,
    node_id_base: int = 0,
    width_m: float = AREA_WIDTH_M,
    height_m: float = AREA_HEIGHT_M,
    default_dr: DataRate = DataRate.DR2,
    tx_power_dbm: float = 14.0,
) -> Network:
    """Create a network with grid gateways and uniformly scattered nodes.

    Every gateway starts with the same ``channels`` configuration (the
    homogeneous status quo); nodes start on a round-robin channel from
    the same set.  Planners reconfigure both afterwards.
    """
    if not channels:
        raise ValueError("need at least one channel")
    model = model or get_model()
    gw_positions = grid_positions(num_gateways, width_m, height_m)
    node_positions = uniform_positions(
        num_nodes, seed=seed, width_m=width_m, height_m=height_m
    )
    gateways = [
        Gateway(
            gateway_id=gateway_id_base + i,
            network_id=network_id,
            position=pos,
            channels=channels,
            model=model,
        )
        for i, pos in enumerate(gw_positions)
    ]
    devices = [
        EndDevice(
            node_id=node_id_base + i,
            network_id=network_id,
            position=pos,
            channel=channels[i % len(channels)],
            dr=default_dr,
            tx_power_dbm=tx_power_dbm,
        )
        for i, pos in enumerate(node_positions)
    ]
    return Network(network_id=network_id, gateways=gateways, devices=devices)


def all_combos(
    channels: Sequence[Channel],
    drs: Sequence[DataRate] = tuple(DataRate),
) -> List[Tuple[Channel, DataRate]]:
    """Every orthogonal (channel, data-rate) cell of a spectrum block.

    The size of this list is the *theoretical capacity* of the block:
    the maximum number of users that can transmit concurrently without
    any channel contention.
    """
    return [(ch, dr) for ch in channels for dr in drs]


def assign_orthogonal_combos(
    devices: Sequence[EndDevice],
    channels: Sequence[Channel],
    drs: Sequence[DataRate] = tuple(DataRate),
) -> None:
    """Assign devices unique (channel, DR) combos, wrapping when exhausted.

    Used by every capacity-burst experiment: up to ``len(channels) * 6``
    users transmit with zero channel contention; beyond that, combos
    repeat and true collisions appear (as in Figure 15's overload leg).
    """
    combos = all_combos(channels, drs)
    for i, dev in enumerate(devices):
        ch, dr = combos[i % len(combos)]
        dev.apply_config(channel=ch, dr=dr)


def assign_tier_by_reach(
    network: Network,
    k_nearest: int = 3,
    spread_seed: Optional[int] = None,
) -> None:
    """Assign each device a tier covering its ``k``-th nearest gateway.

    A realistic non-ADR operating point: every node picks a data rate
    and power that keep several gateways in reach (redundancy is the
    reason LoRaWAN forwards through all gateways).  With
    ``spread_seed`` set, each node picks uniformly among the tiers at
    or above its required one — mimicking the mixed DR usage of
    operational networks where applications, not ADR, choose rates.
    """
    from ..phy.link import DEFAULT_TIERS, tier_for_distance

    if not network.gateways:
        raise ValueError("network has no gateways")
    rng = random.Random(spread_seed) if spread_seed is not None else None
    k = min(max(k_nearest, 1), len(network.gateways))
    for dev in network.devices:
        distances = sorted(
            dev.position.distance_to(gw.position) for gw in network.gateways
        )
        tier = tier_for_distance(distances[k - 1])
        if tier is None:
            tier = DEFAULT_TIERS[-1]
        if rng is not None:
            eligible = [t for t in DEFAULT_TIERS if t.index >= tier.index]
            tier = rng.choice(eligible)
        dev.apply_config(dr=tier.dr, tx_power_dbm=tier.tx_power_dbm)


def assign_random_channels(
    devices: Sequence[EndDevice],
    channels: Sequence[Channel],
    seed: int = 0,
    drs: Optional[Sequence[DataRate]] = None,
) -> None:
    """Randomize device channels (and optionally DRs) over a channel set."""
    rng = random.Random(seed)
    for dev in devices:
        dev.apply_config(channel=rng.choice(list(channels)))
        if drs:
            dev.apply_config(dr=rng.choice(list(drs)))
