"""Capacity-upgrade orchestration and its latency breakdown (Figure 17).

A complete upgrade runs: (optional) operator-to-Master spectrum-sharing
exchange, CP solving (measured live on this machine), configuration
distribution over the backhaul (modelled), and gateway reboots
(modelled, executed in parallel across gateways so the term is the max,
not the sum).  Each step is a performance phase (``upgrade.sync``,
``core.plan``, ``upgrade.distribute``, ``upgrade.reboot``).

Degraded mode: when the Master is unreachable (retry budget exhausted)
and an :class:`~repro.faults.cache.AssignmentCache` holds the
operator's last-known assignment, the upgrade proceeds on the cached
channel plan instead of crashing — ``LatencyBreakdown.degraded`` flags
the run so operators can re-sync once the Master returns.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.cache import AssignmentCache
from ..faults.retry import MasterUnavailableError
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, phase_timed
from ..phy.channels import Channel
from ..sim.scenario import Network
from .agents import GatewayAgent, distribution_latency_s
from .intra_planner import IntraNetworkPlanner, PlanOutcome
from .master_client import MasterClient
from .protocol import ProtocolError

logger = logging.getLogger(__name__)

__all__ = ["LatencyBreakdown", "run_capacity_upgrade"]


@dataclass
class LatencyBreakdown:
    """Per-segment latency of one capacity upgrade."""

    cp_solving_s: float = 0.0
    master_comm_s: float = 0.0
    distribution_s: float = 0.0
    reboot_s: float = 0.0
    # True when the Master was unreachable and the upgrade ran on the
    # cached last-known assignment instead.
    degraded: bool = False

    @property
    def total_s(self) -> float:
        """End-to-end suspension time (reboots run in parallel)."""
        return (
            self.cp_solving_s
            + self.master_comm_s
            + self.distribution_s
            + self.reboot_s
        )


def run_capacity_upgrade(
    planner: IntraNetworkPlanner,
    master_client: Optional[MasterClient] = None,
    operator: Optional[str] = None,
    agent_seed: int = 0,
    assignment_cache: Optional[AssignmentCache] = None,
) -> Tuple[PlanOutcome, LatencyBreakdown]:
    """Execute a full capacity upgrade for one network.

    Args:
        planner: Intra-network planner for this operator (already
            pointed at the spectrum to use; when a Master client is
            given, its assignment overrides the planner's channels).
        master_client: Optional connection to the AlphaWAN Master for
            spectrum sharing.
        operator: Operator name for Master registration (required when
            ``master_client`` is given).
        agent_seed: Seed for the modelled gateway-agent latencies.
        assignment_cache: Optional last-known-assignment cache.  A
            fresh assignment is stored into it; when the Master is
            unreachable the cached one is served instead and the
            breakdown is flagged ``degraded``.

    Returns:
        The planning outcome and the latency breakdown.

    Raises:
        MasterUnavailableError (or the transport error): the Master was
            unreachable and no cached assignment exists to fall back to.
    """
    latency = LatencyBreakdown()

    if master_client is not None:
        if not operator:
            raise ValueError("operator name required for spectrum sharing")
        t0 = time.perf_counter()
        with phase_timed(Phase.SYNC):
            try:
                assignment = master_client.register(operator)
            except (MasterUnavailableError, ProtocolError, OSError):
                cached = (
                    assignment_cache.get(operator)
                    if assignment_cache is not None
                    else None
                )
                if cached is None:
                    raise
                assignment = cached
                latency.degraded = True
                logger.warning(
                    "master unreachable; upgrading %r on the cached "
                    "assignment",
                    operator,
                )
        latency.master_comm_s = time.perf_counter() - t0
        if assignment_cache is not None and not latency.degraded:
            assignment_cache.store(assignment)
        planner.channels = assignment.channels()

    outcome = planner.plan()
    latency.cp_solving_s = outcome.solve_time_s

    network: Network = planner.network
    with phase_timed(Phase.DISTRIBUTE, items=len(network.gateways)):
        configs: List[List[Channel]] = [
            outcome.solution.gateway_channels(outcome.cp_input, j)
            for j in range(len(network.gateways))
        ]
        latency.distribution_s = distribution_latency_s(configs)

    with phase_timed(Phase.REBOOT, items=len(network.gateways)):
        reboot_times = []
        for gw, channels in zip(network.gateways, configs):
            agent = GatewayAgent(gateway=gw, seed=agent_seed)
            reboot_times.append(agent.apply_config(channels))
        latency.reboot_s = max(reboot_times) if reboot_times else 0.0

    if planner.config.optimize_nodes:
        for i, dev in enumerate(network.devices):
            ch = outcome.cp_input.channels[outcome.solution.node_channels[i]]
            tier = outcome.cp_input.tiers[outcome.solution.node_tiers[i]]
            dev.apply_config(
                channel=ch, dr=tier.dr, tx_power_dbm=tier.tx_power_dbm
            )

    rec = _obs.TRACE
    if rec is not None:
        # Distribution and reboot terms are modelled (deterministic);
        # CP solving and Master comm are live wall-clock measurements,
        # so they ride in strippable ``*wall_s`` fields.
        rec.emit(
            EventType.UPGRADE_DONE,
            degraded=latency.degraded,
            distribution_s=latency.distribution_s,
            reboot_s=latency.reboot_s,
            cp_solving_wall_s=latency.cp_solving_s,
            master_comm_wall_s=latency.master_comm_s,
        )
    logger.info(
        "capacity upgrade done: total %.3fs (degraded=%s)",
        latency.total_s,
        latency.degraded,
    )
    return outcome, latency
