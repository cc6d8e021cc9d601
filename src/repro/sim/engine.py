"""Online (event-driven) simulation with mid-run reconfigurations.

The batch :class:`~repro.sim.simulator.Simulator` evaluates a window
under a fixed configuration.  This engine additionally processes
*reconfiguration events*: at a given instant a gateway applies a new
channel set and reboots, going dark for the reboot duration — in-flight
packets are aborted and packets locking on during the outage are lost.
This is what the paper's Figure 17 calls the *system suspension* of a
capacity upgrade, and what its advice to "schedule upgrades during idle
periods" is about.

The engine also consumes a :class:`~repro.faults.plan.FaultPlan`:
gateway crashes behave like reboots without a channel change, decoder
degradations shrink (and later restore) the decoder pool mid-run, and
backhaul faults drop or delay successfully decoded packets on their way
to the network server.  All fault randomness draws from the plan's
seeded sub-streams, so a chaos run is exactly reproducible.

The engine only builds each gateway's timeline;
:meth:`~repro.gateway.gateway.Gateway.receive` applies it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..gateway.gateway import Gateway, Outcome, TimelineEvent
from ..phy.channels import Channel
from ..types import Transmission
from .simulator import SimulationResult, Simulator

# Unused here (Gateway.receive runs every gateway's timeline), but
# bench/tracing.py still wraps these two names at this import site.
from ..gateway.detector import detect
from ..phy.interference import decode_ok

logger = logging.getLogger(__name__)

__all__ = ["Reconfiguration", "OnlineSimulator", "OFFLINE_OUTCOME"]

# Packets that hit a dark (rebooting / crashed) gateway radio.
OFFLINE_OUTCOME = Outcome.GATEWAY_OFFLINE


@dataclass(frozen=True)
class Reconfiguration:
    """Apply new channels to a gateway at ``time_s`` and reboot it."""

    time_s: float
    gateway_id: int
    channels: Tuple[Channel, ...]
    outage_s: float = 4.62  # the measured mean reboot time (Fig. 17)

    def __post_init__(self) -> None:
        if self.outage_s < 0:
            raise ValueError("outage must be non-negative")
        if not self.channels:
            raise ValueError("a reconfiguration needs at least one channel")


class OnlineSimulator(Simulator):
    """Batch simulator extended with timed gateway reconfigurations."""

    def run_online(
        self,
        transmissions: Sequence[Transmission],
        reconfigurations: Sequence[Reconfiguration] = (),
        fault_plan: Optional[FaultPlan] = None,
    ) -> SimulationResult:
        """Simulate a window during which gateways may reconfigure or fail.

        Device-side configuration changes are the caller's concern (the
        transmissions already carry their channels); this engine owns
        the gateway-side timeline: channel switches, reboot outages,
        injected crashes, decoder degradation, and backhaul loss.

        The cyclic garbage collector is paused for the run, as in
        :meth:`Simulator.run`: a run builds no reference cycles, so its
        collections would find nothing to free.
        """
        logger.debug(
            "run_online: %d transmissions, %d gateways, %d reconfigurations",
            len(transmissions),
            len(self.gateways),
            len(reconfigurations),
        )
        reconfig_by_gw: Dict[int, List[Reconfiguration]] = {}
        for rc in reconfigurations:
            reconfig_by_gw.setdefault(rc.gateway_id, []).append(rc)
        timelines = {
            gw.gateway_id: _timeline(
                gw, reconfig_by_gw.get(gw.gateway_id, []), fault_plan
            )
            for gw in self.gateways
        }
        return self._run(transmissions, timelines, fault_plan)


def _timeline(
    gw: Gateway,
    reconfigs: Sequence[Reconfiguration],
    fault_plan: Optional[FaultPlan],
) -> List[TimelineEvent]:
    """Merge reconfigurations and fault-plan events, time-ordered."""
    events = [
        TimelineEvent(
            time_s=rc.time_s,
            channels=tuple(rc.channels),
            outage_s=rc.outage_s,
            reboot=True,
        )
        for rc in reconfigs
    ]
    if fault_plan is not None:
        for crash in fault_plan.crashes_for(gw.gateway_id):
            events.append(
                TimelineEvent(
                    time_s=crash.time_s, outage_s=crash.down_s, reboot=True
                )
            )
        full_decoders = gw.model.decoders
        for deg in fault_plan.degradations_for(gw.gateway_id):
            shrunk = min(deg.decoders, full_decoders)
            events.append(TimelineEvent(time_s=deg.time_s, decoders=shrunk))
            if deg.duration_s is not None:
                events.append(
                    TimelineEvent(
                        time_s=deg.time_s + deg.duration_s,
                        decoders=full_decoders,
                    )
                )
    events.sort(key=lambda e: e.time_s)
    return events
