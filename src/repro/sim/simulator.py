"""Network-level simulation: medium, gateways, and delivery resolution.

The :class:`Simulator` wires the pieces together: it builds the run's
:class:`~repro.sim.medium.Medium` (every packet's RSSI at every gateway
and one shared interference index), runs every gateway's reception
pipeline on what it hears, and resolves network-level delivery (a
packet is delivered if *any* gateway of its own network received it —
LoRaWAN has no user-gateway association).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from ..gateway.gateway import (
    Gateway, GatewayReception, Hearing, Outcome, TimelineEvent,
)
from ..node.device import EndDevice
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, phase_timed
from ..types import Transmission
from .medium import Medium
from .topology import LinkBudget

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["SimulationResult", "Simulator", "TxKey"]

TxKey = Tuple[int, int, int, float]  # (network, node, counter, start)


def tx_key(tx: Transmission) -> TxKey:
    """Canonical per-packet key."""
    return (tx.network_id, tx.node_id, tx.counter, tx.start_s)


def record_slots(result: "SimulationResult") -> Dict[int, List[GatewayReception]]:
    """Each of the run's transmissions' record list, by object identity.

    Creates the (empty) lists of ``result.receptions``; packets with
    equal :func:`tx_key` share one.  The reception loops then file each
    record under ``id(record.transmission)`` instead of rebuilding its
    key.
    """
    receptions = result.receptions
    return {
        id(tx): receptions.setdefault(tx_key(tx), [])
        for tx in result.transmissions
    }


@dataclass
class SimulationResult:
    """Outcome of one simulated window."""

    transmissions: List[Transmission]
    # Per-packet records at every gateway that observed it.
    receptions: Dict[TxKey, List[GatewayReception]] = field(default_factory=dict)
    gateways: List[Gateway] = field(default_factory=list)

    def records_for(self, tx: Transmission) -> List[GatewayReception]:
        """All gateway records for one transmission."""
        return self.receptions.get(tx_key(tx), [])

    def delivered(self, tx: Transmission) -> bool:
        """Whether the packet reached its own network server."""
        return self._delivered(tx, self.own_gateway_ids(tx.network_id))

    def _delivered(self, tx: Transmission, own_ids: set) -> bool:
        received = Outcome.RECEIVED
        return any(
            r.outcome is received and r.gateway_id in own_ids
            for r in self.records_for(tx)
        )

    def own_gateway_ids(self, network_id: int) -> set:
        key = ("own", network_id)
        cache = getattr(self, "_own_cache", None)
        if cache is None:
            cache = {}
            self._own_cache = cache
        if key not in cache:
            cache[key] = {
                g.gateway_id for g in self.gateways if g.network_id == network_id
            }
        return cache[key]

    def delivered_count(self, network_id: Optional[int] = None) -> int:
        """Packets delivered, optionally restricted to one network."""
        own: Dict[int, set] = {}
        count = 0
        for tx in self.transmissions:
            net = tx.network_id
            if network_id is not None and net != network_id:
                continue
            own_ids = own.get(net)
            if own_ids is None:
                own_ids = own[net] = self.own_gateway_ids(net)
            if self._delivered(tx, own_ids):
                count += 1
        return count

    def offered_count(self, network_id: Optional[int] = None) -> int:
        """Packets offered, optionally restricted to one network."""
        return sum(
            1
            for tx in self.transmissions
            if network_id is None or tx.network_id == network_id
        )

    def prr(self, network_id: Optional[int] = None) -> float:
        """Packet reception ratio."""
        offered = self.offered_count(network_id)
        if offered == 0:
            return 0.0
        return self.delivered_count(network_id) / offered


class Simulator:
    """Batch simulator over a static deployment.

    Args:
        gateways: All gateways in the area — across *every* coexisting
            network; gateways observe foreign packets too.
        devices: All end devices (for positions).
        link: Link-budget calculator.
    """

    def __init__(
        self,
        gateways: Sequence[Gateway],
        devices: Sequence[EndDevice],
        link: Optional[LinkBudget] = None,
    ) -> None:
        ids = [g.gateway_id for g in gateways]
        if len(set(ids)) != len(ids):
            raise ValueError("gateway ids must be unique")
        self.gateways = list(gateways)
        self.devices: Dict[Tuple[int, int], EndDevice] = {
            (d.network_id, d.node_id): d for d in devices
        }
        if len(self.devices) != len(devices):
            raise ValueError("(network_id, node_id) pairs must be unique")
        self.link = link or LinkBudget()

    def medium(self, transmissions: Sequence[Transmission]) -> Medium:
        """The medium every gateway of a run over ``transmissions`` shares."""
        return Medium(self.link, self.devices, self.gateways, transmissions)

    def observations_at(
        self,
        gateway: Gateway,
        transmissions: Sequence[Transmission],
        medium: Optional[Medium] = None,
    ) -> Hearing:
        """The audible observation set at one gateway (pruned), as its
        whole view of the run (:meth:`Medium.hearing`).

        ``medium`` is the run's medium over ``transmissions`` when the
        caller already has it; otherwise one is made for this gateway.

        Raises:
            KeyError: for a transmission from an unknown device.
        """
        if medium is None:
            medium = Medium(self.link, self.devices, [gateway], transmissions)
        return medium.hearing(gateway)

    def run(self, transmissions: Sequence[Transmission]) -> SimulationResult:
        """Simulate one window of traffic across all gateways.

        The cyclic garbage collector is paused for the run: a run builds
        no reference cycles, so its collections would find nothing to
        free.
        """
        return self._run(transmissions)

    def _run(
        self,
        transmissions: Sequence[Transmission],
        timelines: Optional[Mapping[int, Sequence[TimelineEvent]]] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> SimulationResult:
        """One simulated run, shared by :meth:`run` and the online engine.

        Each gateway receives what it hears on the run's medium, under
        its timeline in ``timelines`` (by gateway id) and
        ``fault_plan``'s backhaul faults.  Only an online run passes
        ``timelines``.

        The cyclic garbage collector is off for the whole body, and back
        on afterwards only if it was on at entry (the :mod:`timeit`
        pattern).  A run keeps every reception record alive until it
        returns and builds no reference cycles, so the collections the
        allocations would trigger find nothing to free.
        """
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            online = timelines is not None
            result = SimulationResult(
                transmissions=list(transmissions), gateways=self.gateways
            )
            rec = _obs.TRACE
            run_index = rec.next_run_index() if rec is not None else 0
            if rec is not None:
                rec.emit(
                    EventType.SIM_RUN_START,
                    run=run_index,
                    txs=len(result.transmissions),
                    gateways=len(self.gateways),
                    online=online,
                )
            probe = _obs.PERF
            if probe is not None:
                probe.note_run(
                    len(result.transmissions),
                    min((t.start_s for t in result.transmissions), default=0.0),
                    max((t.end_s for t in result.transmissions), default=0.0),
                )
            slots = record_slots(result)
            medium = self.medium(result.transmissions)
            for gw in self.gateways:
                with phase_timed(Phase.OBSERVE, items=len(transmissions)):
                    view = self.observations_at(gw, transmissions, medium)
                timeline = timelines.get(gw.gateway_id, ()) if timelines else ()
                records = gw.receive(view, timeline, fault_plan)
                with phase_timed(Phase.COLLECT, items=len(records)):
                    for record in records:
                        slots[id(record.transmission)].append(record)
            if rec is not None:
                rec.emit(EventType.SIM_RUN_END, run=run_index)
            return result
        finally:
            if enabled:
                gc.enable()
