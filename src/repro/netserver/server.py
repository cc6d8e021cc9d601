"""The LoRaWAN network server (ChirpStack stand-in).

Responsibilities modelled: ingesting per-gateway receptions, dedup of
multi-gateway copies, operational logging (consumed by AlphaWAN's log
parser), and pushing downlink configuration — channel creation and ADR
MAC commands — to gateways and end devices.

Resilience: :meth:`NetworkServer.sync_with_master` keeps the last
assignment obtained from the AlphaWAN Master; when the Master becomes
unreachable the server keeps operating on that cached channel plan and
raises a ``degraded`` flag instead of suspending the network.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..faults.cache import AssignmentCache
from ..faults.retry import MasterUnavailableError
from ..gateway.gateway import Gateway, GatewayReception, Outcome
from ..node.device import EndDevice
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..phy.channels import Channel
from ..phy.lora import DataRate
from .records import UplinkRecord, format_log_line

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.master import Assignment
    from ..core.master_client import MasterClient

logger = logging.getLogger(__name__)

__all__ = ["NetworkServer"]


class NetworkServer:
    """Network server for one operator network.

    Args:
        network_id: The operator network this server manages.
        gateways: Gateways registered to this server.
        devices: Subscribed end devices.
    """

    def __init__(
        self,
        network_id: int,
        gateways: Sequence[Gateway] = (),
        devices: Sequence[EndDevice] = (),
    ) -> None:
        self.network_id = network_id
        self.gateways: List[Gateway] = []
        self.devices: Dict[int, EndDevice] = {}
        for gw in gateways:
            self.register_gateway(gw)
        for dev in devices:
            self.register_device(dev)
        self.records: List[UplinkRecord] = []
        self._seen: Set[tuple] = set()
        self.duplicates = 0
        # Master-sync state: last-known assignment and degraded flag.
        self.last_assignment = None
        self.degraded = False
        self.degraded_syncs = 0

    def register_gateway(self, gateway: Gateway) -> None:
        """Attach a gateway to this server."""
        if gateway.network_id != self.network_id:
            raise ValueError(
                f"gateway {gateway.gateway_id} belongs to network "
                f"{gateway.network_id}, not {self.network_id}"
            )
        self.gateways.append(gateway)

    def register_device(self, device: EndDevice) -> None:
        """Subscribe an end device."""
        if device.network_id != self.network_id:
            raise ValueError(
                f"device {device.node_id} belongs to network "
                f"{device.network_id}, not {self.network_id}"
            )
        self.devices[device.node_id] = device

    # ------------------------------------------------------------------
    # Uplink path
    # ------------------------------------------------------------------

    def ingest(self, receptions: Iterable[GatewayReception]) -> List[UplinkRecord]:
        """Ingest gateway receptions; returns the newly deduped uplinks.

        Only successfully received own-network packets produce records;
        multi-gateway copies of the same uplink are collapsed (the first
        copy wins, as in ChirpStack's dedup window).
        """
        fresh: List[UplinkRecord] = []
        rec_trace = _obs.TRACE
        metrics = _obs.METRICS
        for rec in receptions:
            if rec.outcome is not Outcome.RECEIVED:
                continue
            tx = rec.transmission
            if tx.network_id != self.network_id:
                continue
            record = UplinkRecord(
                timestamp_s=rec.lock_on_s if rec.lock_on_s is not None else tx.start_s,
                gateway_id=rec.gateway_id,
                network_id=tx.network_id,
                node_id=tx.node_id,
                counter=tx.counter,
                frequency_hz=tx.channel.center_hz,
                dr=int(tx.params.dr),
                snr_db=rec.snr_db if rec.snr_db is not None else 0.0,
                rssi_dbm=0.0 if rec.snr_db is None else rec.snr_db - 120.0,
                payload_bytes=tx.payload_bytes,
            )
            self.records.append(record)
            key = record.key()
            dup = key in self._seen
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.NETSERVER_UPLINK,
                    t=record.timestamp_s,
                    gw=record.gateway_id,
                    net=record.network_id,
                    node=record.node_id,
                    ctr=record.counter,
                    att=tx.attempt,
                    dup=dup,
                )
            if metrics is not None:
                metrics.counter(
                    "repro_netserver_uplinks_total",
                    "own-network uplinks ingested (including duplicates)",
                    network=self.network_id,
                ).inc()
                if dup:
                    metrics.counter(
                        "repro_netserver_duplicates_total",
                        "multi-gateway copies collapsed by dedup",
                        network=self.network_id,
                    ).inc()
            if dup:
                self.duplicates += 1
                continue
            self._seen.add(key)
            fresh.append(record)
        return fresh

    def log_lines(self) -> List[str]:
        """The operational log (every gateway copy, not deduped)."""
        return [format_log_line(r) for r in self.records]

    def received_node_ids(self) -> Set[int]:
        """Nodes with at least one delivered uplink."""
        return {r.node_id for r in self.records}

    # ------------------------------------------------------------------
    # Downlink path (configuration distribution)
    # ------------------------------------------------------------------

    def configure_gateway(self, gateway_id: int, channels: Sequence[Channel]) -> None:
        """Push a channel configuration to one gateway (reboots it)."""
        for gw in self.gateways:
            if gw.gateway_id == gateway_id:
                gw.configure(channels)
                gw.reboot()
                return
        raise KeyError(f"no gateway {gateway_id} on network {self.network_id}")

    def configure_device(
        self,
        node_id: int,
        channel: Optional[Channel] = None,
        dr: Optional[DataRate] = None,
        tx_power_dbm: Optional[float] = None,
    ) -> None:
        """Send ADR / channel MAC commands to one device."""
        try:
            dev = self.devices[node_id]
        except KeyError:
            raise KeyError(f"no device {node_id} on network {self.network_id}")
        dev.apply_config(channel=channel, dr=dr, tx_power_dbm=tx_power_dbm)

    # ------------------------------------------------------------------
    # Master synchronization (degraded-mode fallback)
    # ------------------------------------------------------------------

    def sync_with_master(
        self,
        master_client: "MasterClient",
        operator: str,
        cache: Optional[AssignmentCache] = None,
    ) -> "Assignment":
        """Fetch this operator's channel assignment from the Master.

        On success the assignment is remembered (and stored into
        ``cache`` when given) and ``degraded`` clears.  When the Master
        is unreachable, the server falls back to its last-known
        assignment — or the cache's — and sets ``degraded`` instead of
        raising; only with no fallback at all does the error propagate.

        Returns:
            The (fresh or cached) :class:`~repro.core.master.Assignment`.
        """
        from ..core.protocol import ProtocolError

        try:
            assignment = master_client.register(operator)
        except (MasterUnavailableError, ProtocolError, OSError):
            cached = self.last_assignment
            if cached is None and cache is not None:
                cached = cache.get(operator)
            if cached is None:
                raise
            self.degraded = True
            self.degraded_syncs += 1
            self.last_assignment = cached
            rec_trace = _obs.TRACE
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.NETSERVER_DEGRADED,
                    net=self.network_id,
                    syncs=self.degraded_syncs,
                )
            logger.warning(
                "network %d: master unreachable, serving cached assignment "
                "(degraded sync #%d)",
                self.network_id,
                self.degraded_syncs,
            )
            return cached
        self.degraded = False
        self.last_assignment = assignment
        if cache is not None:
            cache.store(assignment)
        return assignment

    def clear(self) -> None:
        """Drop logs and dedup state (new measurement epoch)."""
        self.records.clear()
        self._seen.clear()
        self.duplicates = 0
