"""Shared core types: transmissions and per-gateway observations.

These types sit below every other package: nodes emit
:class:`Transmission` objects, the simulation medium attaches each
gateway's link RSSI to them, and the gateway pipeline turns what it
hears (as :class:`Observation` objects) into receptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .phy.channels import Channel
from .phy.lora import (
    LoRaParams,
    SpreadingFactor,
    preamble_duration_s,
    time_on_air_s,
)

__all__ = ["Transmission", "Observation", "time_overlap_s"]


class _Timing:
    """Timing derived from a :class:`Transmission`'s fields.

    Declared on a plain (non-dataclass) base so the attributes are typed
    instance attributes but not dataclass fields: equality, hashing,
    ``repr`` and :func:`dataclasses.fields` see only the packet's fields.
    """

    airtime_s: float  #: Total time-on-air of the packet.
    end_s: float  #: Transmission end time.
    lock_on_s: float  #: When a gateway channel locks on (FCFS key).


@dataclass(frozen=True)
class Transmission(_Timing):
    """One uplink packet on the air.

    Attributes:
        node_id: Identifier of the transmitting end node.
        network_id: Operator/network the node belongs to (the LoRaWAN
            sync word distinguishes networks but is only readable *after*
            decoding — the root of inter-network decoder contention).
        channel: Transmit channel.
        sf: Spreading factor.
        start_s: Transmission start time (leading preamble symbol).
        payload_bytes: MAC payload length.
        tx_power_dbm: Transmit power.
        counter: Uplink frame counter (for dedup at the network server).
        confirmed: Whether the uplink requests an acknowledgement (and
            so is retransmitted when none arrives).
        attempt: Retransmission index — 0 for the original send, 1+ for
            re-sends of the same frame counter.

    ``airtime_s``, ``end_s`` and ``lock_on_s`` are computed once, at
    construction (and again by :func:`dataclasses.replace`): the
    reception kernels read them for every candidate interferer.
    """

    node_id: int
    network_id: int
    channel: Channel
    sf: SpreadingFactor
    start_s: float
    payload_bytes: int = 10
    tx_power_dbm: float = 14.0
    counter: int = 0
    confirmed: bool = False
    attempt: int = 0

    def __post_init__(self) -> None:
        bandwidth_hz = int(self.channel.bandwidth_hz)
        airtime_s = time_on_air_s(self.payload_bytes, self.sf, bandwidth_hz)
        preamble_s = preamble_duration_s(self.sf, bandwidth_hz)
        object.__setattr__(self, "airtime_s", airtime_s)
        object.__setattr__(self, "end_s", self.start_s + airtime_s)
        object.__setattr__(self, "lock_on_s", self.start_s + preamble_s)

    @property
    def params(self) -> LoRaParams:
        """The PHY parameter set of this transmission."""
        return LoRaParams(sf=self.sf, bandwidth_hz=int(self.channel.bandwidth_hz))

    @property
    def preamble_s(self) -> float:
        """Preamble duration; the decoder locks on at its end."""
        return preamble_duration_s(self.sf, int(self.channel.bandwidth_hz))

    def key(self) -> tuple:
        """Dedup key used by the network server."""
        return (self.network_id, self.node_id, self.counter)


@dataclass(frozen=True)
class Observation:
    """A transmission as seen at one gateway's antenna port.

    The medium (or a test) computes ``rssi_dbm`` from the link budget;
    the gateway pipeline handles everything downstream of the antenna.
    """

    transmission: Transmission
    rssi_dbm: float

    @property
    def tx(self) -> Transmission:
        """Shorthand for the underlying transmission."""
        return self.transmission


def time_overlap_s(a: Transmission, b: Transmission) -> float:
    """Length of the time interval during which two packets are both on air."""
    return max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))
