"""The complete COTS gateway reception model.

Chains the Appendix-C pipeline stages: RF front-end channel matching and
preamble detection (:mod:`.detector`), FCFS decoder dispatch
(:mod:`.dispatcher`, :mod:`.decoder`), payload decoding under
interference (:mod:`repro.phy.interference`), and finally the sync-word
network filter — which, crucially, runs *after* decoding, so foreign
packets consume decoder resources before being discarded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, phase_timed
from ..phy.channels import (
    INDEX_BUCKET_HZ,
    Channel,
    bucket_reach,
    spectrum_span_hz,
)
from ..phy.interference import Interferer, decode_ok
from ..phy.lora import SpreadingFactor
from ..phy.link import Position, noise_floor_dbm
from ..types import Observation, Transmission
from .decoder import DecoderPool
from .detector import Detection, RxChannels, detect, match_rx_channel
from .dispatcher import FcfsDispatcher
from .models import GatewayModel, get_model

__all__ = ["Outcome", "GatewayReception", "Gateway", "Hearing"]

# One interference-index row per indexed transmission, precomputed once:
# (tx, start_s, end_s, low_hz, high_hz, position, sf, channel,
# network_id).  ``position`` is the transmission's place in the indexed
# sequence; rows sort by start_s (then by position).  Rows carry no
# RSSI: the same index serves every gateway of a run.
_Row = Tuple[
    Transmission, float, float, float, float, int,
    SpreadingFactor, Channel, int,
]
# (per frequency bucket: rows, their starts, longest airtime; buckets a
# lookup scans on each side of its own).
_TimeIndex = Tuple[Dict[int, Tuple[List[_Row], List[float], float]], int]


def _row_start_s(row: _Row) -> float:
    """Sort key for the interference time index (hoisted: hot path)."""
    return row[1]


class Hearing(NamedTuple):
    """An interference index as one gateway hears it.

    ``rssi_dbm[p]`` is the RSSI at this gateway of the index's packet at
    position ``p``, or ``None`` when the gateway does not hear it (the
    medium pruned it below the gateway's cutoff).
    """

    index: _TimeIndex
    rssi_dbm: List[Optional[float]]


class Outcome(Enum):
    """Fate of a packet at one gateway."""

    RECEIVED = "received"
    FILTERED_FOREIGN = "filtered_foreign"  # decoded, wrong sync word
    DECODE_FAILED = "decode_failed"        # collision / interference
    NO_DECODER = "no_decoder"              # dropped by the dispatcher
    BELOW_SENSITIVITY = "below_sensitivity"
    CHANNEL_MISMATCH = "channel_mismatch"  # front-end truncated
    GATEWAY_OFFLINE = "gateway_offline"    # radio dark (crash / reboot)
    BACKHAUL_LOST = "backhaul_lost"        # decoded, lost gateway->server


@dataclass(frozen=True)
class GatewayReception:
    """Per-packet reception record at one gateway."""

    gateway_id: int
    transmission: Transmission
    outcome: Outcome
    rx_channel: Optional[Channel] = None
    snr_db: Optional[float] = None
    lock_on_s: Optional[float] = None
    # Networks holding the decoders when this packet was rejected
    # (only for NO_DECODER outcomes): used to attribute contention.
    blocker_network_ids: Tuple[int, ...] = ()
    # Extra gateway->server latency from an injected backhaul fault
    # (only for RECEIVED outcomes under a FaultPlan).
    backhaul_delay_s: float = 0.0

    @property
    def received(self) -> bool:
        """Whether the packet was successfully delivered to the backhaul."""
        return self.outcome is Outcome.RECEIVED


class Gateway:
    """A LoRaWAN gateway: position, network, channel config, decoder pool.

    Args:
        gateway_id: Unique identifier.
        network_id: Operator network this gateway forwards for.
        position: Physical location (drives link budgets in the sim).
        model: Hardware model (decoder count, spectrum limits).
        channels: Operating receive channels; must respect the model's
            channel-count and spectrum-span limits.
        noise_figure_db: Receiver noise figure.
        collision_resilient: Model a CIC-style gateway (SIGCOMM'21) that
            resolves co-channel collisions in PHY processing — packets
            above the noise threshold decode despite interference.  The
            decoder-pool constraint still applies (the paper's fairness
            condition when comparing against CIC in section 5.2.1).
    """

    def __init__(
        self,
        gateway_id: int,
        network_id: int,
        position: Position,
        channels: Sequence[Channel],
        model: Optional[GatewayModel] = None,
        noise_figure_db: float = 6.0,
        collision_resilient: bool = False,
    ) -> None:
        self.gateway_id = gateway_id
        self.network_id = network_id
        self.position = position
        self.model = model or get_model()
        self.noise_figure_db = noise_figure_db
        self.collision_resilient = collision_resilient
        self._channels = RxChannels()
        self.configure(channels)
        self.pool = DecoderPool(self.model.decoders)
        self.pool.trace_gateway_id = gateway_id
        self.reboots = 0

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """The configured receive channels (sorted by frequency)."""
        return self._channels

    def configure(self, channels: Sequence[Channel]) -> None:
        """Apply a new channel configuration (validated against hardware).

        Raises:
            ValueError: if the configuration exceeds the model's channel
                count or receive-spectrum span.
        """
        chans = tuple(sorted(channels))
        if not chans:
            raise ValueError("a gateway needs at least one receive channel")
        if len(chans) > self.model.max_channels:
            raise ValueError(
                f"{len(chans)} channels exceed the {self.model.name} limit "
                f"of {self.model.max_channels}"
            )
        span = spectrum_span_hz(chans)
        if span > self.model.rx_spectrum_hz + 1.0:
            raise ValueError(
                f"channel span {span / 1e6:.2f} MHz exceeds the "
                f"{self.model.name} receive spectrum of "
                f"{self.model.rx_spectrum_hz / 1e6:.2f} MHz"
            )
        self._channels = RxChannels(chans)

    def reboot(self) -> None:
        """Reboot the gateway (clears the decoder pool); counted for latency."""
        self.pool.reset()
        self.reboots += 1
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_gateway_reboots_total",
                "gateway reboots (reconfigurations and crashes)",
                gateway=self.gateway_id,
            ).inc()

    @staticmethod
    def _build_time_index(transmissions: Sequence[Transmission]) -> _TimeIndex:
        """Index transmissions by frequency bucket and start time.

        Keeps the scaled-operation scenarios (tens of thousands of
        packets) near linear: interference lookups scan only
        time-adjacent packets in frequency-adjacent buckets, as many on
        each side as the widest indexed bandwidth needs
        (:func:`~repro.phy.channels.bucket_reach`).  Each row carries
        the packet's time span and passband edges, so the scan compares
        floats instead of re-deriving them per candidate.  A simulated
        run indexes its transmissions once for all gateways
        (:class:`~repro.sim.medium.Medium`); a batch handed to
        :meth:`receive` alone is indexed on its own.
        """
        buckets: Dict[int, List[_Row]] = {}
        widest = 0.0
        for position, tx in enumerate(transmissions):
            channel = tx.channel
            key = int(channel.center_hz // INDEX_BUCKET_HZ)
            row: _Row = (
                tx, tx.start_s, tx.end_s, channel.low_hz, channel.high_hz,
                position, tx.sf, channel, tx.network_id,
            )
            buckets.setdefault(key, []).append(row)
            if channel.bandwidth_hz > widest:
                widest = channel.bandwidth_hz
        index: Dict[int, Tuple[List[_Row], List[float], float]] = {}
        for key, rows in buckets.items():
            rows.sort(key=_row_start_s)
            starts = [row[1] for row in rows]
            max_airtime = max(row[0].airtime_s for row in rows)
            index[key] = (rows, starts, max_airtime)
        return index, bucket_reach(widest)

    @staticmethod
    def _hearing(observations: Sequence[Observation]) -> Hearing:
        """A batch heard on its own: indexed alone, every packet audible."""
        return Hearing(
            Gateway._build_time_index([obs.transmission for obs in observations]),
            [obs.rssi_dbm for obs in observations],
        )

    def _interferers_for(
        self, det: Detection, hearing: Hearing
    ) -> List[Interferer]:
        """Concurrent transmissions adding energy into ``det``'s passband.

        A candidate counts when it overlaps ``det`` both in time and in
        frequency and this gateway hears it.  ``min(ends) <=
        max(starts)`` is the exact negation of
        :func:`~repro.types.time_overlap_s` being positive (for finite
        floats ``x - y <= 0`` holds exactly when ``x <= y``), and
        likewise for the passband edges and
        :func:`~repro.phy.channels.overlap_hz`.  Interferers come out
        bucket by bucket upwards, each bucket in (start, position)
        order: skipping the packets a gateway does not hear leaves the
        order its own batch's index would give.
        """
        me = det.tx
        me_start, me_end = me.start_s, me.end_s
        channel = me.channel
        me_low, me_high = channel.low_hz, channel.high_hz
        me_net = me.network_id
        (buckets, reach), heard = hearing
        center_key = int(channel.center_hz // INDEX_BUCKET_HZ)
        interferers: List[Interferer] = []
        for key in range(center_key - reach, center_key + reach + 1):
            entry = buckets.get(key)
            if entry is None:
                continue
            rows, starts, max_airtime = entry
            lo = bisect_left(starts, me_start - max_airtime)
            hi = bisect_right(starts, me_end)
            for tx, start, end, low, high, pos, sf, chan, net in rows[lo:hi]:
                if tx is me:
                    continue
                if (end if end < me_end else me_end) <= (
                    start if start > me_start else me_start
                ):
                    continue
                if (high if high < me_high else me_high) <= (
                    low if low > me_low else me_low
                ):
                    continue
                rssi = heard[pos]
                if rssi is None:
                    continue
                interferers.append(Interferer(rssi, sf, chan, net == me_net))
        return interferers

    def receive(
        self,
        observations: Sequence[Observation],
        hearing: Optional[Hearing] = None,
    ) -> List[GatewayReception]:
        """Process a batch of concurrent/overlapping observations.

        The batch should contain *every* transmission audible at this
        gateway within the simulated window (including foreign-network
        and below-sensitivity ones): they all shape detection, decoder
        occupancy, and interference.

        Args:
            observations: The batch.
            hearing: The run's shared interference index as this gateway
                hears it (:meth:`repro.sim.medium.Medium.hearing`); it
                must hear exactly ``observations``.  By default the
                batch is indexed on its own.

        Returns:
            One reception record per observation, in input order.
        """
        self.pool.reset()
        if hearing is None:
            hearing = self._hearing(observations)
        detections: List[Detection] = []
        prelim: Dict[int, GatewayReception] = {}
        rec_trace = _obs.TRACE

        with phase_timed(Phase.DETECT, items=len(observations)):
            for idx, obs in enumerate(observations):
                tx = obs.transmission
                det = detect(
                    obs, self._channels, noise_figure_db=self.noise_figure_db
                )
                if det is not None:
                    detections.append(det)
                    prelim[idx] = None  # resolved by dispatch below
                    if rec_trace is not None:
                        rec_trace.emit(
                            EventType.GW_LOCK_ON,
                            t=det.lock_on_s,
                            gw=self.gateway_id,
                            net=tx.network_id,
                            node=tx.node_id,
                            ctr=tx.counter,
                            att=tx.attempt,
                            snr_db=det.snr_db,
                        )
                    continue
                if match_rx_channel(tx.channel, self._channels) is None:
                    outcome = Outcome.CHANNEL_MISMATCH
                else:
                    outcome = Outcome.BELOW_SENSITIVITY
                prelim[idx] = GatewayReception(
                    gateway_id=self.gateway_id,
                    transmission=tx,
                    outcome=outcome,
                )

        results_by_tx: Dict[tuple, GatewayReception] = {}
        dispatcher = FcfsDispatcher(self.pool)
        dispatched = dispatcher.dispatch(detections)
        with phase_timed(Phase.DECODE, items=len(dispatched)):
            for res in dispatched:
                det = res.detection
                tx = det.tx
                if not res.admitted:
                    record = GatewayReception(
                        gateway_id=self.gateway_id,
                        transmission=tx,
                        outcome=Outcome.NO_DECODER,
                        rx_channel=det.rx_channel,
                        snr_db=det.snr_db,
                        lock_on_s=det.lock_on_s,
                        blocker_network_ids=tuple(
                            lease.holder_network_id for lease in res.blockers
                        ),
                    )
                else:
                    noise = noise_floor_dbm(
                        tx.channel.bandwidth_hz, self.noise_figure_db
                    )
                    if self.collision_resilient:
                        # CIC-style PHY: interference is resolved, only
                        # the noise threshold matters (already checked
                        # at detection time).
                        ok = True
                    else:
                        ok = decode_ok(
                            det.observation.rssi_dbm,
                            noise,
                            tx.sf,
                            det.rx_channel,
                            self._interferers_for(det, hearing),
                        )
                    if not ok:
                        outcome = Outcome.DECODE_FAILED
                    elif tx.network_id != self.network_id:
                        outcome = Outcome.FILTERED_FOREIGN
                    else:
                        outcome = Outcome.RECEIVED
                    record = GatewayReception(
                        gateway_id=self.gateway_id,
                        transmission=tx,
                        outcome=outcome,
                        rx_channel=det.rx_channel,
                        snr_db=det.snr_db,
                        lock_on_s=det.lock_on_s,
                    )
                results_by_tx[self._tx_key(tx)] = record

        out: List[GatewayReception] = []
        metrics = _obs.METRICS
        with phase_timed(Phase.EMIT, items=len(observations)):
            for idx, obs in enumerate(observations):
                rec = prelim[idx]
                if rec is None:
                    rec = results_by_tx[self._tx_key(obs.transmission)]
                out.append(rec)
                tx = rec.transmission
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.GW_RECEPTION,
                        t=tx.start_s,
                        gw=self.gateway_id,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                        outcome=rec.outcome.value,
                    )
                if metrics is not None:
                    metrics.counter(
                        "repro_outcomes_total",
                        "per-gateway reception outcomes",
                        outcome=rec.outcome.value,
                    ).inc()
        return out

    @staticmethod
    def _tx_key(tx: Transmission) -> tuple:
        return (tx.network_id, tx.node_id, tx.counter, tx.start_s)

    def __repr__(self) -> str:
        freqs = ", ".join(f"{c.center_hz / 1e6:.4f}" for c in self._channels)
        return (
            f"Gateway(id={self.gateway_id}, net={self.network_id}, "
            f"model={self.model.name}, channels=[{freqs}] MHz)"
        )
