"""Packet detection: front-end channel matching and preamble lock-on.

The first stage of the Appendix-C reception pipeline.  A packet enters
the decode pipeline only if (1) a configured receive channel is aligned
with its carrier — the radio's *frequency selectivity* truncates
misaligned signals — and (2) the preamble is strong enough to detect.
Only packets passing both gates ever contend for decoders.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from ..phy.channels import Channel, overlap_ratio
from ..phy.interference import DETECTION_MIN_OVERLAP
from ..phy.link import noise_floor_dbm
from ..phy.lora import SNR_THRESHOLD_DB
from ..types import Observation, Transmission

__all__ = ["Detection", "RxChannels", "match_rx_channel", "detect"]


class Detection(NamedTuple):
    """A packet that passed front-end matching and preamble detection.

    A named tuple: the reception loop builds one per lock-on.
    """

    observation: Observation
    rx_channel: Channel
    lock_on_s: float
    snr_db: float

    @property
    def tx(self) -> Transmission:
        """The underlying transmission."""
        return self.observation.transmission


class RxChannels(Tuple[Channel, ...]):
    """A receive-channel sequence that memoizes :func:`match_rx_channel`.

    The front-end match depends only on the packet channel and the
    channel sequence (its order breaks overlap ties), so a gateway
    answers it once per distinct packet channel instead of once per
    observation.  The memo lives and dies with the sequence:
    :meth:`Gateway.configure <repro.gateway.gateway.Gateway.configure>`
    builds a new one.  Otherwise it is an ordinary tuple.
    """

    def __init__(self, channels: Iterable[Channel] = ()) -> None:
        self.matches: Dict[Tuple[float, float], Optional[Channel]] = {}


def _best_match(
    packet_channel: Channel, rx_channels: Sequence[Channel]
) -> Optional[Channel]:
    best: Optional[Channel] = None
    best_overlap = 0.0
    for rx in rx_channels:
        ov = overlap_ratio(packet_channel, rx)
        if ov > best_overlap:
            best, best_overlap = rx, ov
    if best is not None and best_overlap >= DETECTION_MIN_OVERLAP:
        return best
    return None


def match_rx_channel(
    packet_channel: Channel, rx_channels: Sequence[Channel]
) -> Optional[Channel]:
    """Find the receive channel (if any) that passes this packet.

    Returns the configured channel with the highest spectral overlap
    (the first one on ties), provided the overlap reaches
    :data:`~repro.phy.interference.DETECTION_MIN_OVERLAP`; otherwise
    ``None`` — the front-end truncates the signal and the packet is
    invisible to the rest of the pipeline.
    Answers for an :class:`RxChannels` sequence come from its memo.
    """
    if not isinstance(rx_channels, RxChannels):
        return _best_match(packet_channel, rx_channels)
    key = (packet_channel.center_hz, packet_channel.bandwidth_hz)
    try:
        return rx_channels.matches[key]
    except KeyError:
        found = _best_match(packet_channel, rx_channels)
        rx_channels.matches[key] = found
        return found


def detect(
    observation: Observation,
    rx_channels: Sequence[Channel],
    noise_figure_db: float = 6.0,
) -> Optional[Detection]:
    """Run front-end matching and preamble detection for one packet.

    Detection is SNR-gated against the spreading factor's demodulation
    threshold (noise only): the paper's section 3.1 shows the gateway
    treats every detectable packet identically regardless of SNR level
    or channel crowdedness, so no prioritization happens here.

    Returns:
        A :class:`Detection` with the lock-on timestamp, or ``None`` if
        the packet cannot be seen by this gateway at all.
    """
    tx = observation.transmission
    rx_channel = match_rx_channel(tx.channel, rx_channels)
    if rx_channel is None:
        return None
    noise = noise_floor_dbm(tx.channel.bandwidth_hz, noise_figure_db)
    snr = observation.rssi_dbm - noise
    if snr < SNR_THRESHOLD_DB[tx.sf]:
        return None
    return Detection(observation, rx_channel, tx.lock_on_s, snr)
