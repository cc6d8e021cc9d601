"""Interference, capture, and radio frequency selectivity.

Three effects from the paper are modelled here:

* **Imperfect SF orthogonality** — concurrent transmissions with different
  spreading factors barely disturb each other (tens of dB of isolation),
  while co-SF transmissions require a capture margin (~6 dB) to survive a
  collision.  Thresholds follow the widely used Croce et al. matrix.
* **Partial channel overlap** — an interferer on a frequency-misaligned
  channel is attenuated by the receiver's channel filter proportionally to
  the misalignment.  Calibrated so that >=40 % misalignment keeps PRR above
  80 % even for non-orthogonal data rates (paper Figure 8) and a 20 %
  overlap with non-orthogonal DR raises the reception threshold by
  ~3.3-3.7 dB (Figure 16).
* **Frequency selectivity at detection** — a packet whose center frequency
  is misaligned with a receive channel beyond a small tolerance is
  truncated by the front-end and never reaches the decoder pipeline.
  This is the physical mechanism Strategy 8 exploits to isolate
  coexisting networks *before* decoder allocation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from ..obs import runtime as _obs
from .channels import Channel, overlap_ratio
from .lora import SNR_THRESHOLD_DB, SpreadingFactor

__all__ = [
    "CO_SF_CAPTURE_DB",
    "CAPTURE_THRESHOLD_DB",
    "DETECTION_MIN_OVERLAP",
    "capture_threshold_db",
    "sf_isolation_db",
    "overlap_rejection_db",
    "is_detectable",
    "Interferer",
    "effective_noise_mw",
    "sinr_db",
    "decode_ok",
    "orthogonal",
]

# Co-SF capture margin: a packet survives a same-SF collision when it is
# at least this much stronger than the colliding packet.
CO_SF_CAPTURE_DB = 6.0

# Inter-SF capture thresholds (Croce et al., "Impact of LoRa Imperfect
# Orthogonality"): CAPTURE_THRESHOLD_DB[desired][interferer] is the SIR
# (dB) above which the desired packet is decodable despite the interferer.
# Diagonal entries are the co-SF capture margin; off-diagonal entries are
# negative: the desired packet tolerates much stronger cross-SF signals.
_SF = SpreadingFactor
CAPTURE_THRESHOLD_DB: Dict[SpreadingFactor, Dict[SpreadingFactor, float]] = {
    _SF.SF7: {_SF.SF7: 6, _SF.SF8: -8, _SF.SF9: -9, _SF.SF10: -9, _SF.SF11: -9, _SF.SF12: -9},
    _SF.SF8: {_SF.SF7: -11, _SF.SF8: 6, _SF.SF9: -11, _SF.SF10: -12, _SF.SF11: -13, _SF.SF12: -13},
    _SF.SF9: {_SF.SF7: -15, _SF.SF8: -13, _SF.SF9: 6, _SF.SF10: -13, _SF.SF11: -14, _SF.SF12: -15},
    _SF.SF10: {_SF.SF7: -19, _SF.SF8: -18, _SF.SF9: -17, _SF.SF10: 6, _SF.SF11: -17, _SF.SF12: -18},
    _SF.SF11: {_SF.SF7: -22, _SF.SF8: -22, _SF.SF9: -21, _SF.SF10: -20, _SF.SF11: 6, _SF.SF12: -20},
    _SF.SF12: {_SF.SF7: -25, _SF.SF8: -25, _SF.SF9: -25, _SF.SF10: -26, _SF.SF11: -25, _SF.SF12: 6},
}

# A packet can only be *detected* (preamble lock) on a receive channel
# whose passband covers at least this fraction of the packet's bandwidth.
# Below this, the front-end truncates the signal and the packet never
# consumes a decoder — the isolation primitive of Strategy 8.
DETECTION_MIN_OVERLAP = 0.75

# Channel-filter rejection applied to a partially overlapping interferer:
# 0 dB when perfectly aligned, ramping to this value when fully disjoint.
FULL_MISALIGNMENT_REJECTION_DB = 45.0


def capture_threshold_db(
    desired: SpreadingFactor, interferer: SpreadingFactor
) -> float:
    """SIR (dB) the desired packet needs against a given interferer SF."""
    return CAPTURE_THRESHOLD_DB[SpreadingFactor(desired)][SpreadingFactor(interferer)]


def orthogonal(sf_a: SpreadingFactor, sf_b: SpreadingFactor) -> bool:
    """Whether two spreading factors are (quasi-)orthogonal."""
    return SpreadingFactor(sf_a) != SpreadingFactor(sf_b)


def sf_isolation_db(
    desired: SpreadingFactor, interferer: SpreadingFactor
) -> float:
    """Isolation an interferer suffers due to SF (non-)orthogonality.

    Expressed relative to the co-SF case: co-SF interference has 0 dB
    isolation; cross-SF interference is attenuated by the spread between
    the co-SF capture margin and the (negative) cross-SF threshold.
    """
    return CO_SF_CAPTURE_DB - capture_threshold_db(desired, interferer)


# sf_isolation_db for every (desired, interferer) pair, looked up by the
# per-interferer loop below instead of re-validating both enums per call.
_SF_ISOLATION_DB: Dict[SpreadingFactor, Dict[SpreadingFactor, float]] = {
    desired: {
        interferer: sf_isolation_db(desired, interferer)
        for interferer in SpreadingFactor
    }
    for desired in SpreadingFactor
}


def overlap_rejection_db(overlap: float) -> float:
    """Channel-filter rejection for a partially overlapping interferer.

    Linear ramp in dB from 0 (aligned) to
    :data:`FULL_MISALIGNMENT_REJECTION_DB` (disjoint).  With the default
    45 dB span, a 60 % overlap (40 % misalignment) earns 18 dB rejection —
    enough to keep even non-orthogonal co-SF links above the capture
    margin in the paper's Figure 8 setup.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap ratio must be in [0, 1], got {overlap}")
    return (1.0 - overlap) * FULL_MISALIGNMENT_REJECTION_DB


def is_detectable(packet_channel: Channel, rx_channel: Channel) -> bool:
    """Whether the front-end passes a packet into the detect pipeline.

    True only for (near-)aligned channels; misaligned coexisting plans
    are filtered here, *before* any decoder resources are consumed.
    """
    return overlap_ratio(packet_channel, rx_channel) >= DETECTION_MIN_OVERLAP


# What the decode kernels read of one interferer: (rssi_dbm, sf,
# channel, same_network).  ``Interferer`` is its named form.
InterfererTuple = Tuple[float, SpreadingFactor, Channel, bool]


class Interferer(NamedTuple):
    """One concurrent transmission observed while receiving a packet.

    The named form of :data:`InterfererTuple`, for interferer lists
    built by hand.  :func:`decode_ok` and the other kernels take either
    form and only unpack it; the reception loop passes plain tuples,
    which build several times faster.
    """

    rssi_dbm: float
    sf: SpreadingFactor
    channel: Channel
    same_network: bool = True


def _dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


def _mw_to_dbm(mw: float) -> float:
    if mw <= 0:
        return -math.inf
    return 10.0 * math.log10(mw)


def _noise_and_captures(
    noise_dbm: float,
    desired_sf: SpreadingFactor,
    desired_channel: Channel,
    interferers: Iterable[InterfererTuple],
) -> Tuple[float, List[float]]:
    """:func:`effective_noise_mw`, plus the RSSIs of co-SF interferers
    on an (almost) aligned channel — the true collisions that
    :func:`decode_ok` checks for capture.

    One pass computes each interferer's :func:`overlap_ratio` once, from
    the cached passband edges with that function's expression, and sums
    the isolation-weighted powers in input order.  ``x / w <= 0`` holds
    exactly when ``max(0, x) / w`` is zero, so skipping on the raw
    quotient drops the same interferers.
    """
    isolation_db = _SF_ISOLATION_DB[SpreadingFactor(desired_sf)]
    me_low, me_high = desired_channel.low_hz, desired_channel.high_hz
    me_bw = desired_channel.bandwidth_hz
    total = _dbm_to_mw(noise_dbm)
    captures: List[float] = []
    for rssi_dbm, sf, channel, _same_network in interferers:
        low, high, bw = channel.low_hz, channel.high_hz, channel.bandwidth_hz
        ov = (
            (high if high < me_high else me_high) - (low if low > me_low else me_low)
        ) / (bw if bw < me_bw else me_bw)
        if ov <= 0.0:
            continue
        if not 0.0 <= ov <= 1.0:  # overlap_rejection_db's range check
            raise ValueError(f"overlap ratio must be in [0, 1], got {ov}")
        isolation = (1.0 - ov) * FULL_MISALIGNMENT_REJECTION_DB + isolation_db[sf]
        total += 10.0 ** ((rssi_dbm - isolation) / 10.0)
        if ov >= DETECTION_MIN_OVERLAP and sf == desired_sf:
            captures.append(rssi_dbm)
    return total, captures


def effective_noise_mw(
    noise_dbm: float,
    desired_sf: SpreadingFactor,
    desired_channel: Channel,
    interferers: Iterable[InterfererTuple],
) -> float:
    """Noise plus isolation-weighted interference power (mW).

    Each interferer is attenuated by the channel-filter rejection for its
    frequency overlap and by the SF isolation, then added to the thermal
    noise floor.  This additive model produces the smooth reception
    threshold shifts measured in the paper's Figure 16.
    """
    return _noise_and_captures(
        noise_dbm, desired_sf, desired_channel, interferers
    )[0]


def sinr_db(
    rssi_dbm: float,
    noise_dbm: float,
    desired_sf: SpreadingFactor,
    desired_channel: Channel,
    interferers: Iterable[InterfererTuple],
) -> float:
    """Signal-to-(interference+noise) ratio after isolation weighting."""
    noise_mw = effective_noise_mw(
        noise_dbm, desired_sf, desired_channel, interferers
    )
    return rssi_dbm - _mw_to_dbm(noise_mw)


def decode_ok(
    rssi_dbm: float,
    noise_dbm: float,
    desired_sf: SpreadingFactor,
    desired_channel: Channel,
    interferers: Sequence[InterfererTuple] = (),
) -> bool:
    """Full decode decision for a packet at a gateway channel.

    Conditions:
      1. SINR (with isolation-weighted interference folded into the noise)
         meets the SF demodulation threshold; and
      2. for every co-SF interferer on an (almost) aligned channel — a
         true channel collision — the desired packet captures, i.e. its
         SIR exceeds the co-SF capture margin.
    """
    probe = _obs.PERF
    if probe is not None:
        # Count-only (never timed): this call sits inside the gw.decode
        # phase; items tally the signals folded into the decision.
        probe.count("phy.decode", 1 + len(interferers))
    sf = SpreadingFactor(desired_sf)
    noise_mw, captures = _noise_and_captures(
        noise_dbm, sf, desired_channel, interferers
    )
    if rssi_dbm - _mw_to_dbm(noise_mw) < SNR_THRESHOLD_DB[sf]:
        return False
    for intf_rssi_dbm in captures:
        if rssi_dbm - intf_rssi_dbm < CO_SF_CAPTURE_DB:
            return False
    return True
