"""Metrics and loss-cause classification (paper Figures 4 and 13).

A lost packet is attributed to exactly one cause, with the precedence
the paper uses when dissecting operational logs:

1. **Decoder contention** — some in-range, channel-matched gateway of
   the packet's network rejected it for lack of a free decoder; split
   into *intra*- and *inter*-network contention by inspecting which
   networks held the decoders at the rejection instant.
2. **Channel contention** — the packet was admitted somewhere but the
   decode failed under co-channel interference (collision); split by
   the networks of its co-SF, co-channel partners, found in the
   reception kernel's interference index
   (:func:`~repro.gateway.gateway._build_time_index`).
3. **Other** — out of range, below sensitivity, or frequency-mismatched
   everywhere (noise, poor SNR, etc.).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..gateway.gateway import (
    GatewayReception,
    Outcome,
    _build_time_index,
    _overlapping_rows,
    _TimeIndex,
)
from ..phy.channels import Channel, overlap_ratio
from ..phy.interference import DETECTION_MIN_OVERLAP
from ..types import Transmission
from .simulator import SimulationResult

__all__ = [
    "LossCause",
    "classify_loss",
    "LossBreakdown",
    "loss_breakdown",
    "breakdown_ratios",
    "throughput_bps",
    "spectrum_utilization",
    "service_ratio",
    "outcome_counts",
    "bucketed_prr",
    "retry_delivery_breakdown",
    "time_to_recover_s",
]


class LossCause(Enum):
    """Primary cause of a packet loss."""

    DELIVERED = "delivered"
    DECODER_INTRA = "decoder_contention_intra"
    DECODER_INTER = "decoder_contention_inter"
    CHANNEL_INTRA = "channel_contention_intra"
    CHANNEL_INTER = "channel_contention_inter"
    OTHER = "other"


def _partner_networks(time_index: _TimeIndex, tx: Transmission) -> List[int]:
    """Networks of ``tx``'s collision partners: co-SF packets that
    overlap it in time with an :func:`overlap_ratio` of at least
    :data:`DETECTION_MIN_OVERLAP`, found by the reception kernel's scan.

    The SF test runs before the ratio: it is the cheaper one.
    """
    sf, channel = tx.sf, tx.channel
    return [
        net
        for _tx, _start, _end, _low, _high, _pos, row_sf, row_channel, net
        in _overlapping_rows(time_index, tx)
        if row_sf == sf
        and overlap_ratio(row_channel, channel) >= DETECTION_MIN_OVERLAP
    ]


def classify_loss(
    tx: Transmission,
    result: SimulationResult,
    time_index: Optional[_TimeIndex] = None,
) -> LossCause:
    """Classify the fate of one transmission at the network level.

    ``time_index`` is the interference index of ``result.transmissions``
    (built here when not given); :func:`loss_breakdown` builds it once
    for every packet it classifies.
    """
    records = result.records_for(tx)
    own_ids = result.own_gateway_ids(tx.network_id)
    own = [r for r in records if r.gateway_id in own_ids]
    if any(r.received for r in own):
        return LossCause.DELIVERED

    rejected = [r for r in own if r.outcome is Outcome.NO_DECODER]
    if rejected:
        foreign_blockers = any(
            net != tx.network_id
            for r in rejected
            for net in r.blocker_network_ids
        )
        return (
            LossCause.DECODER_INTER if foreign_blockers else LossCause.DECODER_INTRA
        )

    if any(r.outcome is Outcome.DECODE_FAILED for r in own):
        if time_index is None:
            time_index = _build_time_index(result.transmissions)
        nets = _partner_networks(time_index, tx)
        foreign = any(net != tx.network_id for net in nets)
        return LossCause.CHANNEL_INTER if foreign else LossCause.CHANNEL_INTRA

    return LossCause.OTHER


@dataclass
class LossBreakdown:
    """Aggregate packet accounting for one network (or all)."""

    offered: int = 0
    counts: Counter = field(default_factory=Counter)

    def ratio(self, cause: LossCause) -> float:
        """Fraction of offered packets with the given fate."""
        if self.offered == 0:
            return 0.0
        return self.counts[cause] / self.offered

    @property
    def prr(self) -> float:
        """Packet reception ratio."""
        return self.ratio(LossCause.DELIVERED)

    @property
    def loss_ratio(self) -> float:
        """Total loss ratio."""
        return 1.0 - self.prr

    def as_dict(self) -> Dict[str, float]:
        """Ratios keyed by cause value (for reports)."""
        return {cause.value: self.ratio(cause) for cause in LossCause}


def loss_breakdown(
    result: SimulationResult, network_id: Optional[int] = None
) -> LossBreakdown:
    """Classify every packet of a network (or all networks)."""
    breakdown = LossBreakdown()
    index = _build_time_index(result.transmissions)
    for tx in result.transmissions:
        if network_id is not None and tx.network_id != network_id:
            continue
        breakdown.offered += 1
        breakdown.counts[classify_loss(tx, result, time_index=index)] += 1
    return breakdown


def breakdown_ratios(
    result: SimulationResult, network_id: Optional[int] = None
) -> Dict[str, float]:
    """Loss breakdown as the experiments' flat report row.

    The shared shape of every Figure 4-style series and of scenario
    run results: offered count, PRR, and the per-cause loss ratios.
    """
    b = loss_breakdown(result, network_id=network_id)
    return {
        "offered": b.offered,
        "prr": b.prr,
        "decoder_intra": b.ratio(LossCause.DECODER_INTRA),
        "decoder_inter": b.ratio(LossCause.DECODER_INTER),
        "channel_intra": b.ratio(LossCause.CHANNEL_INTRA),
        "channel_inter": b.ratio(LossCause.CHANNEL_INTER),
        "other": b.ratio(LossCause.OTHER),
    }


def throughput_bps(
    result: SimulationResult,
    window_s: float,
    network_id: Optional[int] = None,
) -> float:
    """Delivered application throughput in bits per second."""
    if window_s <= 0:
        raise ValueError("window must be positive")
    delivered_bytes = sum(
        tx.payload_bytes
        for tx in result.transmissions
        if (network_id is None or tx.network_id == network_id)
        and result.delivered(tx)
    )
    return delivered_bytes * 8.0 / window_s


def spectrum_utilization(
    result: SimulationResult,
    channels: Sequence[Channel],
) -> Dict[Tuple[int, int], int]:
    """Delivered-packet counts per (channel index, data rate) cell.

    The Figure 13d heat map: a balanced matrix means the planner exploits
    the full orthogonal channel x DR space; standard ADR concentrates
    mass in the DR5 column.
    """
    counts: Dict[Tuple[int, int], int] = {}
    for tx in result.transmissions:
        if not result.delivered(tx):
            continue
        best_idx, best_ov = None, 0.0
        for idx, ch in enumerate(channels):
            ov = overlap_ratio(tx.channel, ch)
            if ov > best_ov:
                best_idx, best_ov = idx, ov
        if best_idx is None:
            continue
        key = (best_idx, int(tx.params.dr))
        counts[key] = counts.get(key, 0) + 1
    return counts


def outcome_counts(
    result: SimulationResult, gateway_id: Optional[int] = None
) -> Dict[str, int]:
    """Per-outcome reception counts (optionally for one gateway).

    Counts every gateway record — including the fault outcomes
    ``gateway_offline`` and ``backhaul_lost`` — so chaos runs can audit
    exactly where packets died.
    """
    records: Iterable[GatewayReception] = chain.from_iterable(
        result.receptions.values()
    )
    if gateway_id is not None:
        records = [rec for rec in records if rec.gateway_id == gateway_id]
    # ``_value_`` is the enum's documented value attribute: a plain
    # attribute read, where hashing the member is a Python-level call.
    counts = Counter([rec.outcome._value_ for rec in records])
    return dict(sorted(counts.items()))


def bucketed_prr(
    result: SimulationResult,
    window_s: float,
    bucket_s: float,
    network_id: Optional[int] = None,
) -> List[float]:
    """Per-bucket packet reception ratio over a window.

    Buckets with no offered traffic report 1.0 (nothing was lost).
    """
    if bucket_s <= 0 or window_s <= 0:
        raise ValueError("window and bucket must be positive")
    buckets = max(1, int(window_s // bucket_s))
    offered = [0] * buckets
    delivered = [0] * buckets
    for tx in result.transmissions:
        if network_id is not None and tx.network_id != network_id:
            continue
        b = min(int(tx.start_s // bucket_s), buckets - 1)
        offered[b] += 1
        if result.delivered(tx):
            delivered[b] += 1
    return [
        delivered[b] / offered[b] if offered[b] else 1.0
        for b in range(buckets)
    ]


def retry_delivery_breakdown(result: SimulationResult) -> Dict[str, float]:
    """Confirmed-frame delivery ratios under retransmission.

    Groups the result's confirmed transmissions by frame (network,
    node, counter) and reports the fraction delivered on the first
    attempt, the fraction recovered by a retry (the *delivery-after-
    retry* metric), and the fraction never delivered.  Ratios are over
    confirmed frames; all zeros when the run had none.
    """
    frames: Dict[tuple, List[Transmission]] = {}
    for tx in result.transmissions:
        if tx.confirmed:
            frames.setdefault(tx.key(), []).append(tx)
    total = len(frames)
    if total == 0:
        return {
            "confirmed_frames": 0,
            "first_attempt_ratio": 0.0,
            "after_retry_ratio": 0.0,
            "unrecovered_ratio": 0.0,
            "delivered_ratio": 0.0,
        }
    first = after = 0
    for attempts in frames.values():
        delivered = [t.attempt for t in attempts if result.delivered(t)]
        if not delivered:
            continue
        if min(delivered) == 0:
            first += 1
        else:
            after += 1
    return {
        "confirmed_frames": total,
        "first_attempt_ratio": first / total,
        "after_retry_ratio": after / total,
        "unrecovered_ratio": (total - first - after) / total,
        "delivered_ratio": (first + after) / total,
    }


def time_to_recover_s(
    result: SimulationResult,
    fault_start_s: float,
    window_s: float,
    bucket_s: float = 5.0,
    threshold: float = 0.9,
    network_id: Optional[int] = None,
) -> Optional[float]:
    """Time from a fault until the bucketed PRR is back above threshold.

    Scans the per-bucket PRR from the bucket containing
    ``fault_start_s``; the first bucket at or above ``threshold`` marks
    recovery, and the returned value is the start of that bucket minus
    the fault instant (clamped at 0.0 — a fault the network shrugs off
    within its own bucket has zero recovery time).  ``None`` means the
    network never recovered inside the window.
    """
    series = bucketed_prr(result, window_s, bucket_s, network_id=network_id)
    first_bucket = min(int(fault_start_s // bucket_s), len(series) - 1)
    for b in range(first_bucket, len(series)):
        if series[b] >= threshold:
            return max(0.0, b * bucket_s - fault_start_s)
    return None


def service_ratio(
    result: SimulationResult, network_id: int
) -> float:
    """Fraction of a network's *users* whose packets were delivered.

    The Figure 15 fairness metric: per-user service, not per-packet PRR.
    """
    users = {}
    for tx in result.transmissions:
        if tx.network_id != network_id:
            continue
        users.setdefault(tx.node_id, False)
        if result.delivered(tx):
            users[tx.node_id] = True
    if not users:
        return 0.0
    return sum(users.values()) / len(users)
