"""Trace analysis: per-packet timelines and decoder-occupancy summaries.

Consumes the raw event dictionaries produced by
:func:`repro.obs.recorder.load_trace` and reconstructs what the run did:

* :func:`run_segments` / :func:`final_run_events` — split the trace into
  simulation-run segments.  Retransmission drivers re-simulate the
  window several times; the **last** segment is the authoritative one
  (its reception events reproduce the run's ``outcome_counts`` exactly).
* :func:`packet_timelines` — group events by packet (network, node,
  counter, attempt) into per-packet event timelines.
* :func:`decoder_occupancy` — rebuild each gateway's decoder-pool
  occupancy over time from lease grant events.
* :func:`summarize_trace` / :func:`render_occupancy` — the data behind
  ``repro.tools trace summarize|render``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .events import EventType

__all__ = [
    "run_segments",
    "final_run_events",
    "trace_outcome_counts",
    "packet_timelines",
    "decoder_occupancy",
    "summarize_trace",
    "render_occupancy",
]

Event = Dict[str, Any]
PacketKey = Tuple[int, int, int, int]  # (net, node, ctr, att)

# Events that belong to a specific packet (carry net/node identity).
_PACKET_EVENTS = {
    EventType.GW_LOCK_ON,
    EventType.DECODER_GRANT,
    EventType.DECODER_REJECT,
    EventType.GW_RECEPTION,
    EventType.BACKHAUL_DROP,
    EventType.BACKHAUL_DELAY,
    EventType.NETSERVER_UPLINK,
}


def _run_spans(events: Sequence[Event]) -> List[Tuple[int, int]]:
    """``(start, stop)`` slice bounds of each complete run in ``events``."""
    spans: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for i, ev in enumerate(events):
        etype = ev.get("type")
        if etype == EventType.SIM_RUN_START:
            start = i
        elif etype == EventType.SIM_RUN_END and start is not None:
            spans.append((start, i + 1))
            start = None
    return spans


def run_segments(events: Sequence[Event]) -> List[List[Event]]:
    """Split a trace into simulation-run segments.

    A segment spans one ``sim.run_start`` .. ``sim.run_end`` pair;
    events outside any run (control plane, netserver ingestion) are not
    part of a segment.
    """
    return [list(events[start:stop]) for start, stop in _run_spans(events)]


def final_run_events(events: Sequence[Event]) -> List[Event]:
    """Events of the last complete simulation run (the authoritative one)."""
    segments = run_segments(events)
    return segments[-1] if segments else []


def trace_outcome_counts(
    events: Sequence[Event], final_only: bool = True
) -> Dict[str, int]:
    """Per-outcome reception counts reconstructed from the trace.

    With ``final_only`` (the default) only the last simulation run is
    counted, matching
    :func:`repro.sim.metrics.outcome_counts` on the run's result.
    """
    pool = final_run_events(events) if final_only else events
    counts: Counter = Counter()
    for ev in pool:
        if ev.get("type") == EventType.GW_RECEPTION:
            counts[ev["outcome"]] += 1
    return dict(sorted(counts.items()))


def _packet_key(ev: Event) -> Optional[PacketKey]:
    if "net" not in ev or "node" not in ev:
        return None
    return (
        int(ev["net"]),
        int(ev["node"]),
        int(ev.get("ctr", 0)),
        int(ev.get("att", 0)),
    )


def packet_timelines(
    events: Sequence[Event], final_only: bool = True
) -> Dict[PacketKey, List[Event]]:
    """Per-packet event timelines, keyed by (net, node, ctr, att).

    Each timeline holds that packet's events across every gateway, in
    emission (sequence) order: lock-ons, decoder grants/rejections,
    final receptions, backhaul fates, and network-server ingestion.
    """
    pool = final_run_events(events) if final_only else events
    out: Dict[PacketKey, List[Event]] = {}
    for ev in pool:
        if ev.get("type") not in _PACKET_EVENTS:
            continue
        key = _packet_key(ev)
        if key is None:
            continue
        out.setdefault(key, []).append(ev)
    return out


def decoder_occupancy(
    events: Sequence[Event],
    bucket_s: float = 1.0,
    final_only: bool = True,
) -> Tuple[List[float], Dict[str, List[float]]]:
    """Per-gateway decoder occupancy on a fixed time grid.

    Reconstructs lease intervals from ``decoder.grant`` events (each
    carries its ``t`` and ``until``) and counts, for every bucket, the
    leases active at any point inside it (LoRa airtimes are often much
    shorter than a bucket, so point-sampling would miss them).

    Returns:
        ``(xs, series)`` where ``xs`` are bucket-start times and
        ``series`` maps ``"gw<id>"`` to its occupancy samples.
    """
    if bucket_s <= 0:
        raise ValueError("bucket must be positive")
    pool = final_run_events(events) if final_only else events
    leases: Dict[int, List[Tuple[float, float]]] = {}
    t_max = 0.0
    for ev in pool:
        if ev.get("type") != EventType.DECODER_GRANT:
            continue
        gw = int(ev["gw"])
        start = float(ev["t"])
        until = float(ev["until"])
        leases.setdefault(gw, []).append((start, until))
        t_max = max(t_max, until)
    if not leases:
        return [], {}
    buckets = max(1, int(t_max // bucket_s) + 1)
    xs = [b * bucket_s for b in range(buckets)]
    series: Dict[str, List[float]] = {}
    for gw in sorted(leases):
        intervals = leases[gw]
        series[f"gw{gw}"] = [
            float(sum(1 for s, e in intervals if s < x + bucket_s and e > x))
            for x in xs
        ]
    return xs, series


def summarize_trace(events: Sequence[Event]) -> Dict[str, Any]:
    """Aggregate view of a trace (the ``trace summarize`` payload)."""
    manifest = None
    if events and events[0].get("type") == EventType.MANIFEST:
        manifest = events[0]
    type_counts = Counter(
        ev.get("type", "?") for ev in events if ev.get("type") != EventType.MANIFEST
    )
    segments = run_segments(events)
    rejections: Counter = Counter()
    reboots: Counter = Counter()
    for ev in events:
        if ev.get("type") == EventType.DECODER_REJECT:
            rejections[f"gw{ev.get('gw')}"] += 1
        elif ev.get("type") == EventType.GW_REBOOT:
            reboots[f"gw{ev.get('gw')}"] += 1
    timelines = packet_timelines(events)
    return {
        "manifest": manifest,
        "events": sum(type_counts.values()),
        "event_counts": dict(sorted(type_counts.items())),
        "sim_runs": len(segments),
        "packets": len(timelines),
        "outcome_counts": trace_outcome_counts(events),
        "decoder_rejections": dict(sorted(rejections.items())),
        "gateway_reboots": dict(sorted(reboots.items())),
        "master_retries": type_counts.get(EventType.MASTER_RETRY, 0),
        "master_dropped": type_counts.get(EventType.MASTER_DROPPED, 0),
    }


def render_occupancy(
    events: Sequence[Event],
    bucket_s: float = 1.0,
    width: int = 60,
    height: int = 12,
) -> str:
    """ASCII decoder-occupancy timeline (the ``trace render`` output)."""
    # Imported lazily: repro.tools pulls in the experiment registry,
    # which must not load just because repro.obs was imported.
    from ..tools.ascii_chart import line_chart

    xs, series = decoder_occupancy(events, bucket_s=bucket_s)
    if not xs:
        return "(no decoder leases in trace)"
    return line_chart(
        xs,
        series,
        width=width,
        height=height,
        title=f"decoder-pool occupancy (bucket {bucket_s:g} s)",
    )
