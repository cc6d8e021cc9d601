"""Trace query language and the packet ``explain`` engine.

``repro.tools trace query`` filters a trace with a tiny expression
language — whitespace-separated clauses of the form ``field OP value``
(no spaces inside a clause), all of which must hold::

    type=gw.reception outcome=gateway_offline
    type=decoder.reject gw=2 t>=10 t<20
    seq>=100 net!=2

Operators: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.  Values coerce
to numbers when both sides are numeric; otherwise comparison is string
equality (ordering operators on non-numeric fields never match).  A
clause on a missing field fails, except ``!=`` which holds vacuously.

``repro.tools trace explain NET:NODE:CTR[:ATT]`` reconstructs one
packet's causal chain from the last run round that holds it: its
lifecycle events in trace order, the packet-level outcome (mirroring
the loss-attribution precedence of :mod:`repro.sim.metrics` — decoder
contention before channel contention before everything else), the
single **outcome-deciding event** (highlighted ``>>>``), and the
surrounding control-plane context (Master faults, gateway reboots) that
explains *why*.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .events import EventType
from .timeline import _PACKET_EVENTS, _run_spans

__all__ = [
    "QueryError",
    "ExplainError",
    "parse_query",
    "query_events",
    "parse_packet_id",
    "explain_packet",
    "render_explain",
]

Event = Dict[str, Any]

# Longest-match-first so "<=" is not read as "<" followed by "=value".
_OPS = ("<=", ">=", "!=", "=", "<", ">")

# Packet-level outcome precedence (first match decides), mirroring the
# loss-attribution order of repro.sim.metrics: delivery, then decoder
# contention, then channel contention, then everything else.
_OUTCOME_PRECEDENCE = (
    "received",
    "backhaul_lost",
    "no_decoder",
    "decode_failed",
    "gateway_offline",
    "channel_mismatch",
    "below_sensitivity",
    "filtered_foreign",
)

# Control-plane event types shown as context around a packet's chain.
_CONTEXT_TYPES = frozenset(
    {
        EventType.GW_REBOOT,
        EventType.POOL_RESIZE,
        EventType.NETSERVER_DEGRADED,
        EventType.MASTER_RETRY,
        EventType.MASTER_UNAVAILABLE,
        EventType.MASTER_DROPPED,
        EventType.MASTER_CRASH,
        EventType.MASTER_RECOVERED,
        EventType.MASTER_READONLY,
        EventType.MASTER_CONN_REAPED,
    }
)

# Merged-order positions scanned either side of the packet's events
# when collecting control-plane context.
_CONTEXT_WINDOW = 40


class QueryError(ValueError):
    """A filter expression that does not parse."""


class ExplainError(ValueError):
    """A packet reference that cannot be (unambiguously) explained."""


# -- query ----------------------------------------------------------------


def parse_query(expr: str) -> List[Tuple[str, str, Any]]:
    """Parse ``expr`` into ``(field, op, value)`` clauses."""
    clauses: List[Tuple[str, str, Any]] = []
    for token in expr.split():
        for op in _OPS:
            field, sep, raw = token.partition(op)
            if sep and field:
                clauses.append((field, op, _coerce(raw)))
                break
        else:
            raise QueryError(
                f"bad clause {token!r}: expected field OP value with OP "
                f"one of {', '.join(_OPS)}"
            )
    if not clauses:
        raise QueryError("empty query")
    return clauses


def _coerce(raw: str) -> Any:
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _matches(ev: Event, field: str, op: str, value: Any) -> bool:
    if field not in ev:
        return op == "!="
    actual = ev[field]
    if isinstance(actual, (int, float)) and isinstance(value, (int, float)):
        a, b = float(actual), float(value)
        if op == "=":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    # Non-numeric: only (in)equality is meaningful.
    if op == "=":
        return str(actual) == str(value)
    if op == "!=":
        return str(actual) != str(value)
    return False


def query_events(events: Sequence[Event], expr: str) -> List[Event]:
    """Events matching every clause of ``expr`` (manifest excluded)."""
    clauses = parse_query(expr)
    return [
        ev
        for ev in events
        if ev.get("type") != EventType.MANIFEST
        and all(_matches(ev, f, op, v) for f, op, v in clauses)
    ]


# -- explain --------------------------------------------------------------


def parse_packet_id(packet_id: str) -> Tuple[int, int, int, Optional[int]]:
    """Parse ``NET:NODE:CTR[:ATT]`` into its integer components."""
    parts = packet_id.split(":")
    if len(parts) not in (3, 4):
        raise ExplainError(
            f"bad packet id {packet_id!r}: expected NET:NODE:CTR[:ATT]"
        )
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ExplainError(
            f"bad packet id {packet_id!r}: components must be integers"
        ) from None
    net, node, ctr = nums[:3]
    att = nums[3] if len(nums) == 4 else None
    return net, node, ctr, att


def _is_packet_event(
    ev: Event, net: int, node: int, ctr: int, att: Optional[int]
) -> bool:
    if ev.get("type") not in _PACKET_EVENTS:
        return False
    if ev.get("net") != net or ev.get("node") != node:
        return False
    if ev.get("ctr", 0) != ctr:
        return False
    return att is None or ev.get("att", 0) == att


def _order_key(ev: Event) -> int:
    return ev.get("seq", 0)


def _packet_round(
    events: Sequence[Event], mine: Callable[[Event], bool]
) -> Tuple[int, int, int]:
    """Index bounds ``(lo, start, stop)`` of the round that explains a packet.

    A retransmission driver re-simulates the whole window once per
    round and only the last round decides, so a packet's receptions
    and the crash that darkened its gateway repeat in every run
    segment.  The packet's events come from ``events[start:stop]``: the
    last ``sim.run_start`` .. ``sim.run_end`` segment holding any of
    them, plus the out-of-run events (netserver ingestion) that follow
    it before the next run starts.  Its control-plane context comes
    from ``events[lo:stop]``, which adds the out-of-run events since
    the previous run ended.  A trace whose runs hold none of the
    packet's events is one round.
    """
    spans = _run_spans(events)
    for k in range(len(spans) - 1, -1, -1):
        start, end = spans[k]
        if any(mine(ev) for ev in events[start:end]):
            stop = next(
                (
                    i
                    for i in range(end, len(events))
                    if events[i].get("type") == EventType.SIM_RUN_START
                ),
                len(events),
            )
            return (spans[k - 1][1] if k else 0), start, stop
    return 0, 0, len(events)


def explain_packet(events: Sequence[Event], packet_id: str) -> Dict[str, Any]:
    """Reconstruct one packet's causal chain from a trace.

    Returns a dict with the packet key, its lifecycle events, the
    packet-level ``outcome``, the index of the deciding event, and the
    surrounding control-plane context, all read from the last run
    round that holds the packet.  Raises :class:`ExplainError` when the
    packet is absent.
    """
    net, node, ctr, att = parse_packet_id(packet_id)

    def mine(ev: Event) -> bool:
        return _is_packet_event(ev, net, node, ctr, att)

    lo, start, stop = _packet_round(events, mine)
    round_events = events[start:stop]
    chain = [ev for ev in round_events if mine(ev)]
    if not chain:
        raise ExplainError(f"no events for packet {packet_id}")
    chain.sort(key=_order_key)

    final_att = max(int(ev.get("att", 0)) for ev in chain)
    receptions = [
        ev
        for ev in chain
        if ev.get("type") == EventType.GW_RECEPTION
        and int(ev.get("att", 0)) == final_att
    ]
    uplinks = [
        ev
        for ev in chain
        if ev.get("type") == EventType.NETSERVER_UPLINK
        and int(ev.get("att", 0)) == final_att
    ]
    outcome, deciding = _decide(round_events, chain, receptions, uplinks)

    context = _control_context(events[lo:stop], chain, deciding)
    deciding_index = None
    if deciding is not None:
        for i, ev in enumerate(chain):
            if ev is deciding:
                deciding_index = i
                break
        if deciding_index is None:
            # The deciding event (e.g. a gateway reboot) is not part of
            # the packet's own lifecycle; surface it via the context.
            if all(ev is not deciding for ev in context):
                context.append(deciding)
                context.sort(key=_order_key)
    return {
        "packet": {"net": net, "node": node, "ctr": ctr, "att": att},
        "final_att": final_att,
        "outcome": outcome,
        "events": chain,
        "deciding_index": deciding_index,
        "deciding": deciding,
        "context": context,
    }


def _decide(
    events: Sequence[Event],
    chain: List[Event],
    receptions: List[Event],
    uplinks: List[Event],
) -> Tuple[str, Optional[Event]]:
    """The packet-level outcome and the event that decided it.

    A packet is delivered when a network server ingested it, or, in a
    round no network server ingested (a bare gateway run), when a
    gateway received it.
    """
    if uplinks:
        return "delivered", uplinks[-1]
    outcomes = {str(ev.get("outcome")) for ev in receptions}
    outcome = next(
        (o for o in _OUTCOME_PRECEDENCE if o in outcomes),
        sorted(outcomes)[0] if outcomes else "unknown",
    )
    deciders = [ev for ev in receptions if ev.get("outcome") == outcome]
    decider = deciders[-1] if deciders else (chain[-1] if chain else None)
    if outcome in ("received", "backhaul_lost"):
        drops = [e for e in chain if e.get("type") == EventType.BACKHAUL_DROP]
        if drops:
            return "backhaul_lost", drops[-1]
        if outcome == "received" and not any(
            e.get("type") == EventType.NETSERVER_UPLINK for e in events
        ):
            # No network server ingested this round: the gateway's own
            # reception is the delivery.
            return "delivered", decider
        # Decoded somewhere but never reached the server: backhaul loss.
        return "backhaul_lost", decider
    if outcome == "no_decoder":
        rejects = [e for e in chain if e.get("type") == EventType.DECODER_REJECT]
        if rejects:
            return outcome, rejects[-1]
    if outcome == "gateway_offline" and decider is not None:
        reboot = _nearest_reboot(events, decider)
        if reboot is not None:
            return outcome, reboot
    return outcome, decider


def _nearest_reboot(events: Sequence[Event], reception: Event) -> Optional[Event]:
    """The reboot that darkened ``reception``'s gateway at its instant.

    Prefers the latest reboot at or before the reception's sim time on
    the same gateway (the crash whose downtime swallowed the packet).
    """
    gw = reception.get("gw")
    t = reception.get("t")
    best: Optional[Event] = None
    first_after: Optional[Event] = None
    for ev in events:
        if ev.get("type") != EventType.GW_REBOOT or ev.get("gw") != gw:
            continue
        et = ev.get("t")
        if isinstance(et, (int, float)) and isinstance(t, (int, float)):
            if et <= t:
                best = ev
            elif first_after is None:
                first_after = ev
    return best or first_after


def _control_context(
    events: Sequence[Event],
    chain: List[Event],
    deciding: Optional[Event],
) -> List[Event]:
    """Control-plane events around the packet's trace-order window."""
    if not chain:
        return []
    lo = min(_order_key(ev) for ev in chain) - _CONTEXT_WINDOW
    hi = max(_order_key(ev) for ev in chain) + _CONTEXT_WINDOW
    if deciding is not None:
        lo = min(lo, _order_key(deciding) - 1)
        hi = max(hi, _order_key(deciding) + 1)
    out = [
        ev
        for ev in events
        if ev.get("type") in _CONTEXT_TYPES
        and lo <= _order_key(ev) <= hi
    ]
    out.sort(key=_order_key)
    return out


# -- rendering ------------------------------------------------------------

_SKIP_FIELDS = ("seq", "type", "t")


def _format_event(ev: Event, marker: str = "   ") -> str:
    t = ev.get("t")
    t_str = f"{t:>10.3f}" if isinstance(t, (int, float)) else " " * 10
    parts = [f"{k}={ev[k]}" for k in ev if k not in _SKIP_FIELDS]
    return f"{marker} {t_str}  {ev.get('type', '?'):<20} {' '.join(parts)}"


def render_explain(report: Dict[str, Any]) -> str:
    """Human-readable causal chain (the ``trace explain`` output)."""
    pk = report["packet"]
    att = pk["att"]
    key = f"{pk['net']}:{pk['node']}:{pk['ctr']}" + (
        f":{att}" if att is not None else ""
    )
    lines = [f"packet {key} — outcome: {report['outcome']}"]
    deciding = report.get("deciding")
    lines.append("lifecycle:")
    for i, ev in enumerate(report["events"]):
        marker = ">>>" if i == report.get("deciding_index") else "   "
        lines.append(_format_event(ev, marker))
    context = report.get("context") or []
    if context:
        lines.append("control-plane context:")
        for ev in context:
            marker = ">>>" if deciding is not None and ev is deciding else "   "
            lines.append(_format_event(ev, marker))
    if deciding is not None:
        lines.append(
            "deciding event: "
            + str(deciding.get("type"))
            + (
                f" at t={deciding['t']:g}"
                if isinstance(deciding.get("t"), (int, float))
                else ""
            )
        )
    return "\n".join(lines)
