"""Streaming health aggregation: sliding windows, scores, alert rules.

The paper's central observation is that capacity collapses *silently* —
decoder contention drops packets with no RF-visible symptom (section
3.1, Appendix C) — so a deployment needs online health signals, not
just post-hoc trace files.  This module is the active half of
``repro.obs``: a :class:`HealthMonitor` subscribes to the existing
trace-event stream (via :meth:`TraceRecorder.add_listener
<repro.obs.recorder.TraceRecorder.add_listener>`) and maintains, per
gateway, streaming aggregates over **simulation time**:

* decoder-pool occupancy (active leases / learned pool size),
* lock-on contention rate (rejections / lock-ons over a sliding window),
* drop ratio (non-``received`` fates over a sliding window),
* backhaul delay EWMA and backhaul-drop rate,
* offline state (crash / reboot outages), and
* lease-airtime quantiles (p50/p95/p99 via :meth:`Histogram.quantile`).

A declarative :class:`AlertRule` engine evaluates those aggregates on
sim-time ticks — ``decoder_occupancy > 0.9 for 30 s`` — with hysteresis
(a separate ``clear`` level) and severities.  Everything is driven by
event timestamps, so two same-seed runs raise byte-identical alerts.

Usage::

    from repro.obs import observe

    with observe(health=True) as session:
        run_chaos(seed=0)
    print(session.health.healthz()["status"])
    for alert in session.health.alerts():
        print(alert)
"""

from __future__ import annotations

import heapq
import math
import re
import threading
from collections import Counter as _Counter
from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    DefaultDict,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .events import EventType
from .metrics import Histogram

__all__ = [
    "Ewma",
    "WindowedCounter",
    "AlertRule",
    "Alert",
    "HealthMonitor",
    "DEFAULT_RULES",
    "health_score",
    "health_status",
]

HEALTH_SCHEMA_VERSION = 1

# LoRa airtimes at the testbed's data rates span ~10 ms to ~2 s.
_AIRTIME_BUCKETS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)

_SNAKE_RE = re.compile(r"^[a-z][a-z0-9_]*$")

_SEVERITIES = ("info", "warning", "critical")
_SCOPES = ("gateway", "global")
_OPS = (">", ">=", "<", "<=")


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


class Ewma:
    """Exponentially weighted moving average over simulation time.

    The decay is expressed as a half-life in sim seconds, so the
    smoothing is independent of the (irregular) sampling cadence.
    Out-of-order samples decay by zero and simply blend in.
    """

    __slots__ = ("halflife_s", "_value", "_t")

    def __init__(self, halflife_s: float = 10.0) -> None:
        if halflife_s <= 0:
            raise ValueError("half-life must be positive")
        self.halflife_s = halflife_s
        self._value: Optional[float] = None
        self._t = -math.inf

    def update(self, value: float, t: float) -> float:
        """Blend one sample taken at sim time ``t``; returns the average."""
        if self._value is None:
            self._value = float(value)
        else:
            dt = max(t - self._t, 0.0)
            alpha = 1.0 - 0.5 ** (max(dt, 1e-3) / self.halflife_s)
            self._value += alpha * (float(value) - self._value)
        self._t = max(self._t, t)
        return self._value

    @property
    def value(self) -> float:
        """The current average (0.0 before the first sample)."""
        return self._value if self._value is not None else 0.0

    @property
    def initialized(self) -> bool:
        """Whether at least one sample was blended."""
        return self._value is not None


class WindowedCounter:
    """Sliding-window event sum over sim time, bucketed for O(1) updates.

    Samples land in fixed ``bucket_s`` bins keyed by their own
    timestamp, so modestly out-of-order events (the engine replays
    final-fate events per gateway) still count toward the right part of
    the timeline; :meth:`total` prunes bins that fell out of the window
    behind the monotone query time.
    """

    __slots__ = ("window_s", "bucket_s", "_bins")

    def __init__(self, window_s: float = 10.0, bucket_s: float = 1.0) -> None:
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window and bucket must be positive")
        self.window_s = window_s
        self.bucket_s = bucket_s
        self._bins: DefaultDict[int, float] = defaultdict(float)

    def add(self, t: float, n: float = 1.0) -> None:
        """Record ``n`` events at sim time ``t``."""
        self._bins[int(t // self.bucket_s)] += n

    def total(self, now_s: float) -> float:
        """Sum of events inside ``[now - window, now]``."""
        cutoff = now_s - self.window_s
        stale = [i for i in self._bins if (i + 1) * self.bucket_s <= cutoff]
        for i in stale:
            del self._bins[i]
        return sum(n for i, n in self._bins.items() if i * self.bucket_s <= now_s)

    def rate(self, now_s: float) -> float:
        """Events per sim second over the window."""
        return self.total(now_s) / self.window_s


# ---------------------------------------------------------------------------
# alert rules


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: ``metric <op> threshold for for_s sim-seconds``.

    Attributes:
        name: snake_case alert identifier (stable across runs).
        metric: Key into the per-gateway or global health sample.
        op: Comparison; one of ``>``, ``>=``, ``<``, ``<=``.
        threshold: Breach level.
        for_s: How long (sim time) the condition must hold before the
            alert fires; 0 fires on the first breached evaluation.
        clear: Hysteresis level the value must cross back over before
            the alert resolves (defaults to ``threshold``).
        severity: ``info`` | ``warning`` | ``critical``.
        scope: ``gateway`` (evaluated per gateway) or ``global``.
        description: Human-readable context for reports.
    """

    name: str
    metric: str
    op: str = ">"
    threshold: float = 0.0
    for_s: float = 0.0
    clear: Optional[float] = None
    severity: str = "warning"
    scope: str = "gateway"
    description: str = ""

    def __post_init__(self) -> None:
        if not _SNAKE_RE.match(self.name):
            raise ValueError(f"alert name {self.name!r} is not snake_case")
        if self.op not in _OPS:
            raise ValueError(f"unknown comparison {self.op!r}")
        if self.severity not in _SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.scope not in _SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.for_s < 0:
            raise ValueError("for_s must be non-negative")

    def breached(self, value: float) -> bool:
        """Whether ``value`` violates the threshold."""
        return self._compare(value, self.threshold)

    def cleared(self, value: float) -> bool:
        """Whether ``value`` is back on the healthy side of ``clear``."""
        level = self.threshold if self.clear is None else self.clear
        return not self._compare(value, level)

    def _compare(self, value: float, level: float) -> bool:
        if self.op == ">":
            return value > level
        if self.op == ">=":
            return value >= level
        if self.op == "<":
            return value < level
        return value <= level

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (for health reports)."""
        return {
            "name": self.name,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "for_s": self.for_s,
            "clear": self.clear,
            "severity": self.severity,
            "scope": self.scope,
            "description": self.description,
        }


@dataclass
class Alert:
    """One alert instance: pending -> firing -> resolved."""

    rule: str
    severity: str
    metric: str
    scope: str
    gateway: Optional[int]
    value: float
    pending_since_s: float
    fired_s: Optional[float] = None
    resolved_s: Optional[float] = None

    @property
    def active(self) -> bool:
        """Firing and not yet resolved."""
        return self.fired_s is not None and self.resolved_s is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (one entry of :meth:`HealthMonitor.alerts`)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "metric": self.metric,
            "scope": self.scope,
            "gateway": self.gateway,
            "value": self.value,
            "pending_since_s": self.pending_since_s,
            "fired_s": self.fired_s,
            "resolved_s": self.resolved_s,
            "active": self.active,
        }


# The operator-grade defaults.  `decoder_occupancy > 0.9 for 30 s` is
# the paper's collapse signature: a pool pinned at capacity while the
# RF layer looks clean.
DEFAULT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(
        "gateway_offline",
        metric="offline",
        op=">=",
        threshold=0.5,
        for_s=0.0,
        severity="critical",
        scope="gateway",
        description="gateway radio dark (crash or reboot outage)",
    ),
    AlertRule(
        "decoder_occupancy_high",
        metric="decoder_occupancy",
        op=">",
        threshold=0.9,
        for_s=30.0,
        clear=0.7,
        severity="warning",
        scope="gateway",
        description="decoder pool pinned near capacity (silent-collapse signature)",
    ),
    AlertRule(
        "decoder_contention_high",
        metric="contention_rate",
        op=">",
        threshold=0.5,
        for_s=10.0,
        clear=0.3,
        severity="warning",
        scope="gateway",
        description="over half of lock-ons rejected for lack of a decoder",
    ),
    AlertRule(
        "drop_ratio_high",
        metric="drop_ratio",
        op=">",
        threshold=0.5,
        for_s=10.0,
        clear=0.3,
        severity="warning",
        scope="gateway",
        description="most receptions ending in a non-received fate",
    ),
    AlertRule(
        "backhaul_loss",
        metric="backhaul_drop_rate",
        op=">",
        threshold=0.0,
        for_s=0.0,
        severity="warning",
        scope="gateway",
        description="decoded packets lost on the gateway backhaul",
    ),
    AlertRule(
        "backhaul_slow",
        metric="backhaul_rtt_s",
        op=">",
        threshold=0.5,
        for_s=5.0,
        clear=0.2,
        severity="warning",
        scope="gateway",
        description="backhaul delay EWMA above half a second",
    ),
    AlertRule(
        "master_readonly",
        metric="master_readonly_rate",
        op=">",
        threshold=0.0,
        for_s=0.0,
        severity="critical",
        scope="global",
        description="Master journal unavailable; mutations rejected (read-only mode)",
    ),
    AlertRule(
        "master_unreachable",
        metric="master_dropped_rate",
        op=">",
        threshold=0.0,
        for_s=0.0,
        severity="critical",
        scope="global",
        description="Master dropping requests (outage window)",
    ),
    AlertRule(
        "netserver_degraded",
        metric="degraded_sync_rate",
        op=">",
        threshold=0.0,
        for_s=0.0,
        severity="warning",
        scope="global",
        description="network server operating on a cached assignment",
    ),
)


# ---------------------------------------------------------------------------
# scoring


def health_score(sample: Mapping[str, float]) -> float:
    """Blend a gateway sample into a [0, 1] health score.

    An offline gateway scores 0.  Otherwise occupancy above 50 %,
    contention, and drops each chip away at a weighted share of the
    score; a fully healthy gateway scores 1.0.
    """
    if sample.get("offline", 0.0) >= 0.5:
        return 0.0
    occupancy = sample.get("decoder_occupancy", 0.0)
    contention = sample.get("contention_rate", 0.0)
    drop = sample.get("drop_ratio", 0.0)
    penalty = (
        0.35 * _clamp01((occupancy - 0.5) * 2.0)
        + 0.35 * _clamp01(contention)
        + 0.30 * _clamp01(drop)
    )
    return _clamp01(1.0 - penalty)


def health_status(score: float) -> str:
    """Map a score to ``healthy`` / ``degraded`` / ``critical``."""
    if score >= 0.75:
        return "healthy"
    if score >= 0.4:
        return "degraded"
    return "critical"


# ---------------------------------------------------------------------------
# per-gateway streaming state


class _GatewayState:
    """Streaming aggregates for one gateway."""

    __slots__ = (
        "clock_s",
        "offline_until_s",
        "_known_pool",
        "_max_decoder",
        "_leases",
        "lock_ons",
        "grants",
        "rejects",
        "receptions",
        "losses",
        "backhaul_drops",
        "backhaul_delay",
        "airtime",
        "outcomes",
        "reboots",
    )

    def __init__(self, window_s: float, bucket_s: float) -> None:
        self.clock_s = 0.0
        self.offline_until_s = -math.inf
        self._known_pool = 0  # from pool.resize events (authoritative)
        self._max_decoder = 0  # max decoder index seen + 1 (lower bound)
        self._leases: List[float] = []  # min-heap of lease release times
        self.lock_ons = WindowedCounter(window_s, bucket_s)
        self.grants = WindowedCounter(window_s, bucket_s)
        self.rejects = WindowedCounter(window_s, bucket_s)
        self.receptions = WindowedCounter(window_s, bucket_s)
        self.losses = WindowedCounter(window_s, bucket_s)
        self.backhaul_drops = WindowedCounter(window_s, bucket_s)
        self.backhaul_delay = Ewma()
        self.airtime = Histogram(buckets=_AIRTIME_BUCKETS)
        # A defaultdict, not a Counter: a Counter's item update is
        # several times slower, and this runs once per reception event.
        self.outcomes: DefaultDict[str, int] = defaultdict(int)
        self.reboots = 0

    @property
    def pool_size(self) -> int:
        """Best estimate of the decoder-pool size (>= 1)."""
        return max(self._known_pool, self._max_decoder, 1)

    # Event handlers, one per gateway event type (``_GATEWAY_HANDLERS``).

    def on_lock_on(self, t: float, fields: Mapping[str, Any]) -> None:
        self.lock_ons.add(t)

    def on_grant(self, t: float, fields: Mapping[str, Any]) -> None:
        until = float(fields.get("until", t))
        decoders = int(fields.get("dec", 0)) + 1
        heapq.heappush(self._leases, until)
        self.grants.add(t)
        self.airtime.observe(max(until - t, 0.0))
        if decoders > self._max_decoder:
            self._max_decoder = decoders

    def on_reject(self, t: float, fields: Mapping[str, Any]) -> None:
        # The engine emits GW_LOCK_ON for every detection, rejected
        # ones included, so a reject must not count as a second
        # lock-on or contention_rate would saturate at 0.5.
        self.rejects.add(t)

    def on_reception(self, t: float, fields: Mapping[str, Any]) -> None:
        outcome = str(fields.get("outcome", ""))
        self.receptions.add(t)
        self.outcomes[outcome] += 1
        if outcome != "received":
            self.losses.add(t)

    def on_backhaul_drop(self, t: float, fields: Mapping[str, Any]) -> None:
        self.backhaul_drops.add(t)

    def on_backhaul_delay(self, t: float, fields: Mapping[str, Any]) -> None:
        self.backhaul_delay.update(float(fields.get("delay", 0.0)), t)

    def on_resize(self, t: float, fields: Mapping[str, Any]) -> None:
        self._known_pool = int(fields.get("decoders", 0))
        self._max_decoder = 0  # re-learn under the new size

    def on_reboot(self, t: float, fields: Mapping[str, Any]) -> None:
        outage_s = float(fields.get("outage", 0.0))
        self.offline_until_s = max(self.offline_until_s, t + outage_s)
        self.reboots += 1
        self._leases.clear()  # in-flight receptions were aborted

    def active_leases(self, now_s: float) -> int:
        while self._leases and self._leases[0] <= now_s:
            heapq.heappop(self._leases)
        return len(self._leases)

    def sample(self, now_s: float) -> Dict[str, float]:
        """The gateway's health sample at sim time ``now_s``."""
        lock_ons = self.lock_ons.total(now_s)
        rejects = self.rejects.total(now_s)
        receptions = self.receptions.total(now_s)
        losses = self.losses.total(now_s)
        return {
            "decoder_occupancy": self.active_leases(now_s) / self.pool_size,
            "contention_rate": rejects / max(lock_ons, 1.0),
            "drop_ratio": losses / max(receptions, 1.0),
            "backhaul_rtt_s": self.backhaul_delay.value,
            "backhaul_drop_rate": self.backhaul_drops.rate(now_s),
            "lock_on_rate": self.lock_ons.rate(now_s),
            "reception_rate": self.receptions.rate(now_s),
            "offline": 1.0 if now_s < self.offline_until_s else 0.0,
        }


_GATEWAY_HANDLERS: Dict[
    str, Callable[[_GatewayState, float, Mapping[str, Any]], None]
] = {
    EventType.GW_LOCK_ON: _GatewayState.on_lock_on,
    EventType.DECODER_GRANT: _GatewayState.on_grant,
    EventType.DECODER_REJECT: _GatewayState.on_reject,
    EventType.GW_RECEPTION: _GatewayState.on_reception,
    EventType.BACKHAUL_DROP: _GatewayState.on_backhaul_drop,
    EventType.BACKHAUL_DELAY: _GatewayState.on_backhaul_delay,
    EventType.POOL_RESIZE: _GatewayState.on_resize,
    EventType.GW_REBOOT: _GatewayState.on_reboot,
}


# ---------------------------------------------------------------------------
# the monitor


class HealthMonitor:
    """Streaming per-gateway health scores and a declarative alert engine.

    Feed it the trace-event stream — as a
    :class:`~repro.obs.recorder.TraceRecorder` listener (live), or via
    :meth:`replay` over a loaded JSONL trace (offline).  The events are
    its only input, so both give the same report.  A gateway's sim clock
    is the latest event time seen for it.  Rules are evaluated whenever
    that clock crosses a ``tick_s`` boundary, at a gateway's reboot, at
    every ``sim.run_end`` event, and at explicit :meth:`evaluate` calls.

    Thread-safe: the Master server emits events from worker threads.
    """

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        window_s: float = 10.0,
        tick_s: float = 1.0,
        bucket_s: float = 1.0,
    ) -> None:
        if tick_s <= 0:
            raise ValueError("tick must be positive")
        self.rules: Tuple[AlertRule, ...] = tuple(
            DEFAULT_RULES if rules is None else rules
        )
        self.window_s = window_s
        self.tick_s = tick_s
        self.bucket_s = bucket_s
        self.events_seen = 0
        self._gateways: Dict[int, _GatewayState] = {}
        self._clock_s = 0.0
        self._global_windows: Dict[str, WindowedCounter] = {}
        self._global_totals: _Counter = _Counter()
        self._alerts: List[Alert] = []
        # Open (pending or firing) alert per (rule name, gateway | None).
        self._open: Dict[Tuple[str, Optional[int]], Alert] = {}
        self._lock = threading.RLock()

    # -- ingestion ---------------------------------------------------------

    def observe_event(
        self, etype: str, t: Optional[float], fields: Mapping[str, Any]
    ) -> None:
        """Ingest one trace event (the recorder-listener entry point)."""
        # Not ``with``: this runs once per trace event, and ``with`` on
        # the RLock costs about twice ``acquire``/``release``, some 13%
        # of the event (DESIGN.md section 10.1).
        self._lock.acquire()
        try:
            self.events_seen += 1
            gw_id = fields.get("gw")
            if isinstance(gw_id, int):
                state = self._gateways.get(gw_id)
                if state is None:
                    state = _GatewayState(self.window_s, self.bucket_s)
                    self._gateways[gw_id] = state
                if t is not None:
                    handler = _GATEWAY_HANDLERS.get(etype)
                    if handler is not None:
                        handler(state, t, fields)
                    if t > state.clock_s:
                        self._advance_locked(gw_id, state, t)
                    if etype == EventType.GW_REBOOT:
                        # A crash must alert at the crash instant, not
                        # at the next tick boundary.
                        self._evaluate_gateway_locked(gw_id, state, state.clock_s)
                    return
            if etype in self._GLOBAL_METRIC_OF_EVENT:
                self._ingest_global(etype)
            elif etype == EventType.SIM_RUN_END:
                self._evaluate_all_locked()
        finally:
            self._lock.release()

    _GLOBAL_METRIC_OF_EVENT = {
        EventType.MASTER_DROPPED: "master_dropped",
        EventType.MASTER_UNAVAILABLE: "master_unavailable",
        EventType.MASTER_RETRY: "master_retries",
        EventType.MASTER_READONLY: "master_readonly",
        EventType.MASTER_CRASH: "master_crashes",
        EventType.MASTER_RECOVERED: "master_recoveries",
        EventType.MASTER_CONN_REAPED: "master_conns_reaped",
        EventType.NETSERVER_DEGRADED: "degraded_syncs",
    }

    def _ingest_global(self, etype: str) -> None:
        key = self._GLOBAL_METRIC_OF_EVENT[etype]
        self._global_totals[key] += 1
        window = self._global_windows.get(key)
        if window is None:
            window = WindowedCounter(self.window_s, self.bucket_s)
            self._global_windows[key] = window
        # Control-plane events carry no sim time; they land at the
        # current global clock.
        window.add(self._clock_s)
        self._evaluate_global_locked(self._clock_s)

    # -- clocks and ticks --------------------------------------------------

    def _advance_locked(
        self, gateway_id: Any, state: _GatewayState, now_s: float
    ) -> None:
        prev = state.clock_s
        if now_s <= prev:
            return
        state.clock_s = now_s
        self._clock_s = max(self._clock_s, now_s)
        if int(prev // self.tick_s) != int(now_s // self.tick_s):
            self._evaluate_gateway_locked(gateway_id, state, now_s)

    def evaluate(self) -> None:
        """Force a full rule evaluation at the current clocks."""
        with self._lock:
            self._evaluate_all_locked()

    def _evaluate_all_locked(self) -> None:
        for gw_id, state in self._gateways.items():
            self._evaluate_gateway_locked(gw_id, state, state.clock_s)
        self._evaluate_global_locked(self._clock_s)

    # -- rule evaluation ---------------------------------------------------

    def _evaluate_gateway_locked(
        self, gateway_id: Any, state: _GatewayState, now_s: float
    ) -> None:
        sample = state.sample(now_s)
        for rule in self.rules:
            if rule.scope != "gateway":
                continue
            value = sample.get(rule.metric)
            if value is None:
                continue
            self._apply_rule_locked(rule, int(gateway_id), value, now_s)

    def global_sample(self, now_s: Optional[float] = None) -> Dict[str, float]:
        """Network-wide health sample (windowed control-plane rates)."""
        with self._lock:
            now = self._clock_s if now_s is None else now_s
            sample = {
                f"{key}_rate": window.rate(now)
                for key, window in self._global_windows.items()
            }
            sample.setdefault("master_dropped_rate", 0.0)
            sample.setdefault("master_readonly_rate", 0.0)
            sample.setdefault("degraded_sync_rate", 0.0)
            if self._gateways:
                offline = sum(
                    1
                    for st in self._gateways.values()
                    if st.clock_s < st.offline_until_s
                )
                sample["gateways_offline_frac"] = offline / len(self._gateways)
            else:
                sample["gateways_offline_frac"] = 0.0
            return sample

    def _evaluate_global_locked(self, now_s: float) -> None:
        sample = self.global_sample(now_s)
        for rule in self.rules:
            if rule.scope != "global":
                continue
            value = sample.get(rule.metric)
            if value is None:
                continue
            self._apply_rule_locked(rule, None, value, now_s)

    def _apply_rule_locked(
        self,
        rule: AlertRule,
        gateway: Optional[int],
        value: float,
        now_s: float,
    ) -> None:
        key = (rule.name, gateway)
        open_ = self._open.get(key)
        if open_ is None:
            if rule.breached(value):
                alert = Alert(
                    rule=rule.name,
                    severity=rule.severity,
                    metric=rule.metric,
                    scope=rule.scope,
                    gateway=gateway,
                    value=value,
                    pending_since_s=now_s,
                )
                self._open[key] = alert
                if rule.for_s <= 0:
                    alert.fired_s = now_s
                    self._alerts.append(alert)
            return
        if open_.fired_s is None:
            # Pending: either the condition healed, or it has now held
            # long enough to fire (at the deterministic breach+for_s
            # instant, not the evaluation instant).  A pending alert
            # resets as soon as the value drops below the *threshold* —
            # the hysteresis `clear` level only keeps already-fired
            # alerts from flapping; Prometheus `for` semantics.
            if not rule.breached(value):
                del self._open[key]
            elif now_s - open_.pending_since_s >= rule.for_s:
                open_.fired_s = open_.pending_since_s + rule.for_s
                open_.value = value
                self._alerts.append(open_)
            return
        if rule.cleared(value):
            open_.resolved_s = now_s
            del self._open[key]
        else:
            open_.value = value

    # -- offline replay ----------------------------------------------------

    def replay(self, events: Iterable[Mapping[str, Any]]) -> "HealthMonitor":
        """Feed loaded JSONL trace events through the monitor, then
        evaluate its rules.

        Returns ``self`` so ``HealthMonitor().replay(load_trace(p))``
        reads naturally.  The manifest line and events without a string
        ``type`` are skipped.
        """
        for ev in events:
            etype = ev.get("type")
            if not isinstance(etype, str) or etype == EventType.MANIFEST:
                continue
            t = ev.get("t")
            fields = {
                k: v for k, v in ev.items() if k not in ("seq", "type", "t")
            }
            self.observe_event(etype, t if isinstance(t, (int, float)) else None, fields)
        self.evaluate()
        return self

    # -- views -------------------------------------------------------------

    def gateway_health(self) -> Dict[str, Dict[str, Any]]:
        """Per-gateway snapshot: sample, score, status, quantiles."""
        with self._lock:
            out: Dict[str, Dict[str, Any]] = {}
            for gw_id in sorted(self._gateways):
                state = self._gateways[gw_id]
                sample = state.sample(state.clock_s)
                score = health_score(sample)
                quantiles = None
                if state.airtime.count:
                    quantiles = {
                        "p50": state.airtime.quantile(0.50),
                        "p95": state.airtime.quantile(0.95),
                        "p99": state.airtime.quantile(0.99),
                    }
                out[f"gw{gw_id}"] = {
                    "gateway": gw_id,
                    "score": round(score, 4),
                    "status": health_status(score),
                    "sim_time_s": state.clock_s,
                    "pool_size": state.pool_size,
                    "sample": {k: round(v, 6) for k, v in sample.items()},
                    "airtime_quantiles_s": quantiles,
                    "outcomes": dict(sorted(state.outcomes.items())),
                    "reboots": state.reboots,
                }
            return out

    def alerts(self, include_resolved: bool = True) -> List[Dict[str, Any]]:
        """Fired alerts in firing order."""
        with self._lock:
            return [
                a.to_dict()
                for a in self._alerts
                if include_resolved or a.active
            ]

    def active_alerts(self) -> List[Dict[str, Any]]:
        """Only the alerts currently firing."""
        return self.alerts(include_resolved=False)

    def healthz(self) -> Dict[str, Any]:
        """Overall status plus per-gateway detail (what ``trace health`` renders).

        ``status`` is ``ok`` with no active alerts and every gateway
        healthy; ``critical`` when a critical alert is firing;
        ``degraded`` otherwise.
        """
        with self._lock:
            gateways = self.gateway_health()
            active = [a for a in self._alerts if a.active]
            status = "ok"
            if any(a.severity == "critical" for a in active):
                status = "critical"
            elif active or any(
                g["status"] != "healthy" for g in gateways.values()
            ):
                status = "degraded"
            return {
                "status": status,
                "sim_time_s": self._clock_s,
                "gateways": gateways,
                "active_alerts": len(active),
                "alerts_total": len(self._alerts),
                "events_seen": self.events_seen,
            }

    def report(self) -> Dict[str, Any]:
        """Machine-readable health report (CI artifact / ``--health``)."""
        with self._lock:
            return {
                "schema": HEALTH_SCHEMA_VERSION,
                "healthz": self.healthz(),
                "alerts": self.alerts(),
                "global_sample": self.global_sample(),
                "global_totals": dict(sorted(self._global_totals.items())),
                "rules": [r.to_dict() for r in self.rules],
            }
