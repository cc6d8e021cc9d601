"""Live ASCII health dashboard (``repro.tools watch``).

Renders refreshing per-gateway health — score bars, streaming samples,
and active alerts — from a trace JSONL file (``--trace chaos.jsonl``),
growing or complete: its events are tailed incrementally into a local
:class:`~repro.obs.health.HealthMonitor`, the same listener a
``--health`` run attaches, so a frame of the whole trace shows what
that run's report holds.

The renderer is pure (dict in, string out) so tests drive it
without a terminal, and the tail-follower is incremental so watching a
multi-megabyte trace stays O(new events) per frame.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO

from ..obs.health import HealthMonitor
from .ascii_chart import bar_chart

__all__ = [
    "TraceFollower",
    "render_dashboard",
    "watch",
]

_STATUS_MARKS = {"healthy": "+", "degraded": "~", "critical": "!"}


class TraceFollower:
    """Incrementally tails a trace JSONL file into a health monitor."""

    def __init__(self, path: str, monitor: Optional[HealthMonitor] = None) -> None:
        self.path = path
        self.monitor = monitor if monitor is not None else HealthMonitor()
        self._offset = 0
        self._partial = ""

    def poll(self) -> int:
        """Feed newly appended complete lines; returns events ingested."""
        try:
            with open(self.path, "r") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
                self._offset = fh.tell()
        except OSError:
            return 0
        if not chunk:
            return 0
        text = self._partial + chunk
        lines = text.split("\n")
        # The last element is a partial line unless the chunk ended in \n.
        self._partial = lines.pop()
        events: List[Dict[str, Any]] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn write: skip, the next line resyncs
        ingested = self.monitor.ingest(events)
        if ingested:
            self.monitor.evaluate()
        return ingested

    def healthz(self) -> Dict[str, Any]:
        """Current health summary of everything tailed so far."""
        return self.monitor.healthz()

    def alerts(self) -> List[Dict[str, Any]]:
        """Fired alerts reconstructed from the tailed events."""
        return self.monitor.alerts()


def render_dashboard(
    healthz: Mapping[str, Any],
    alerts: Sequence[Mapping[str, Any]] = (),
    source: str = "",
) -> str:
    """Render one dashboard frame from a ``HealthMonitor.healthz()`` dict."""
    lines: List[str] = []
    status = str(healthz.get("status", "?"))
    sim_t = healthz.get("sim_time_s", 0.0)
    header = f"health: {status.upper()}  sim t={sim_t:.1f}s"
    if source:
        header += f"  [{source}]"
    lines.append(header)
    lines.append("=" * len(header))

    gateways = healthz.get("gateways", {})
    if gateways:
        labels: List[str] = []
        scores: List[float] = []
        for name in sorted(gateways):
            snap = gateways[name]
            mark = _STATUS_MARKS.get(str(snap.get("status")), "?")
            labels.append(f"{mark} {name}")
            scores.append(float(snap.get("score", 0.0)))
        lines.append(bar_chart(labels, scores, width=40))
        lines.append("")
        head = (
            f"{'gw':>6} {'status':>9} {'occ':>6} {'cont':>6} "
            f"{'drop':>6} {'rtt_ms':>7} {'pool':>5} {'reboots':>8}"
        )
        lines.append(head)
        lines.append("-" * len(head))
        for name in sorted(gateways):
            snap = gateways[name]
            sample = snap.get("sample", {})
            lines.append(
                f"{name:>6} {str(snap.get('status')):>9} "
                f"{sample.get('decoder_occupancy', 0.0):>6.2f} "
                f"{sample.get('contention_rate', 0.0):>6.2f} "
                f"{sample.get('drop_ratio', 0.0):>6.2f} "
                f"{sample.get('backhaul_rtt_s', 0.0) * 1e3:>7.1f} "
                f"{snap.get('pool_size', 0):>5} "
                f"{snap.get('reboots', 0):>8}"
            )
    else:
        lines.append("(no gateway data yet)")

    active = [a for a in alerts if a.get("active")]
    lines.append("")
    lines.append(f"alerts: {len(active)} active / {len(alerts)} fired")
    for alert in active:
        where = (
            f"gw{alert['gateway']}" if alert.get("gateway") is not None else "global"
        )
        lines.append(
            f"  ! [{alert.get('severity')}] {alert.get('rule')} @ {where} "
            f"(value={alert.get('value', 0.0):.3g}, "
            f"since t={alert.get('fired_s', 0.0):.1f}s)"
        )
    return "\n".join(lines)


def watch(
    trace_path: Optional[str] = None,
    interval_s: float = 1.0,
    frames: Optional[int] = None,
    out: Optional[TextIO] = None,
) -> int:
    """Render the dashboard repeatedly; returns a process exit code.

    ``trace_path`` is required (exit code 2 without it).  ``frames``
    bounds the number of refreshes (None = until interrupted); tests
    pass ``frames=1`` for a single snapshot.
    """
    if trace_path is None:
        print("watch: pass --trace", file=sys.stderr)
        return 2
    stream = out if out is not None else sys.stdout
    follower = TraceFollower(trace_path)
    rendered = 0
    try:
        while frames is None or rendered < frames:
            follower.poll()
            frame = render_dashboard(
                follower.healthz(), follower.alerts(), source=follower.path
            )
            if rendered:
                print("", file=stream)
            print(frame, file=stream)
            rendered += 1
            if frames is None or rendered < frames:
                time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return 0
