"""Dependency-free ASCII charts for experiment series.

Benchmarks and the CLI render reproduced figures as terminal plots —
no matplotlib required (the reference environment is offline) — and
``trace health`` renders a trace's health dashboard.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence

__all__ = ["bar_chart", "line_chart", "render_dashboard"]

_MARKS = "ox+*#@%&"

_STATUS_MARKS = {"healthy": "+", "degraded": "~", "critical": "!"}


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart, one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not labels:
        return "(no data)"
    top = max(max(values), 1e-12)
    label_w = max(len(str(l)) for l in labels)
    rows = []
    for label, value in zip(labels, values):
        bar = "#" * max(int(round(value / top * width)), 0)
        rows.append(f"{str(label):>{label_w}} | {bar} {value:g}{unit}")
    return "\n".join(rows)


def line_chart(
    xs: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    title: str = "",
) -> str:
    """Multi-series scatter/line chart on a character grid."""
    if not series:
        return "(no data)"
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} does not align with xs")
    all_y = [y for ys in series.values() for y in ys]
    y_min = min(min(all_y), 0.0)
    y_max = max(max(all_y), y_min + 1e-12)
    x_min, x_max = min(xs), max(xs)
    x_span = max(x_max - x_min, 1e-12)
    y_span = y_max - y_min

    grid = [[" "] * width for _ in range(height)]
    for idx, (name, ys) in enumerate(series.items()):
        mark = _MARKS[idx % len(_MARKS)]
        for x, y in zip(xs, ys):
            col = int(round((x - x_min) / x_span * (width - 1)))
            row = int(round((y - y_min) / y_span * (height - 1)))
            grid[height - 1 - row][col] = mark

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_max:10.6g} +" + "-" * width)
    for row in grid:
        lines.append(" " * 11 + "|" + "".join(row))
    lines.append(f"{y_min:10.6g} +" + "-" * width)
    lines.append(
        " " * 12 + f"{x_min:<10.6g}" + " " * max(width - 20, 1) + f"{x_max:>10.6g}"
    )
    legend = "  ".join(
        f"{_MARKS[i % len(_MARKS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def render_dashboard(
    healthz: Mapping[str, Any],
    alerts: Sequence[Mapping[str, Any]] = (),
    source: str = "",
) -> str:
    """Render the health dashboard of a ``HealthMonitor.healthz()`` dict
    and its fired alerts (what ``trace health`` prints)."""
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
