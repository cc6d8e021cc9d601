"""A zero-dependency metrics registry (counters, gauges, histograms).

Modelled on the Prometheus client-library data model: a registry holds
metric *families* (name + help + type); each family holds children
keyed by a label set.  Exports both the Prometheus text exposition
format (``to_prometheus``) and a JSON snapshot (``to_json``).

Instrumented code obtains children through the registry::

    registry.counter("repro_outcomes_total", "fates", outcome="received").inc()
    registry.histogram("repro_master_rtt_seconds", "RTTs").observe(rtt)

Histogram buckets are cumulative (Prometheus ``le`` semantics) with a
``+Inf`` catch-all.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

LabelKey = Tuple[Tuple[str, str], ...]

# Generic latency-ish buckets (seconds); occupancy-style histograms pass
# their own integer bucket edges.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Histogram:
    """Cumulative-bucket histogram with sum and count."""

    __slots__ = ("edges", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        edges = sorted(float(b) for b in buckets)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        self.edges: Tuple[float, ...] = tuple(edges)
        # One slot per finite edge plus the +Inf catch-all.
        self.bucket_counts: List[int] = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        # The first edge >= value; NaN (never <= an edge) lands in +Inf.
        edges = self.edges
        self.bucket_counts[
            bisect_left(edges, value) if value == value else len(edges)
        ] += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.edges, self.bucket_counts):
            running += n
            out.append((edge, running))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear bucket interpolation.

        Prometheus ``histogram_quantile`` semantics: walk the cumulative
        buckets to the one containing rank ``q * count`` and interpolate
        linearly inside it.  The lowest bucket interpolates from
        ``min(0, edge)``; ranks landing in the ``+Inf`` bucket clamp to
        the top finite edge (the bucket has no upper bound to
        interpolate toward).  Empty histograms return ``nan``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        target = q * self.count
        prev_le = min(0.0, self.edges[0])
        prev_cum = 0
        for le, cum in zip(self.edges, self._running()):
            if cum >= target:
                if cum == prev_cum:
                    return le
                frac = (target - prev_cum) / (cum - prev_cum)
                return prev_le + frac * (le - prev_le)
            prev_le, prev_cum = le, cum
        return self.edges[-1]

    def _running(self) -> List[int]:
        running = 0
        out: List[int] = []
        for n in self.bucket_counts[:-1]:
            running += n
            out.append(running)
        return out


class _Family:
    """One metric family: shared name/help/type, children by label set."""

    __slots__ = ("name", "help", "kind", "buckets", "children")

    def __init__(
        self,
        name: str,
        help_: str,
        kind: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help_
        self.kind = kind
        self.buckets = buckets
        self.children: Dict[LabelKey, object] = {}

    def child(self, labels: LabelKey):
        inst = self.children.get(labels)
        if inst is None:
            if self.kind == "counter":
                inst = Counter()
            elif self.kind == "gauge":
                inst = Gauge()
            else:
                inst = Histogram(self.buckets or DEFAULT_BUCKETS)
            self.children[labels] = inst
        return inst


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_labels(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(v: float) -> str:
    v = float(v)
    if math.isnan(v):
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if v.is_integer():
        return str(int(v))
    return repr(v)


class MetricsRegistry:
    """Get-or-create registry of counters, gauges, and histograms.

    The first call for a metric name fixes its type (and, for
    histograms, its buckets); later calls with a conflicting type or a
    different non-empty help string raise ``ValueError``.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _family(
        self,
        name: str,
        help_: str,
        kind: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = _Family(name, help_, kind, buckets)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}"
                )
            elif help_ and fam.help and help_ != fam.help:
                raise ValueError(
                    f"metric {name!r} already registered with help "
                    f"{fam.help!r}"
                )
            elif help_ and not fam.help:
                fam.help = help_  # adopt the first non-empty help string
            return fam

    def counter(self, name: str, help_: str = "", **labels: object) -> Counter:
        """Get or create a counter child."""
        return self._family(name, help_, "counter").child(_label_key(labels))

    def gauge(self, name: str, help_: str = "", **labels: object) -> Gauge:
        """Get or create a gauge child."""
        return self._family(name, help_, "gauge").child(_label_key(labels))

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """Get or create a histogram child."""
        return self._family(name, help_, "histogram", buckets).child(
            _label_key(labels)
        )

    # -- export -----------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format."""
        lines: List[str] = []
        for name in sorted(self._families):
            fam = self._families[name]
            if fam.help:
                lines.append(f"# HELP {name} {fam.help}")
            lines.append(f"# TYPE {name} {fam.kind}")
            for labels in sorted(fam.children):
                child = fam.children[labels]
                if isinstance(child, (Counter, Gauge)):
                    lines.append(
                        f"{name}{_format_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
                else:
                    assert isinstance(child, Histogram)
                    for le, cum in child.cumulative():
                        ext = labels + (("le", _format_value(le)),)
                        lines.append(
                            f"{name}_bucket{_format_labels(ext)} {cum}"
                        )
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_format_labels(labels)} {child.count}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every family."""
        out: Dict[str, object] = {}
        for name in sorted(self._families):
            fam = self._families[name]
            children = []
            for labels in sorted(fam.children):
                child = fam.children[labels]
                entry: Dict[str, object] = {"labels": dict(labels)}
                if isinstance(child, (Counter, Gauge)):
                    entry["value"] = child.value
                else:
                    assert isinstance(child, Histogram)
                    entry.update(
                        sum=child.sum,
                        count=child.count,
                        mean=child.mean,
                        buckets=[
                            {"le": "+Inf" if le == math.inf else le, "count": c}
                            for le, c in child.cumulative()
                        ],
                    )
                children.append(entry)
            out[name] = {"type": fam.kind, "help": fam.help, "series": children}
        return out

    def write_prometheus(self, path: str) -> None:
        """Write the text exposition snapshot to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())

    def dumps(self) -> str:
        """The JSON snapshot as a string."""
        return json.dumps(self.to_json(), indent=2)
