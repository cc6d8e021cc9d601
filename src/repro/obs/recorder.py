"""The process-local trace recorder and its JSONL import/export.

The recorder appends :class:`~repro.obs.events.TraceEvent` records under
a lock (the Master server handles requests on worker threads) and keeps
a per-type counter so summaries and benchmark reports are O(1).

Export writes one JSON object per line.  The first line is the run
manifest (the only place wall-clock values appear by default); every
subsequent line is an event in sequence order.  With the same seed two
runs export byte-identical traces — wall-clock fields (``*wall_s``)
are stripped unless ``include_wall=True``.

One process writes one trace: the Master serves from a thread of the
simulating process and emits into the same recorder, so ``seq`` (taken
under the lock) orders every event.
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

from .events import EventType, TraceEvent

__all__ = ["TraceRecorder", "load_trace"]

# A live subscriber to the event stream: (etype, t, fields).
TraceListener = Callable[[str, Optional[float], Dict[str, Any]], None]

# v3 drops v2's Lamport stamp ("lam") and the manifest's "ctx".  Nothing
# checks the version, so v1 and v2 traces still load.
TRACE_SCHEMA_VERSION = 3


class TraceRecorder:
    """Collects typed events for one observability session.

    Args:
        manifest: Optional run manifest written as the first JSONL line
            (see :func:`repro.obs.manifest.build_manifest`).
        max_events: Safety cap; once reached further events are counted
            in ``dropped_events`` instead of stored.  The default is
            generous — a fast chaos run emits a few thousand events.
    """

    def __init__(
        self,
        manifest: Optional[Dict[str, Any]] = None,
        max_events: int = 5_000_000,
    ) -> None:
        self.manifest: Dict[str, Any] = dict(manifest or {})
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.counts: Counter = Counter()
        self.dropped_events = 0
        self._seq = 0
        self._run_index = 0
        self._lock = threading.Lock()
        self._listeners: List[TraceListener] = []

    # -- emission ---------------------------------------------------------

    def add_listener(self, listener: TraceListener) -> None:
        """Subscribe ``listener(etype, t, fields)`` to every emitted event.

        Listeners see every event — including ones beyond ``max_events``
        that storage drops — so streaming aggregators (the health
        monitor) work on count-only recorders.  They are invoked outside
        the storage lock; a listener needing exclusion locks itself.

        Register listeners before emission starts.  With concurrent
        emitters (Master worker threads) the delivery order across
        threads is unspecified and may differ from storage ``seq``
        order, which is the authoritative one.
        """
        with self._lock:
            self._listeners.append(listener)

    def emit(self, etype: str, t: Optional[float] = None, **fields: Any) -> None:
        """Append one event (thread-safe)."""
        with self._lock:
            self.counts[etype] += 1
            if len(self.events) >= self.max_events:
                self.dropped_events += 1
            else:
                self._seq += 1
                self.events.append(TraceEvent(self._seq, etype, t, fields))
            # Snapshot under the lock so a concurrent add_listener never
            # mutates the list an in-flight emit is iterating.
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(etype, t, fields)

    def next_run_index(self) -> int:
        """Allocate the index for a new simulation run segment."""
        with self._lock:
            self._run_index += 1
            return self._run_index

    def __len__(self) -> int:
        return len(self.events)

    # -- export -----------------------------------------------------------

    def to_dicts(self, include_wall: bool = False) -> List[Dict[str, Any]]:
        """All events (manifest first) in wire shape."""
        out: List[Dict[str, Any]] = []
        if self.manifest:
            head = {"type": EventType.MANIFEST, "schema": TRACE_SCHEMA_VERSION}
            head.update(self.manifest)
            out.append(head)
        out.extend(ev.to_dict(include_wall=include_wall) for ev in self.events)
        return out

    def to_jsonl(self, include_wall: bool = False) -> str:
        """Serialize the trace as JSON Lines text."""
        return (
            "\n".join(
                json.dumps(d, separators=(",", ":"))
                for d in self.to_dicts(include_wall=include_wall)
            )
            + "\n"
        )

    def write_jsonl(self, path: str, include_wall: bool = False) -> None:
        """Write the JSONL trace to ``path``."""
        with open(path, "w") as fh:
            fh.write(self.to_jsonl(include_wall=include_wall))

    def canonical_bytes(self) -> bytes:
        """Deterministic byte form: events only, wall fields stripped.

        Two runs under the same seed produce equal ``canonical_bytes``
        (the manifest — the only wall-clock carrier — is excluded).
        """
        return (
            "\n".join(
                json.dumps(ev.to_dict(include_wall=False), separators=(",", ":"))
                for ev in self.events
            )
            + "\n"
        ).encode()

    def clear(self) -> None:
        """Drop every recorded event (a new measurement epoch)."""
        with self._lock:
            self.events.clear()
            self.counts.clear()
            self.dropped_events = 0
            self._seq = 0
            self._run_index = 0


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace written by :meth:`TraceRecorder.write_jsonl`.

    Returns the raw event dictionaries in file order (manifest first
    when present); :mod:`repro.obs.timeline` consumes this shape.

    Raises:
        ValueError: naming the path and line number of a line that is
            not a JSON object.
    """
    out: List[Dict[str, Any]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path!r} line {lineno} is not JSON ({exc.msg})"
                ) from None
            if not isinstance(event, dict):
                raise ValueError(f"{path!r} line {lineno} is not a JSON object")
            out.append(event)
    return out
