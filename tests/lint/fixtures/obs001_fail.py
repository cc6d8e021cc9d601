"""Fixture: OBS001 violations — unguarded obs hook-slot uses."""

from repro.obs import runtime as _obs
from repro.obs.runtime import TRACE  # frozen at import time


def chained_emit(value: float) -> None:
    _obs.TRACE.emit("event", v=value)


def unguarded_local(value: float) -> None:
    rec = _obs.TRACE
    rec.emit("event", v=value)


def guard_too_late(value: float) -> None:
    metrics = _obs.METRICS
    metrics.counter("c").inc()
    if metrics is not None:
        metrics.counter("d").inc()


def unguarded_probe(value: float) -> None:
    _obs.PERF.count("phase")
