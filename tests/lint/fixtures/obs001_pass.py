"""Fixture: OBS001-clean — every hook use behind a None guard."""

from repro.obs import runtime as _obs


def guarded(value: float) -> None:
    rec = _obs.TRACE
    if rec is not None:
        rec.emit("event", v=value)


def early_return(value: float) -> None:
    metrics = _obs.METRICS
    if metrics is None:
        return
    metrics.counter("c").inc()


def truthiness_guard(value: float) -> None:
    probe = _obs.PERF
    if probe:
        probe.count("work")


def boolop_guard(value: float) -> None:
    rec = _obs.TRACE
    ready = rec is not None and rec.emit("event", v=value) is None
    assert ready or rec is None
