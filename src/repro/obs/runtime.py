"""Process-local observability state shared by every instrumented module.

Instrumented hot paths (decoder pool, dispatcher, engine) are written
against three module-level slots that default to ``None``:

* :data:`TRACE` — the active :class:`~repro.obs.recorder.TraceRecorder`
* :data:`METRICS` — the active :class:`~repro.obs.metrics.MetricsRegistry`
* :data:`PERF` — the active :class:`~repro.obs.perf.PerfProbe`

The health monitor has no slot: it is a listener on the ``TRACE``
recorder, so the event stream is its only input.  A hook is a single attribute load plus a ``None`` check when
observability is disabled — the overhead budget for the default
(untraced) configuration is <5 % of the hot-path wall time, asserted by
``benchmarks/test_obs_overhead.py``.  Activation is scoped with
:func:`repro.obs.observe` rather than set directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .metrics import MetricsRegistry
    from .perf import PerfProbe
    from .recorder import TraceRecorder

__all__ = [
    "TRACE",
    "METRICS",
    "PERF",
    "activate",
    "deactivate",
    "session_active",
]

# The active observability session components (None = disabled).
TRACE: Optional["TraceRecorder"] = None
METRICS: Optional["MetricsRegistry"] = None
# The performance probe has its own lifecycle (PerfProbe.attach): a
# perf measurement may wrap an observe() session or run without one.
PERF: Optional["PerfProbe"] = None


def activate(
    trace: Optional["TraceRecorder"] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> None:
    """Install session components into the module slots.

    Called by :func:`repro.obs.observe`; tests may call it directly.
    Passing ``None`` for a component leaves that dimension disabled.
    """
    global TRACE, METRICS
    TRACE = trace
    METRICS = metrics


def deactivate() -> None:
    """Disable all observability (restores the zero-overhead default)."""
    activate(None, None)


def session_active() -> bool:
    """Whether any slot :func:`activate` manages is installed.

    ``PERF`` does not count: a probe may wrap a session or run alone.
    A health session always has a recorder, so ``TRACE`` covers it.
    """
    return TRACE is not None or METRICS is not None
