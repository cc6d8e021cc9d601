"""Disabled-mode cost of the observability hooks stays under budget.

Every hook in the simulation stack compiles to one module-attribute
load plus a ``None`` check when no session is active.  This test
measures that guard directly, counts how often hooks fire during a
representative chaos run, and asserts the projected disabled-mode
overhead stays below 5% of the run's wall time.  A second check bounds
the *enabled* count-only mode loosely, catching accidental heavy work
on the hot path.
"""

import time
import timeit

from repro.experiments.chaos import run_chaos
from repro.obs import observe

_GUARD_STMT = "rec = runtime.TRACE\nif rec is not None:\n    pass"
_GUARD_SETUP = "from repro.obs import runtime"
# Firing sites check both the trace and the metrics slot, and some
# guards sit on paths that never emit; scale the per-event guard count
# generously to stay conservative.
_GUARDS_PER_EVENT = 10


def _run_disabled():
    t0 = time.perf_counter()
    run_chaos(seed=0)
    return time.perf_counter() - t0


def test_disabled_hooks_under_five_percent():
    disabled_s = min(_run_disabled() for _ in range(2))

    # How many hook sites fire during the workload (count-only session:
    # events are tallied, not stored).
    with observe(trace=True, metrics=False) as session:
        session.recorder.max_events = 0
        run_chaos(seed=0)
    events = sum(session.recorder.counts.values())
    assert events > 0

    per_check_s = (
        min(timeit.repeat(_GUARD_STMT, setup=_GUARD_SETUP, number=100_000, repeat=3))
        / 100_000
    )
    projected_overhead_s = per_check_s * events * _GUARDS_PER_EVENT
    assert projected_overhead_s < 0.05 * disabled_s, (
        f"disabled-mode guards project to {projected_overhead_s:.6f}s over a "
        f"{disabled_s:.3f}s run ({projected_overhead_s / disabled_s:.1%})"
    )


def test_enabled_count_only_stays_reasonable():
    disabled_s = _run_disabled()
    with observe(trace=True, metrics=False) as session:
        session.recorder.max_events = 0
        t0 = time.perf_counter()
        run_chaos(seed=0)
        enabled_s = time.perf_counter() - t0
    # Loose bound: tracing must not change the run's complexity class.
    assert enabled_s < 2.0 * disabled_s + 0.5
