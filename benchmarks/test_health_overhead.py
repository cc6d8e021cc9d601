"""The streaming health observatory stays within its overhead budget.

The monitor subscribes to the same event stream the trace recorder
already emits, so its marginal cost is one listener call per event.
This test measures that per-event cost directly, counts how many events
a representative chaos run emits, and asserts the projected overhead
stays below 5% of the run's wall time.  A second check times the
full health-enabled run end to end as a loose complexity-class guard,
and the benchmark record accumulates in ``BENCH_health.json``.
"""

import time
import timeit

from repro.experiments.chaos import run_chaos
from repro.obs import observe
from repro.obs.events import EventType
from repro.obs.health import HealthMonitor

from bench_utils import report, run_once

# A representative slice of the chaos event mix (hot-path types only).
_EVENT_MIX = (
    (EventType.GW_LOCK_ON, {"gw": 0}),
    (EventType.DECODER_GRANT, {"gw": 0, "dec": 0, "until": 1.5}),
    (EventType.GW_RECEPTION, {"gw": 0, "outcome": "received"}),
    (EventType.DECODER_REJECT, {"gw": 1, "blockers": [0]}),
    (EventType.GW_RECEPTION, {"gw": 1, "outcome": "no_decoder"}),
)


def _baseline_run_s():
    t0 = time.perf_counter()
    with observe(trace=True, metrics=False) as session:
        session.recorder.max_events = 0
        run_chaos(seed=0)
    return time.perf_counter() - t0, sum(session.recorder.counts.values())


def _per_event_cost_s():
    monitor = HealthMonitor()

    def feed():
        for i, (etype, fields) in enumerate(_EVENT_MIX):
            monitor.observe_event(etype, 0.1 * i, dict(fields))

    rounds = 2_000
    best = min(timeit.repeat(feed, number=rounds, repeat=3))
    return best / (rounds * len(_EVENT_MIX))


def test_health_monitor_overhead_under_five_percent():
    baseline_s, events = min(
        (_baseline_run_s() for _ in range(2)), key=lambda r: r[0]
    )
    assert events > 0
    projected_s = _per_event_cost_s() * events
    assert projected_s < 0.05 * baseline_s, (
        f"health monitor projects to {projected_s:.4f}s over a "
        f"{baseline_s:.3f}s run ({projected_s / baseline_s:.1%})"
    )


def test_health_enabled_chaos_benchmark(benchmark):
    monitor = HealthMonitor()
    result = run_once(benchmark, run_chaos, health=monitor, seed=0, fast=True)
    report(
        "Health: chaos run with the streaming observatory attached",
        result,
    )
    # The observatory saw the run: faults fired their alert rules and
    # the monitor's verdict is degraded or worse.
    assert monitor.healthz()["status"] in ("degraded", "critical")
    rules = {a["rule"] for a in monitor.alerts()}
    assert "gateway_offline" in rules
    assert "master_unreachable" in rules
