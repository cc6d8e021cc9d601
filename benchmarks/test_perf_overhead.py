"""Perf-probe hook cost stays under budget, attached and detached.

The phase hooks in the engine hot path compile to one module-attribute
load plus a ``None`` check when no probe is attached (hoisted out of
the packet loop where possible).  Like ``test_obs_overhead``, this
measures the guard directly, counts how often phase hooks fire during
a representative chaos run, and asserts the projected disabled-mode
cost stays below 5% of the run's wall time.  A second check bounds the
*attached* sampled mode loosely.
"""

import time
import timeit

from repro.experiments.chaos import run_chaos
from repro.obs.perf import PerfProbe

_GUARD_STMT = "probe = runtime.PERF\nif probe is not None:\n    pass"
_GUARD_SETUP = "from repro.obs import runtime"
# Each phase firing wraps a begin + end pair, and the per-gateway loop
# hoists four stat lookups; scale generously to stay conservative.
_GUARDS_PER_FIRING = 4


def _run_detached():
    t0 = time.perf_counter()
    run_chaos(seed=0)
    return time.perf_counter() - t0


def test_detached_phase_hooks_under_five_percent():
    detached_s = min(_run_detached() for _ in range(2))

    # How many phase hooks fire during the workload (sampled probe:
    # exact counts, 1-in-32 timings).
    probe = PerfProbe(sample_every=32)
    with probe.attach():
        run_chaos(seed=0)
    firings = sum(
        stat["calls"]
        for stat in probe.report()["deterministic"]["phases"].values()
    )
    assert firings > 0

    per_check_s = (
        min(timeit.repeat(_GUARD_STMT, setup=_GUARD_SETUP, number=100_000, repeat=3))
        / 100_000
    )
    projected_overhead_s = per_check_s * firings * _GUARDS_PER_FIRING
    assert projected_overhead_s < 0.05 * detached_s, (
        f"detached phase guards project to {projected_overhead_s:.6f}s over "
        f"a {detached_s:.3f}s run ({projected_overhead_s / detached_s:.1%})"
    )


def test_attached_sampled_probe_stays_reasonable():
    detached_s = _run_detached()
    probe = PerfProbe(sample_every=32)
    with probe.attach():
        t0 = time.perf_counter()
        run_chaos(seed=0)
        attached_s = time.perf_counter() - t0
    # Loose bound: a sampled probe must not change the complexity class.
    assert attached_s < 1.5 * detached_s + 0.5
