"""DET010 fixture (clean tree root): staged at ``src/repro/engine.py``.

The same call shape as ``det010_fail`` but deterministic: simulated
time flows in as a parameter, RNG is derived from an explicit seed,
and the only wall-clock read sits behind the configured telemetry
boundary (``det010_pass_telem.py``, staged at ``src/repro/telem.py``
and listed in ``wall_clock_modules``).  Expected: no findings.
"""

import random

from . import clock, telem


def run_loop(steps: int, seed: int) -> float:
    rng = random.Random(seed * 977 + 3)
    probe = telem.Probe()
    total = 0.0
    for tick in range(steps):
        total += step(float(tick), rng)
    probe.finish()
    return total


def step(now_s: float, rng: random.Random) -> float:
    return clock.stamp(now_s) + rng.random()
