"""Host-speed reference that the benchmark's timings are normalized by.

On a shared host the same pass can run up to 2x slower for minutes at a
time while nothing in the guest is busy.  The benchmark therefore times
a fixed pure-Python kernel right before and right after every measured
operation, and scales that operation's wall time by
``NOMINAL_S / median(those kernel times)``: seconds on a host where the
kernel takes ``NOMINAL_S``.

The kernel is the benchmark's own code, never the program's, so no
change to the program moves it.  It mimics the simulator's inner loops
(bisect over start times, attribute access, dB arithmetic) and allocates
almost nothing.  It is timed in thread CPU time: time the program's own
threads take from the benchmark's core is excluded from the reference,
so it still counts against the program, while a slower host stretches
the kernel and the program alike.
"""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_left, bisect_right
from time import thread_time
from typing import List

# Kernel thread time on an idle 2-vCPU Xeon VM; it fixes the unit
# and nothing else.
NOMINAL_S = 0.009


class _Signal:
    __slots__ = ("start", "end", "channel", "rssi")

    def __init__(self, start: float, end: float, channel: int, rssi: float) -> None:
        self.start = start
        self.end = end
        self.channel = channel
        self.rssi = rssi


def _signals() -> List[_Signal]:
    rng = random.Random(7)
    out = []
    for _ in range(1500):
        start = rng.uniform(0.0, 20.0)
        out.append(
            _Signal(start, start + rng.uniform(0.05, 0.6), rng.randrange(8), rng.uniform(-130, -60))
        )
    out.sort(key=lambda s: s.start)
    return out


_SIGNALS = _signals()
_STARTS = [s.start for s in _SIGNALS]


def _kernel() -> float:
    acc = 0.0
    for me in _SIGNALS:
        lo = bisect_left(_STARTS, me.start - 0.6)
        hi = bisect_right(_STARTS, me.end)
        noise_mw = 1e-13
        for other in _SIGNALS[lo:hi]:
            if other is me or other.channel != me.channel:
                continue
            if min(me.end, other.end) - max(me.start, other.start) > 0.0:
                noise_mw += 10.0 ** (other.rssi / 10.0)
        acc += me.rssi - 10.0 * math.log10(noise_mw)
    return acc


def sample(into: List[float], count: int = 1) -> None:
    """Append ``count`` kernel timings (thread CPU seconds) to ``into``."""
    for _ in range(count):
        t0 = thread_time()
        _kernel()
        into.append(thread_time() - t0)


def scale(samples: List[float]) -> float:
    """Factor turning wall seconds measured among ``samples`` into nominal-host seconds."""
    return NOMINAL_S / statistics.median(samples)
