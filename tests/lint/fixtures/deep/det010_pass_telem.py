"""DET010 fixture (telemetry boundary): staged at ``src/repro/telem.py``.

Listed in the test config's ``wall_clock_modules``: its perf_counter
reads are the telemetry layer's purpose, so the purity traversal stops
here instead of reporting them.
"""

import time


class Probe:
    def __init__(self) -> None:
        self.begin_wall_s = time.perf_counter()
        self.elapsed_wall_s = 0.0

    def finish(self) -> None:
        self.elapsed_wall_s = time.perf_counter() - self.begin_wall_s
