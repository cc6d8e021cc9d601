"""Shared experiment machinery: capacity probes and emulated workloads.

Every driver in this package is deterministic under its ``seed``
argument and returns plain dicts of series so benchmarks, examples and
EXPERIMENTS.md can consume them uniformly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..gateway.gateway import Gateway
from ..node.device import EndDevice
from ..node.traffic import capacity_burst
from ..sim.simulator import SimulationResult, Simulator
from ..sim.topology import LinkBudget
from ..types import Transmission

__all__ = [
    "measure_capacity",
    "emulated_traffic",
    "lab_link",
    "stagger_duplicate_powers",
    "COMPACT_AREA_M",
    "TESTBED_AREA_M",
]

# Deployment footprints (width_m, height_m).
#
# compact: lab-style feasibility studies (Figures 2, 3, 5) — all
# gateways hear all nodes, as in the paper's controlled experiments.
# testbed: scaled studies (Figures 12-15) — the paper's 2.1 x 1.6 km
# urban area scaled to keep most links viable at mid data rates while
# preserving the reach heterogeneity that makes planning non-trivial.
COMPACT_AREA_M: Tuple[float, float] = (250.0, 250.0)
TESTBED_AREA_M: Tuple[float, float] = (800.0, 600.0)


def lab_link(seed: int = 0) -> LinkBudget:
    """Link budget for controlled (lab-style) feasibility experiments.

    Low shadowing variance: the paper's feasibility studies place
    devices so every link comfortably clears its reception threshold.
    """
    from ..phy.link import LogDistancePathLoss

    return LinkBudget(path_loss=LogDistancePathLoss(sigma_db=2.0, seed=seed))


def measure_capacity(
    gateways: Sequence[Gateway],
    devices: Sequence[EndDevice],
    link: Optional[LinkBudget] = None,
    payload_bytes: int = 20,
    shuffle_seed: Optional[int] = None,
) -> SimulationResult:
    """Run the concurrent-users capacity probe.

    All devices transmit with genuinely overlapping airtimes
    (:func:`~repro.node.traffic.capacity_burst`); the number of
    delivered packets is the network's concurrent-user capacity under
    the current configuration.  ``shuffle_seed`` randomizes the
    micro-slot order (and hence the FCFS arrival order) across devices
    — essential when several networks' devices are mixed.
    """
    order = list(devices)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    sim = Simulator(gateways, devices, link=link)
    return sim.run(capacity_burst(order, payload_bytes=payload_bytes))


def stagger_duplicate_powers(
    devices: Sequence[EndDevice], step_db: float = 8.0, top_dbm: float = 20.0
) -> None:
    """Grade transmit powers among devices sharing a (channel, DR) cell.

    When offered concurrency exceeds the orthogonal cell count, cells
    carry several packets; real radios then resolve the stronger one by
    the capture effect.  Spacing duplicate powers ``step_db`` apart lets
    the strongest packet in each cell survive, as observed on hardware.
    """
    cells: Dict[tuple, int] = {}
    for dev in devices:
        key = (round(dev.channel.center_hz), int(dev.dr))
        rank = cells.get(key, 0)
        cells[key] = rank + 1
        dev.tx_power_dbm = max(2.0, top_dbm - rank * step_db)


def emulated_traffic(
    devices: Sequence[EndDevice],
    total_users: int,
    mean_interval_s: float,
    window_s: float,
    seed: int = 0,
) -> List[Transmission]:
    """Emulate a large user population on fewer physical devices.

    Mirrors the paper's section 5.2.1 protocol: each physical node runs
    an elevated duty cycle and transmits the packets of many virtual
    users.  Aggregate arrivals form a Poisson process of rate
    ``total_users / mean_interval_s``; each arrival is carried by a
    physical device (its radio settings apply).

    A physical device transmits serially (it cannot overlap itself):
    each arrival goes to the earliest-available device, deferring the
    start if every radio is still busy — just like the paper's nodes
    sending extra users' packets "in the extended active durations".
    """
    import heapq

    if total_users < 1:
        raise ValueError("need at least one user")
    if mean_interval_s <= 0 or window_s <= 0:
        raise ValueError("intervals must be positive")
    if not devices:
        raise ValueError("need at least one device")
    rng = random.Random(seed)
    rate = total_users / mean_interval_s
    out: List[Transmission] = []
    # Heap of (free_at, tiebreak, device).
    free = [(0.0, i, dev) for i, dev in enumerate(devices)]
    heapq.heapify(free)
    t = rng.expovariate(rate)
    while t < window_s:
        free_at, i, dev = heapq.heappop(free)
        start = max(t, free_at)
        tx = dev.transmit(start)
        out.append(tx)
        heapq.heappush(free, (tx.end_s, i, dev))
        t += rng.expovariate(rate)
    out.sort(key=lambda tx: tx.start_s)
    return out
