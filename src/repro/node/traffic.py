"""Traffic generation: duty-cycled uplinks and concurrent bursts.

Two workload shapes cover every experiment in the paper:

* **Duty-cycled traffic** — each node transmits at random times such
  that its on-air fraction matches the regulatory duty cycle (1 % by
  default); used for the scaled-operation studies (Figures 4, 13, 21).
* **Concurrent bursts** — N nodes transmit (almost) simultaneously in
  micro time slots; used for every capacity measurement ("maximum
  number of concurrent users", Figures 2, 3, 5, 12, 14, 15).
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..types import Transmission
from .device import EndDevice

__all__ = [
    "duty_cycle_schedule",
    "burst_by_final_preamble",
    "capacity_burst",
]


def duty_cycle_schedule(
    devices: Sequence[EndDevice],
    window_s: float,
    seed: int = 0,
    duty_cycle: float = None,
) -> List[Transmission]:
    """Generate duty-cycled Poisson uplink traffic for a time window.

    Each device transmits with exponential inter-arrival times whose
    rate makes its expected airtime fraction equal to its duty cycle.

    Args:
        devices: Transmitting nodes.
        window_s: Length of the simulated window in seconds.
        seed: RNG seed (deterministic per call).
        duty_cycle: Override the per-device duty cycle if given.

    Returns:
        All transmissions in the window, sorted by start time.
    """
    if window_s <= 0:
        raise ValueError("window must be positive")
    rng = random.Random(seed)
    out: List[Transmission] = []
    for dev in devices:
        dc = dev.duty_cycle if duty_cycle is None else duty_cycle
        if dc <= 0:
            continue
        airtime = Transmission(
            node_id=dev.node_id,
            network_id=dev.network_id,
            channel=dev.channel,
            sf=dev.sf,
            start_s=0.0,
            payload_bytes=dev.payload_bytes,
        ).airtime_s
        rate = dc / airtime  # packets per second
        t = rng.expovariate(rate) if rate > 0 else window_s
        while t < window_s:
            out.append(dev.transmit(t))
            t += rng.expovariate(rate)
    out.sort(key=lambda tx: tx.start_s)
    return out


def burst_by_final_preamble(
    devices: Sequence[EndDevice],
    slot_s: float = 0.005,
    start_s: float = 0.0,
) -> List[Transmission]:
    """Schedule devices so their *final* preamble symbols arrive in order.

    The paper's Scheme (b): the lock-on instants (end of preamble) are
    ordered by device index even though slower data rates have much
    longer preambles.  Start times are shifted so that
    ``lock_on(i) = t0 + i * slot`` with every start time >= ``start_s``.
    """
    preambles = [
        Transmission(
            node_id=dev.node_id,
            network_id=dev.network_id,
            channel=dev.channel,
            sf=dev.sf,
            start_s=0.0,
            payload_bytes=dev.payload_bytes,
        ).preamble_s
        for dev in devices
    ]
    # Choose the common lock-on origin so no start time precedes start_s.
    t0 = start_s + max(
        p - i * slot_s for i, p in enumerate(preambles)
    )
    return [
        dev.transmit(t0 + i * slot_s - p)
        for i, (dev, p) in enumerate(zip(devices, preambles))
    ]


def capacity_burst(
    devices: Sequence[EndDevice],
    payload_bytes: int = 20,
) -> List[Transmission]:
    """A *true concurrency* probe: every packet overlaps on air.

    The micro-slot width is chosen so that the last lock-on happens
    before the earliest packet leaves the air, guaranteeing that ``N``
    devices genuinely contend for decoders simultaneously — this is the
    paper's "maximum number of concurrent users" measurement.  Device
    payloads are set to ``payload_bytes`` for the probe.
    """
    if not devices:
        return []
    for dev in devices:
        dev.payload_bytes = payload_bytes
    shortest_payload_part = min(
        (
            lambda t: t.airtime_s - t.preamble_s
        )(
            Transmission(
                node_id=dev.node_id,
                network_id=dev.network_id,
                channel=dev.channel,
                sf=dev.sf,
                start_s=0.0,
                payload_bytes=payload_bytes,
            )
        )
        for dev in devices
    )
    slot_s = 0.9 * shortest_payload_part / max(len(devices), 1)
    return burst_by_final_preamble(devices, slot_s=slot_s)
