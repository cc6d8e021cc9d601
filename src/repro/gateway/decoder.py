"""The finite decoder pool of a LoRaWAN gateway.

Semtech SX130x concentrators expose a fixed number of packet decoders
(8, 16 or 32 depending on the chipset — Table 4).  A decoder is seized
when the dispatcher admits a packet at its lock-on instant and is
released when the packet's airtime ends.  When every decoder is busy,
later packets are dropped: the *decoder contention problem*.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import List, NamedTuple, Optional, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType

__all__ = ["DecoderLease", "DecoderPool"]

# Decoder-occupancy histogram edges: one bucket per power-of-two pool
# size up to the largest COTS concentrator (Table 4).
_OCCUPANCY_BUCKETS = (0, 1, 2, 4, 8, 16, 32)

# The lease of a busy-heap entry ``(release_s, seq, lease)``.
_entry_lease = itemgetter(2)


class DecoderLease(NamedTuple):
    """A successful decoder allocation (a named tuple)."""

    decoder_index: int
    start_s: float
    release_s: float
    holder_network_id: int
    holder_node_id: int


class DecoderPool:
    """A pool of ``capacity`` decoders allocated in lock-on order.

    The pool must be driven with non-decreasing allocation times (the
    dispatcher guarantees FCFS order); it keeps a min-heap of busy
    decoders keyed by release time.

    Attributes:
        capacity: Number of hardware decoders.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"decoder pool needs >= 1 decoder, got {capacity}")
        self.capacity = capacity
        # Heap of (release_s, seq, lease) for busy decoders.
        self._busy: List[Tuple[float, int, DecoderLease]] = []
        # The busy leases as one tuple, until ``_busy`` next changes.
        self._blockers: Optional[Tuple[DecoderLease, ...]] = None
        self._free_indices: List[int] = list(range(capacity))
        self._last_alloc_s = float("-inf")
        self._seq = 0
        self.total_allocations = 0
        self.total_rejections = 0
        self.busy_time_s = 0.0
        # Gateway this pool belongs to, for trace attribution (set by
        # the owning Gateway; -1 for free-standing pools in tests).
        self.trace_gateway_id: int = -1

    def _reclaim(self, now_s: float) -> None:
        """Release every decoder whose packet has finished by ``now_s``."""
        while self._busy and self._busy[0][0] <= now_s:
            release_s, _, lease = heapq.heappop(self._busy)
            self._blockers = None
            # Decoders above a shrunken capacity retire on release
            # instead of returning to the free list.
            if lease.decoder_index < self.capacity:
                heapq.heappush(self._free_indices, lease.decoder_index)
            rec = _obs.TRACE
            if rec is not None:
                rec.emit(
                    EventType.DECODER_RECLAIM,
                    t=release_s,
                    gw=self.trace_gateway_id,
                    dec=lease.decoder_index,
                )

    def busy_count(self, now_s: float) -> int:
        """Number of decoders occupied at ``now_s`` (after reclaiming)."""
        self._reclaim(now_s)
        return len(self._busy)

    def resize(self, capacity: int) -> None:
        """Change the pool size in place (decoder-degradation faults).

        Shrinking lets busy decoders drain naturally — their packets
        complete, but the freed units above the new capacity retire.
        Growing brings fresh decoders online immediately.
        """
        if capacity < 1:
            raise ValueError(f"decoder pool needs >= 1 decoder, got {capacity}")
        if capacity > self.capacity:
            # A unit still draining from a pre-shrink lease must not be
            # handed out twice; it re-joins the free list on release.
            draining = {lease.decoder_index for _, _, lease in self._busy}
            self._free_indices.extend(
                i for i in range(self.capacity, capacity) if i not in draining
            )
        else:
            self._free_indices = [
                i for i in self._free_indices if i < capacity
            ]
        heapq.heapify(self._free_indices)
        self.capacity = capacity

    def holders(self, now_s: float) -> List[DecoderLease]:
        """Leases of the decoders busy at ``now_s``."""
        self._reclaim(now_s)
        return [lease for _, _, lease in self._busy]

    def blockers(self, now_s: float) -> Tuple[DecoderLease, ...]:
        """The leases :meth:`holders` lists, in its order, as one tuple.

        The tuple is shared: every call until the busy set next changes
        (a grant, a reclaim or a reset) returns the same object, so the
        consecutive rejects that meet the same busy decoders cost one
        snapshot.
        """
        busy = self._busy
        if busy and busy[0][0] <= now_s:  # the earliest release is due
            self._reclaim(now_s)
        blockers = self._blockers
        if blockers is None:
            blockers = self._blockers = tuple(map(_entry_lease, busy))
        return blockers

    def try_allocate(
        self,
        now_s: float,
        release_s: float,
        network_id: int,
        node_id: int,
    ) -> Optional[DecoderLease]:
        """Attempt to seize a decoder at ``now_s`` until ``release_s``.

        Returns the lease, or ``None`` when every decoder is occupied
        (the packet is dropped, never to be retried — COTS gateways have
        no retry path for a missed lock-on).

        Raises:
            ValueError: if called with a time earlier than a previous
                allocation (the dispatcher must process in FCFS order).
        """
        if now_s < self._last_alloc_s:
            raise ValueError(
                f"allocations must be in FCFS order: {now_s} < {self._last_alloc_s}"
            )
        if release_s < now_s:
            raise ValueError("release time precedes allocation time")
        self._last_alloc_s = now_s
        busy = self._busy
        if busy and busy[0][0] <= now_s:  # the earliest release is due
            self._reclaim(now_s)
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.histogram(
                "repro_decoder_occupancy",
                "busy decoders at each allocation attempt",
                buckets=_OCCUPANCY_BUCKETS,
                gateway=self.trace_gateway_id,
            ).observe(len(busy))
        if not self._free_indices:
            self.total_rejections += 1
            if metrics is not None:
                metrics.counter(
                    "repro_decoder_rejections_total",
                    "packets dropped for lack of a free decoder",
                    gateway=self.trace_gateway_id,
                ).inc()
            return None
        index = heapq.heappop(self._free_indices)
        lease = DecoderLease(index, now_s, release_s, network_id, node_id)
        self._seq += 1
        heapq.heappush(busy, (release_s, self._seq, lease))
        self._blockers = None
        self.total_allocations += 1
        self.busy_time_s += release_s - now_s
        if metrics is not None:
            metrics.counter(
                "repro_decoder_allocations_total",
                "decoder leases granted",
                gateway=self.trace_gateway_id,
            ).inc()
        return lease

    def reset(self) -> None:
        """Return the pool to its initial (all-free) state."""
        self._busy.clear()
        self._blockers = None
        self._free_indices = list(range(self.capacity))
        self._last_alloc_s = float("-inf")
        self._seq = 0
        self.total_allocations = 0
        self.total_rejections = 0
        self.busy_time_s = 0.0
