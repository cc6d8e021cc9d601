"""The FCFS decoder dispatcher (Appendix C, Figure 20b).

Detections from all receive channels are merged and served strictly in
lock-on order.  A detection either seizes a free decoder for the rest of
the packet's airtime or is dropped on the spot.  The dispatcher records
*who held the decoders* at every rejection so that losses can later be
attributed to intra- versus inter-network decoder contention (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType
from .decoder import DecoderLease, DecoderPool
from .detector import Detection

__all__ = ["DispatchResult", "FcfsDispatcher"]


@dataclass(frozen=True)
class DispatchResult:
    """Outcome of dispatching one detection."""

    detection: Detection
    lease: Optional[DecoderLease]
    # Snapshot of decoder holders at the rejection instant (empty when
    # the packet was admitted); used for contention attribution.
    blockers: Tuple[DecoderLease, ...] = ()

    @property
    def admitted(self) -> bool:
        """Whether the packet obtained a decoder."""
        return self.lease is not None


class FcfsDispatcher:
    """Serves detections to a decoder pool in First-Come-First-Served order."""

    def __init__(self, pool: DecoderPool) -> None:
        self.pool = pool

    def dispatch(self, detections: Sequence[Detection]) -> List[DispatchResult]:
        """Dispatch a batch of detections.

        A simulated gateway offers one detection per call, at its
        lock-on instant (:meth:`~repro.gateway.gateway.Gateway.receive`),
        so each grant or reject follows its own lock-on in the trace.
        The caller times the ``gw.dispatch`` phase.

        Args:
            detections: Detections in any order; they are sorted by
                lock-on time (ties broken by network and node id for
                determinism) before being offered to the pool,
                mirroring the hardware dispatcher's arrival order.

        Returns:
            One :class:`DispatchResult` per detection, in dispatch order.
        """
        ordered = sorted(
            detections,
            key=lambda d: (d.lock_on_s, d.tx.network_id, d.tx.node_id),
        )
        results: List[DispatchResult] = []
        for det in ordered:
            tx = det.tx
            blockers: Tuple[DecoderLease, ...] = ()
            lease = self.pool.try_allocate(
                det.lock_on_s, tx.end_s, tx.network_id, tx.node_id
            )
            if lease is None:
                blockers = tuple(self.pool.holders(det.lock_on_s))
            rec = _obs.TRACE
            if rec is not None:
                gw = self.pool.trace_gateway_id
                if lease is not None:
                    rec.emit(
                        EventType.DECODER_GRANT,
                        t=det.lock_on_s,
                        gw=gw,
                        dec=lease.decoder_index,
                        until=lease.release_s,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                    )
                else:
                    rec.emit(
                        EventType.DECODER_REJECT,
                        t=det.lock_on_s,
                        gw=gw,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                        blockers=[b.holder_network_id for b in blockers],
                    )
            results.append(
                DispatchResult(detection=det, lease=lease, blockers=blockers)
            )
        return results
