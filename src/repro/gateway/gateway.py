"""The complete COTS gateway reception model.

Chains the Appendix-C pipeline stages: RF front-end channel matching and
preamble detection (:mod:`.detector`), FCFS decoder dispatch
(:mod:`.dispatcher`, :mod:`.decoder`), payload decoding under
interference (:mod:`repro.phy.interference`), and finally the sync-word
network filter — which, crucially, runs *after* decoding, so foreign
packets consume decoder resources before being discarded.  The same
loop applies the gateway's timeline between packets: channel switches,
reboots, decoder-pool resizes and backhaul faults.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, PhaseStat, phase_timed
from ..phy.channels import (
    INDEX_BUCKET_HZ,
    Channel,
    bucket_reach,
    spectrum_span_hz,
)
from ..phy.interference import InterfererTuple, decode_ok
from ..phy.lora import SpreadingFactor
from ..phy.link import Position, noise_floor_dbm
from ..types import Observation, Transmission
from .decoder import DecoderLease, DecoderPool
from .detector import RxChannels, detect, match_rx_channel
from .dispatcher import FcfsDispatcher
from .models import GatewayModel, get_model

if TYPE_CHECKING:
    from random import Random

    # Imported for annotations only: repro.faults imports the Master
    # stack, which imports this module.
    from ..faults.plan import FaultPlan

__all__ = [
    "Outcome", "GatewayReception", "Gateway", "Hearing", "TimelineEvent",
]

# One interference-index row per indexed transmission, precomputed once:
# (tx, start_s, end_s, low_hz, high_hz, position, sf, channel,
# network_id).  ``position`` is the transmission's place in the indexed
# sequence; rows sort by start_s (then by position).  Rows carry no
# RSSI: the same index serves every gateway of a run, and loss
# attribution (``repro.sim.metrics``).
_Row = Tuple[
    Transmission, float, float, float, float, int,
    SpreadingFactor, Channel, int,
]
# One frequency bucket: its rows, their starts, the longest airtime, and
# the passband envelope (the rows' lowest ``low_hz``, highest ``high_hz``).
_Bucket = Tuple[List[_Row], List[float], float, float, float]
# (the buckets by key; buckets a lookup scans on each side of its own;
# per position, the rows that overlap that packet in time and passband,
# ``None`` until it is first decoded at any gateway of the run).
_TimeIndex = Tuple[Dict[int, _Bucket], int, List[Optional[List[_Row]]]]

# A NO_DECODER record's blocker networks, read off the blocking leases.
_holder_network_id = attrgetter("holder_network_id")


def _row_start_s(row: _Row) -> float:
    """Sort key for the interference time index (hoisted: hot path)."""
    return row[1]


def _run_order(
    transmissions: Sequence[Transmission],
) -> Tuple[List[int], List[int], List[Channel]]:
    """(arrival order, channel ids, distinct channels) of a run's packets.

    The order is stable by ``(lock_on_s, network_id, node_id)``, so
    restricted to any subset it is that subset's own stable order.
    """
    keys = [(tx.lock_on_s, tx.network_id, tx.node_id) for tx in transmissions]
    ids: Dict[Channel, int] = {}
    channel_ids = [ids.setdefault(tx.channel, len(ids)) for tx in transmissions]
    return sorted(range(len(keys)), key=keys.__getitem__), channel_ids, list(ids)


def _build_time_index(transmissions: Sequence[Transmission]) -> _TimeIndex:
    """Index transmissions by frequency bucket and start time.

    Keeps the scaled-operation scenarios (tens of thousands of packets)
    near linear: :func:`_overlapping_rows` scans only time-adjacent
    packets in frequency-adjacent buckets, as many on each side as the
    widest indexed bandwidth needs
    (:func:`~repro.phy.channels.bucket_reach`).  Each row carries the
    packet's time span and passband edges, so the scan compares floats
    instead of re-deriving them per candidate; each bucket carries the
    envelope of its rows' passbands, so the scan passes over a bucket
    no row of which can overlap the packet.  A simulated run indexes
    its transmissions once for all gateways
    (:class:`~repro.sim.medium.Medium`); a batch handed to
    :meth:`Gateway.receive` alone is indexed on its own; loss
    attribution indexes a result's transmissions
    (:func:`~repro.sim.metrics.classify_loss`).  The index also holds,
    per position, the rows :meth:`Gateway._interferers_for` finds for
    that packet, ``None`` until its first call.
    """
    buckets: Dict[int, List[_Row]] = {}
    widest = 0.0
    for position, tx in enumerate(transmissions):
        channel = tx.channel
        key = int(channel.center_hz // INDEX_BUCKET_HZ)
        row: _Row = (
            tx, tx.start_s, tx.end_s, channel.low_hz, channel.high_hz,
            position, tx.sf, channel, tx.network_id,
        )
        buckets.setdefault(key, []).append(row)
        if channel.bandwidth_hz > widest:
            widest = channel.bandwidth_hz
    index: Dict[int, _Bucket] = {}
    for key, rows in buckets.items():
        rows.sort(key=_row_start_s)
        starts = [row[1] for row in rows]
        max_airtime = max(row[0].airtime_s for row in rows)
        low = min(row[3] for row in rows)
        high = max(row[4] for row in rows)
        index[key] = (rows, starts, max_airtime, low, high)
    overlapping: List[Optional[List[_Row]]] = [None] * len(transmissions)
    return index, bucket_reach(widest), overlapping


def _overlapping_rows(index: _TimeIndex, me: Transmission) -> List[_Row]:
    """The index rows that overlap ``me`` both in time and in passband,
    ``me`` itself left out.

    ``min(ends) <= max(starts)`` is the exact negation of
    :func:`~repro.types.time_overlap_s` being positive (for finite
    floats ``x - y <= 0`` holds exactly when ``x <= y``), and likewise
    for the passband edges and :func:`~repro.phy.channels.overlap_hz`.
    Rows come out bucket by bucket upwards, each bucket in (start,
    position) order.
    """
    buckets, reach, _ = index
    me_start, me_end = me.start_s, me.end_s
    channel = me.channel
    me_low, me_high = channel.low_hz, channel.high_hz
    center_key = int(channel.center_hz // INDEX_BUCKET_HZ)
    found: List[_Row] = []
    for key in range(center_key - reach, center_key + reach + 1):
        entry = buckets.get(key)
        if entry is None:
            continue
        rows, starts, max_airtime, env_low, env_high = entry
        if (env_high if env_high < me_high else me_high) <= (
            env_low if env_low > me_low else me_low
        ):
            continue
        lo = bisect_left(starts, me_start - max_airtime)
        hi = bisect_right(starts, me_end)
        for row in rows[lo:hi]:
            tx, start, end, low, high, _pos, _sf, _chan, _net = row
            if tx is me:
                continue
            if (end if end < me_end else me_end) <= (
                start if start > me_start else me_start
            ):
                continue
            if (high if high < me_high else me_high) <= (
                low if low > me_low else me_low
            ):
                continue
            found.append(row)
    return found


@dataclass(frozen=True)
class Hearing:
    """One gateway's view of a run: ``len()`` counts the packets it hears
    and iterating yields their observations, in run order.

    ``rssi_dbm[p]`` is packet ``p``'s RSSI here, ``None`` when pruned.
    ``arrivals`` lists the heard positions in arrival order and
    ``channel_ids[p]`` indexes packet ``p``'s channel in ``channels``.
    """

    transmissions: Sequence[Transmission]
    rssi_dbm: List[Optional[float]]
    arrivals: List[int]
    channel_ids: List[int]
    channels: List[Channel]
    index: _TimeIndex  # the run's interference index

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self) -> Iterator[Observation]:
        for tx, rssi in zip(self.transmissions, self.rssi_dbm):
            if rssi is not None:
                yield Observation(tx, rssi)


class Outcome(Enum):
    """Fate of a packet at one gateway."""

    RECEIVED = "received"
    FILTERED_FOREIGN = "filtered_foreign"  # decoded, wrong sync word
    DECODE_FAILED = "decode_failed"        # collision / interference
    NO_DECODER = "no_decoder"              # dropped by the dispatcher
    BELOW_SENSITIVITY = "below_sensitivity"
    CHANNEL_MISMATCH = "channel_mismatch"  # front-end truncated
    GATEWAY_OFFLINE = "gateway_offline"    # radio dark (crash / reboot)
    BACKHAUL_LOST = "backhaul_lost"        # decoded, lost gateway->server


class GatewayReception(NamedTuple):
    """Per-packet reception record at one gateway (a named tuple: the
    reception loop builds one per observation)."""

    gateway_id: int
    transmission: Transmission
    outcome: Outcome
    rx_channel: Optional[Channel] = None
    snr_db: Optional[float] = None
    lock_on_s: Optional[float] = None
    # Networks holding the decoders when this packet was rejected
    # (only for NO_DECODER outcomes): used to attribute contention.
    blocker_network_ids: Tuple[int, ...] = ()
    # Extra gateway->server latency from an injected backhaul fault
    # (only for RECEIVED outcomes under a FaultPlan).
    backhaul_delay_s: float = 0.0

    @property
    def received(self) -> bool:
        """Whether the packet was successfully delivered to the backhaul."""
        return self.outcome is Outcome.RECEIVED


@dataclass(frozen=True)
class TimelineEvent:
    """One gateway-side event on the simulated timeline.

    Unifies reconfigurations (channel switch + reboot), fault-plan
    crashes (reboot, channels unchanged) and decoder-pool resizes
    (no reboot: busy decoders drain naturally).
    """

    time_s: float
    channels: Optional[Tuple[Channel, ...]] = None
    outage_s: float = 0.0
    reboot: bool = False
    decoders: Optional[int] = None


class Gateway:
    """A LoRaWAN gateway: position, network, channel config, decoder pool.

    Args:
        gateway_id: Unique identifier.
        network_id: Operator network this gateway forwards for.
        position: Physical location (drives link budgets in the sim).
        model: Hardware model (decoder count, spectrum limits).
        channels: Operating receive channels; must respect the model's
            channel-count and spectrum-span limits.
        noise_figure_db: Receiver noise figure.
        collision_resilient: Model a CIC-style gateway (SIGCOMM'21) that
            resolves co-channel collisions in PHY processing — packets
            above the noise threshold decode despite interference.  The
            decoder-pool constraint still applies (the paper's fairness
            condition when comparing against CIC in section 5.2.1).
    """

    def __init__(
        self,
        gateway_id: int,
        network_id: int,
        position: Position,
        channels: Sequence[Channel],
        model: Optional[GatewayModel] = None,
        noise_figure_db: float = 6.0,
        collision_resilient: bool = False,
    ) -> None:
        self.gateway_id = gateway_id
        self.network_id = network_id
        self.position = position
        self.model = model or get_model()
        self.noise_figure_db = noise_figure_db
        self.collision_resilient = collision_resilient
        self._channels = RxChannels()
        self.configure(channels)
        self.pool = DecoderPool(self.model.decoders)
        self.pool.trace_gateway_id = gateway_id
        self.reboots = 0

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """The configured receive channels (sorted by frequency)."""
        return self._channels

    def configure(self, channels: Sequence[Channel]) -> None:
        """Apply a new channel configuration (validated against hardware).

        Raises:
            ValueError: if the configuration exceeds the model's channel
                count or receive-spectrum span.
        """
        chans = tuple(sorted(channels))
        if not chans:
            raise ValueError("a gateway needs at least one receive channel")
        if len(chans) > self.model.max_channels:
            raise ValueError(
                f"{len(chans)} channels exceed the {self.model.name} limit "
                f"of {self.model.max_channels}"
            )
        span = spectrum_span_hz(chans)
        if span > self.model.rx_spectrum_hz + 1.0:
            raise ValueError(
                f"channel span {span / 1e6:.2f} MHz exceeds the "
                f"{self.model.name} receive spectrum of "
                f"{self.model.rx_spectrum_hz / 1e6:.2f} MHz"
            )
        self._channels = RxChannels(chans)

    def reboot(self) -> None:
        """Reboot the gateway (clears the decoder pool); counted for latency."""
        self.pool.reset()
        self.reboots += 1
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.counter(
                "repro_gateway_reboots_total",
                "gateway reboots (reconfigurations and crashes)",
                gateway=self.gateway_id,
            ).inc()

    @staticmethod
    def _hearing(observations: Sequence[Observation]) -> Hearing:
        """A batch heard on its own: indexed alone, every packet audible."""
        txs = [obs.transmission for obs in observations]
        order, channel_ids, channels = _run_order(txs)
        return Hearing(
            txs, [obs.rssi_dbm for obs in observations], order, channel_ids,
            channels, _build_time_index(txs),
        )

    def _interferers_for(
        self, p: int, hearing: Hearing
    ) -> List[InterfererTuple]:
        """Concurrent transmissions adding energy into packet ``p``'s
        passband, ``p`` being its position in the run.

        A candidate counts when it overlaps the packet both in time and
        in frequency (:func:`_overlapping_rows`) and this gateway hears
        it.  Which rows overlap depends only on the run, so the first
        call for ``p`` at any gateway scans the index and stores them,
        before the heard filter; later calls walk the stored rows.
        Interferers come out as plain ``(rssi_dbm, sf, channel,
        same_network)`` tuples, the fields of
        :class:`~repro.phy.interference.Interferer`, bucket by bucket
        upwards, each bucket in (start, position) order: skipping the
        packets a gateway does not hear leaves the order its own batch's
        index would give.
        """
        index = hearing.index
        me = hearing.transmissions[p]
        found = index[2][p]
        if found is None:
            found = index[2][p] = _overlapping_rows(index, me)
        heard = hearing.rssi_dbm
        me_net = me.network_id
        interferers: List[InterfererTuple] = []
        for _tx, _start, _end, _low, _high, pos, sf, chan, net in found:
            rssi = heard[pos]
            if rssi is not None:
                interferers.append((rssi, sf, chan, net == me_net))
        return interferers

    def receive(
        self,
        observations: Union[Hearing, Sequence[Observation]],
        timeline: Sequence[TimelineEvent] = (),
        fault_plan: Optional[FaultPlan] = None,
    ) -> List[GatewayReception]:
        """Run the reception pipeline over one window of observations.

        The batch should contain *every* transmission audible at this
        gateway within the simulated window (including foreign-network
        and below-sensitivity ones): they all shape detection, decoder
        occupancy, and interference.

        Packets are served in ``(lock_on_s, network_id, node_id)``
        order, the hardware dispatcher's arrival order.  The timeline's
        events split that order into segments: an event applies before
        the first packet whose lock-on is at or after its ``time_s``,
        and a batch without events is one segment.  In each segment the
        packets that lock on while the radio is down are
        GATEWAY_OFFLINE; one pass gives every packet no receive channel
        passes its CHANNEL_MISMATCH record, without a :func:`detect`
        call; the rest go one at a time through the front end, FCFS
        admission (:meth:`FcfsDispatcher.dispatch`), decoding, the
        sync-word filter and the backhaul.  Then the event closing the
        segment applies.  Reception events are emitted in arrival order
        once the whole timeline has run, because a later reboot can
        still turn an in-flight reception into GATEWAY_OFFLINE.  The
        decoder pool starts empty at the model's full size.

        Args:
            observations: The batch: this gateway's view of a run
                (:meth:`repro.sim.simulator.Simulator.observations_at`),
                or a plain sequence of observations, indexed on its own.
            timeline: This gateway's events in time order (empty for a
                static window).  Events after the last lock-on are not
                applied.
            fault_plan: Draws backhaul drops and delays for received
                packets; its crashes and degradations arrive through
                ``timeline``.

        Returns:
            One reception record per observation, in input order.
        """
        pool = self.pool
        pool.reset()
        pool.resize(self.model.decoders)  # undo an earlier degradation
        view = observations
        if not isinstance(view, Hearing):
            view = self._hearing(view)
        txs, channel_ids = view.transmissions, view.channel_ids
        arrivals, rssi_dbm = view.arrivals, view.rssi_dbm
        dispatch = FcfsDispatcher(pool).dispatch
        gw_id = self.gateway_id
        noise_figure = self.noise_figure_db
        rec_trace = _obs.TRACE
        # Per-packet phase stats are hoisted out of the loop: with the
        # probe off each hook is one ``is not None`` check.
        probe = _obs.PERF
        st_timeline: Optional[PhaseStat] = None
        st_detect: Optional[PhaseStat] = None
        st_dispatch: Optional[PhaseStat] = None
        st_decode: Optional[PhaseStat] = None
        if probe is not None:
            st_timeline = probe.stat(Phase.TIMELINE)
            st_detect = probe.stat(Phase.DETECT)
            st_dispatch = probe.stat(Phase.DISPATCH)
            st_decode = probe.stat(Phase.DECODE)
        backhaul: Optional[Tuple[FaultPlan, Random]] = None
        if fault_plan is not None and fault_plan.backhaul_faults:
            backhaul = (fault_plan, fault_plan.rng(f"backhaul:gw{gw_id}"))
        offline, mismatch = Outcome.GATEWAY_OFFLINE, Outcome.CHANNEL_MISMATCH
        no_decoder = Outcome.NO_DECODER
        # The last reject's blocker snapshot and its networks: the pool
        # shares one snapshot until its busy set changes.
        last_blockers: Optional[Tuple[DecoderLease, ...]] = None
        blocker_network_ids: Tuple[int, ...] = ()
        # The decode's noise floor per packet bandwidth.
        noise_floors: Dict[float, float] = {}

        channels = self._channels
        # The front end's match for each of the run's packet channels.
        matches = [match_rx_channel(c, channels) for c in view.channels]
        # Lock-on times in arrival order place each event between two
        # packets; a batch without events is one segment.
        lock_ons: List[float] = (
            [txs[p].lock_on_s for p in arrivals] if timeline else []
        )
        n_events, n_arrivals = len(timeline), len(arrivals)
        offline_until = float("-inf")
        records: List[Optional[GatewayReception]] = [None] * len(txs)
        # (end_s, position, record) of every decoded reception since the
        # last reboot: each entry is checked by at most one reboot.
        in_flight: List[Tuple[float, int, GatewayReception]] = []
        start = 0
        for k in range(n_events + 1):
            # This segment's packets lock on before event ``k``, and
            # those before ``offline_until`` find the radio dark.
            stop, live = n_arrivals, start
            if k < n_events:
                stop = bisect_left(lock_ons, timeline[k].time_s, start)
            if lock_ons:
                live = bisect_left(lock_ons, offline_until, start, stop)
            for p in arrivals[start:live]:
                records[p] = GatewayReception(gw_id, txs[p], offline)
            # The front end cuts off every packet no receive channel
            # passes: one pass, timed as one ``gw.detect`` call.
            kept: List[int] = []
            if live < stop:
                t0 = st_detect.begin() if st_detect is not None else None
                for p in arrivals[live:stop]:
                    if matches[channel_ids[p]] is None:
                        records[p] = GatewayReception(gw_id, txs[p], mismatch)
                    else:
                        kept.append(p)
                if st_detect is not None:
                    st_detect.end(t0, stop - live - len(kept))

            for p in kept:
                tx = txs[p]
                # Each stage's phase also covers its direct outcome: the
                # record of a packet the stage ends, or the trace event.
                t0 = st_detect.begin() if st_detect is not None else None
                obs = Observation(tx, cast(float, rssi_dbm[p]))
                det = detect(obs, channels, noise_figure_db=noise_figure)
                if det is None:
                    records[p] = GatewayReception(
                        gw_id, tx, Outcome.BELOW_SENSITIVITY
                    )
                elif rec_trace is not None:
                    rec_trace.emit(
                        EventType.GW_LOCK_ON,
                        t=det.lock_on_s,
                        gw=gw_id,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                        snr_db=det.snr_db,
                    )
                if st_detect is not None:
                    st_detect.end(t0)
                if det is None:
                    continue

                t0 = st_dispatch.begin() if st_dispatch is not None else None
                admission = dispatch((det,))[0]
                if admission.lease is None:
                    blockers = admission.blockers
                    if blockers is not last_blockers:
                        last_blockers = blockers
                        blocker_network_ids = tuple(
                            map(_holder_network_id, blockers)
                        )
                    records[p] = GatewayReception(
                        gw_id, tx, no_decoder, det.rx_channel, det.snr_db,
                        det.lock_on_s, blocker_network_ids,
                    )
                if st_dispatch is not None:
                    st_dispatch.end(t0)
                if admission.lease is None:
                    continue

                t0 = st_decode.begin() if st_decode is not None else None
                if self.collision_resilient:
                    # CIC-style PHY: interference is resolved, only the
                    # noise threshold matters (already checked by detect).
                    ok = True
                else:
                    bandwidth_hz = tx.channel.bandwidth_hz
                    noise = noise_floors.get(bandwidth_hz)
                    if noise is None:
                        noise = noise_floors[bandwidth_hz] = noise_floor_dbm(
                            bandwidth_hz, noise_figure
                        )
                    ok = decode_ok(
                        obs.rssi_dbm,
                        noise,
                        tx.sf,
                        det.rx_channel,
                        self._interferers_for(p, view),
                    )
                backhaul_delay_s = 0.0
                if not ok:
                    outcome = Outcome.DECODE_FAILED
                elif tx.network_id != self.network_id:
                    outcome = Outcome.FILTERED_FOREIGN
                elif backhaul is None:
                    outcome = Outcome.RECEIVED
                else:
                    outcome, backhaul_delay_s = self._backhaul(tx, *backhaul)
                record = GatewayReception(
                    gw_id, tx, outcome, det.rx_channel, det.snr_db,
                    det.lock_on_s, (), backhaul_delay_s,
                )
                records[p] = record
                in_flight.append((tx.end_s, p, record))
                if st_decode is not None:
                    st_decode.end(t0)

            if stop == n_arrivals:
                break  # later events find no packet to precede
            ev = timeline[k]
            start = stop
            if st_timeline is not None:
                st_timeline.end(None)  # count-only: events are rare
            if ev.channels is not None:
                # Detection keeps the event's channel order (it breaks
                # overlap ties); the gateway stores it sorted.
                channels = RxChannels(ev.channels)
                self.configure(channels)
                matches = [match_rx_channel(c, channels) for c in view.channels]
            if ev.decoders is not None:
                pool.resize(ev.decoders)
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.POOL_RESIZE,
                        t=ev.time_s,
                        gw=gw_id,
                        decoders=ev.decoders,
                    )
            if not ev.reboot:
                continue
            self.reboot()  # aborts in-flight receptions (pool reset)
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.GW_REBOOT,
                    t=ev.time_s,
                    gw=gw_id,
                    outage=ev.outage_s,
                    reason="reconfig" if ev.channels is not None else "crash",
                )
            offline_until = max(offline_until, ev.time_s + ev.outage_s)
            # Receptions still on air when the radio restarts are lost;
            # every other field of the record is preserved so metrics
            # attribution stays honest.
            for end_s, j, record in in_flight:
                if end_s > ev.time_s:
                    records[j] = record._replace(
                        outcome=offline, backhaul_delay_s=0.0
                    )
            in_flight = []

        done = cast(List[GatewayReception], records)
        metrics = _obs.METRICS
        with phase_timed(Phase.EMIT, items=len(view)):
            if rec_trace is not None or metrics is not None:
                for p in arrivals:
                    record = done[p]
                    tx = record.transmission
                    outcome_value = record.outcome.value
                    if rec_trace is not None:
                        rec_trace.emit(
                            EventType.GW_RECEPTION,
                            t=tx.start_s,
                            gw=gw_id,
                            net=tx.network_id,
                            node=tx.node_id,
                            ctr=tx.counter,
                            att=tx.attempt,
                            outcome=outcome_value,
                        )
                    if metrics is not None:
                        metrics.counter(
                            "repro_outcomes_total",
                            "per-gateway reception outcomes",
                            outcome=outcome_value,
                        ).inc()
        return [record for record in records if record is not None]

    def _backhaul(
        self, tx: Transmission, fault_plan: FaultPlan, rng: Random
    ) -> Tuple[Outcome, float]:
        """A received packet's fate on the way to the network server.

        Returns the outcome and the extra delay under the backhaul fault
        active when the packet ends, if any.
        """
        fault = fault_plan.backhaul_at(self.gateway_id, tx.end_s)
        if fault is None:
            return Outcome.RECEIVED, 0.0
        rec_trace = _obs.TRACE
        if rng.random() < fault.drop_prob:
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.BACKHAUL_DROP,
                    t=tx.end_s,
                    gw=self.gateway_id,
                    net=tx.network_id,
                    node=tx.node_id,
                    ctr=tx.counter,
                    att=tx.attempt,
                )
            return Outcome.BACKHAUL_LOST, 0.0
        if fault.delay_mean_s > 0 or fault.delay_jitter_s > 0:
            delay_s = fault.delay_mean_s + rng.uniform(0.0, fault.delay_jitter_s)
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.BACKHAUL_DELAY,
                    t=tx.end_s,
                    gw=self.gateway_id,
                    net=tx.network_id,
                    node=tx.node_id,
                    ctr=tx.counter,
                    att=tx.attempt,
                    delay=delay_s,
                )
            return Outcome.RECEIVED, delay_s
        return Outcome.RECEIVED, 0.0

    def __repr__(self) -> str:
        freqs = ", ".join(f"{c.center_hz / 1e6:.4f}" for c in self._channels)
        return (
            f"Gateway(id={self.gateway_id}, net={self.network_id}, "
            f"model={self.model.name}, channels=[{freqs}] MHz)"
        )
