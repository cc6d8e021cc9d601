"""Online (event-driven) simulation with mid-run reconfigurations.

The batch :class:`~repro.sim.simulator.Simulator` evaluates a window
under a fixed configuration.  This engine additionally processes
*reconfiguration events*: at a given instant a gateway applies a new
channel set and reboots, going dark for the reboot duration — in-flight
packets are aborted and packets locking on during the outage are lost.
This is what the paper's Figure 17 calls the *system suspension* of a
capacity upgrade, and what its advice to "schedule upgrades during idle
periods" is about.

The engine also consumes a :class:`~repro.faults.plan.FaultPlan`:
gateway crashes behave like reboots without a channel change, decoder
degradations shrink (and later restore) the decoder pool mid-run, and
backhaul faults drop or delay successfully decoded packets on their way
to the network server.  All fault randomness draws from the plan's
seeded sub-streams, so a chaos run is exactly reproducible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..gateway.detector import RxChannels, detect, match_rx_channel
from ..gateway.gateway import Gateway, GatewayReception, Hearing, Outcome
from ..obs import runtime as _obs
from ..obs.events import EventType
from ..obs.perf import Phase, PhaseStat, phase_timed
from ..obs.profiling import span
from ..phy.channels import Channel
from ..phy.interference import decode_ok
from ..phy.link import noise_floor_dbm
from ..types import Observation, Transmission
from .simulator import SimulationResult, Simulator, record_slots

logger = logging.getLogger(__name__)

__all__ = ["Reconfiguration", "OnlineSimulator", "OFFLINE_OUTCOME"]

# Packets that hit a dark (rebooting / crashed) gateway radio.
OFFLINE_OUTCOME = Outcome.GATEWAY_OFFLINE

# The in-flight watchlist is compacted (dead entries pruned) only once
# it holds at least this many entries and at least half are dead; below
# the threshold the list is too small for pruning to pay for itself.
_IN_FLIGHT_COMPACT_MIN = 8


@dataclass(frozen=True)
class Reconfiguration:
    """Apply new channels to a gateway at ``time_s`` and reboot it."""

    time_s: float
    gateway_id: int
    channels: Tuple[Channel, ...]
    outage_s: float = 4.62  # the measured mean reboot time (Fig. 17)

    def __post_init__(self) -> None:
        if self.outage_s < 0:
            raise ValueError("outage must be non-negative")
        if not self.channels:
            raise ValueError("a reconfiguration needs at least one channel")


@dataclass(frozen=True)
class _TimelineEvent:
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


class OnlineSimulator(Simulator):
    """Batch simulator extended with timed gateway reconfigurations."""

    def run_online(
        self,
        transmissions: Sequence[Transmission],
        reconfigurations: Sequence[Reconfiguration] = (),
        fault_plan: Optional[FaultPlan] = None,
    ) -> SimulationResult:
        """Simulate a window during which gateways may reconfigure or fail.

        Device-side configuration changes are the caller's concern (the
        transmissions already carry their channels); this engine owns
        the gateway-side timeline: channel switches, reboot outages,
        injected crashes, decoder degradation, and backhaul loss.
        """
        result = SimulationResult(
            transmissions=list(transmissions), gateways=self.gateways
        )
        rec = _obs.TRACE
        run_index = rec.next_run_index() if rec is not None else 0
        if rec is not None:
            rec.emit(
                EventType.SIM_RUN_START,
                run=run_index,
                txs=len(result.transmissions),
                gateways=len(self.gateways),
                online=True,
            )
        logger.debug(
            "run_online: %d transmissions, %d gateways, %d reconfigurations",
            len(result.transmissions),
            len(self.gateways),
            len(reconfigurations),
        )
        probe = _obs.PERF
        if probe is not None:
            probe.note_run(
                len(result.transmissions),
                min((t.start_s for t in result.transmissions), default=0.0),
                max((t.end_s for t in result.transmissions), default=0.0),
            )
        with span("sim.run_online"):
            slots = record_slots(result)
            medium = self.medium(result.transmissions)
            reconfig_by_gw: Dict[int, List[Reconfiguration]] = {}
            for rc in reconfigurations:
                reconfig_by_gw.setdefault(rc.gateway_id, []).append(rc)
            for gw in self.gateways:
                with span("gateway"):
                    with phase_timed(Phase.OBSERVE, items=len(transmissions)):
                        obs = self.observations_at(gw, transmissions, medium)
                    events = self._gateway_events(
                        gw, reconfig_by_gw.get(gw.gateway_id, []), fault_plan
                    )
                    records = self._run_gateway(
                        gw, obs, medium.hearing(gw), events, fault_plan
                    )
                    with phase_timed(Phase.COLLECT, items=len(records)):
                        for record in records:
                            slots[id(record.transmission)].append(record)
        if rec is not None:
            rec.emit(EventType.SIM_RUN_END, run=run_index)
        health = _obs.HEALTH
        if health is not None:
            health.evaluate()
        return result

    @staticmethod
    def _gateway_events(
        gw: Gateway,
        reconfigs: Sequence[Reconfiguration],
        fault_plan: Optional[FaultPlan],
    ) -> List[_TimelineEvent]:
        """Merge reconfigurations and fault-plan events, time-ordered."""
        events = [
            _TimelineEvent(
                time_s=rc.time_s,
                channels=tuple(rc.channels),
                outage_s=rc.outage_s,
                reboot=True,
            )
            for rc in reconfigs
        ]
        if fault_plan is not None:
            for crash in fault_plan.crashes_for(gw.gateway_id):
                events.append(
                    _TimelineEvent(
                        time_s=crash.time_s,
                        outage_s=crash.down_s,
                        reboot=True,
                    )
                )
            full_decoders = gw.model.decoders
            for deg in fault_plan.degradations_for(gw.gateway_id):
                shrunk = min(deg.decoders, full_decoders)
                events.append(
                    _TimelineEvent(time_s=deg.time_s, decoders=shrunk)
                )
                if deg.duration_s is not None:
                    events.append(
                        _TimelineEvent(
                            time_s=deg.time_s + deg.duration_s,
                            decoders=full_decoders,
                        )
                    )
        events.sort(key=lambda e: e.time_s)
        return events

    def _run_gateway(
        self,
        gw: Gateway,
        observations: Sequence[Observation],
        hearing: Hearing,
        events: List[_TimelineEvent],
        fault_plan: Optional[FaultPlan] = None,
    ) -> List[GatewayReception]:
        """Process one gateway's timeline: lock-ons + timeline events.

        ``hearing`` is the run's interference index as ``gw`` hears it,
        which must be exactly ``observations``.
        """
        gw.pool.reset()
        gw.pool.resize(gw.model.decoders)
        rec_trace = _obs.TRACE
        health = _obs.HEALTH
        # Per-packet phase stats are hoisted out of the loop: with the
        # probe off each hook is one ``is not None`` check, keeping the
        # default configuration inside the <5 % overhead budget.
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
        noise_figure = gw.noise_figure_db
        backhaul_rng = (
            fault_plan.rng(f"backhaul:gw{gw.gateway_id}")
            if fault_plan is not None and fault_plan.backhaul_faults
            else None
        )

        # Timeline state.
        channels = gw.channels
        offline_until = float("-inf")
        pending_idx = 0

        ordered = sorted(
            observations,
            key=lambda o: (
                o.transmission.lock_on_s,
                o.transmission.network_id,
                o.transmission.node_id,
            ),
        )
        out: List[GatewayReception] = []
        in_flight: List[Tuple[float, int]] = []  # (end_s, index into out)
        for obs in ordered:
            tx = obs.transmission
            now = tx.lock_on_s
            if health is not None:
                # Advance the gateway's sim clock so windowed aggregates
                # prune and alert rules tick even through quiet spells.
                health.advance_gateway(gw.gateway_id, now)
            # Apply timeline events due before this lock-on.
            while pending_idx < len(events) and events[pending_idx].time_s <= now:
                ev = events[pending_idx]
                pending_idx += 1
                if st_timeline is not None:
                    st_timeline.end(None)  # count-only: events are rare
                if ev.channels is not None:
                    # Detection keeps the event's channel order (it
                    # breaks overlap ties); the gateway stores it sorted.
                    channels = RxChannels(ev.channels)
                    gw.configure(channels)
                if ev.decoders is not None:
                    gw.pool.resize(ev.decoders)
                    if rec_trace is not None:
                        rec_trace.emit(
                            EventType.POOL_RESIZE,
                            t=ev.time_s,
                            gw=gw.gateway_id,
                            decoders=ev.decoders,
                        )
                if not ev.reboot:
                    continue
                gw.reboot()  # aborts in-flight receptions (pool reset)
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.GW_REBOOT,
                        t=ev.time_s,
                        gw=gw.gateway_id,
                        outage=ev.outage_s,
                        reason="reconfig" if ev.channels is not None else "crash",
                    )
                offline_until = max(offline_until, ev.time_s + ev.outage_s)
                # Receptions still on air when the radio restarts are
                # lost; every other field of the record is preserved so
                # metrics attribution stays honest.
                for end_s, idx in in_flight:
                    if end_s > ev.time_s:
                        # Justified allocation: this loop runs once per
                        # outage (not per packet) and the reception
                        # records are frozen dataclasses by contract.
                        out[idx] = replace(  # repro: noqa[PERF001]
                            out[idx],
                            outcome=OFFLINE_OUTCOME,
                            backhaul_delay_s=0.0,
                        )
                in_flight = []

            if now < offline_until:
                out.append(
                    GatewayReception(
                        gateway_id=gw.gateway_id,
                        transmission=tx,
                        outcome=OFFLINE_OUTCOME,
                    )
                )
                continue

            t0 = st_detect.begin() if st_detect is not None else None
            det = detect(obs, channels, noise_figure_db=noise_figure)
            if st_detect is not None:
                st_detect.end(t0)
            if det is not None and rec_trace is not None:
                rec_trace.emit(
                    EventType.GW_LOCK_ON,
                    t=det.lock_on_s,
                    gw=gw.gateway_id,
                    net=tx.network_id,
                    node=tx.node_id,
                    ctr=tx.counter,
                    att=tx.attempt,
                    snr_db=det.snr_db,
                )
            if det is None:
                outcome = (
                    Outcome.CHANNEL_MISMATCH
                    if match_rx_channel(tx.channel, channels) is None
                    else Outcome.BELOW_SENSITIVITY
                )
                out.append(
                    GatewayReception(
                        gateway_id=gw.gateway_id,
                        transmission=tx,
                        outcome=outcome,
                    )
                )
                continue

            t0 = st_dispatch.begin() if st_dispatch is not None else None
            lease = gw.pool.try_allocate(
                det.lock_on_s, tx.end_s, tx.network_id, tx.node_id
            )
            if st_dispatch is not None:
                st_dispatch.end(t0)
            if lease is None:
                blockers = tuple(
                    l.holder_network_id
                    for l in gw.pool.holders(det.lock_on_s)
                )
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.DECODER_REJECT,
                        t=det.lock_on_s,
                        gw=gw.gateway_id,
                        net=tx.network_id,
                        node=tx.node_id,
                        ctr=tx.counter,
                        att=tx.attempt,
                        blockers=list(blockers),
                    )
                out.append(
                    GatewayReception(
                        gateway_id=gw.gateway_id,
                        transmission=tx,
                        outcome=Outcome.NO_DECODER,
                        rx_channel=det.rx_channel,
                        snr_db=det.snr_db,
                        lock_on_s=det.lock_on_s,
                        blocker_network_ids=blockers,
                    )
                )
                continue
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.DECODER_GRANT,
                    t=det.lock_on_s,
                    gw=gw.gateway_id,
                    dec=lease.decoder_index,
                    until=lease.release_s,
                    net=tx.network_id,
                    node=tx.node_id,
                    ctr=tx.counter,
                    att=tx.attempt,
                )

            t0 = st_decode.begin() if st_decode is not None else None
            noise = noise_floor_dbm(tx.channel.bandwidth_hz, noise_figure)
            if gw.collision_resilient:
                ok = True
            else:
                ok = decode_ok(
                    obs.rssi_dbm,
                    noise,
                    tx.sf,
                    det.rx_channel,
                    gw._interferers_for(det, hearing),
                )
            if st_decode is not None:
                st_decode.end(t0)
            if not ok:
                outcome = Outcome.DECODE_FAILED
            elif tx.network_id != gw.network_id:
                outcome = Outcome.FILTERED_FOREIGN
            else:
                outcome = Outcome.RECEIVED
            backhaul_delay_s = 0.0
            if outcome is Outcome.RECEIVED and backhaul_rng is not None:
                fault = fault_plan.backhaul_at(gw.gateway_id, tx.end_s)
                if fault is not None:
                    if backhaul_rng.random() < fault.drop_prob:
                        outcome = Outcome.BACKHAUL_LOST
                        if rec_trace is not None:
                            rec_trace.emit(
                                EventType.BACKHAUL_DROP,
                                t=tx.end_s,
                                gw=gw.gateway_id,
                                net=tx.network_id,
                                node=tx.node_id,
                                ctr=tx.counter,
                                att=tx.attempt,
                            )
                    elif fault.delay_mean_s > 0 or fault.delay_jitter_s > 0:
                        backhaul_delay_s = fault.delay_mean_s + (
                            backhaul_rng.uniform(0.0, fault.delay_jitter_s)
                        )
                        if rec_trace is not None:
                            rec_trace.emit(
                                EventType.BACKHAUL_DELAY,
                                t=tx.end_s,
                                gw=gw.gateway_id,
                                net=tx.network_id,
                                node=tx.node_id,
                                ctr=tx.counter,
                                att=tx.attempt,
                                delay=backhaul_delay_s,
                            )
            out.append(
                GatewayReception(
                    gateway_id=gw.gateway_id,
                    transmission=tx,
                    outcome=outcome,
                    rx_channel=det.rx_channel,
                    snr_db=det.snr_db,
                    lock_on_s=det.lock_on_s,
                    backhaul_delay_s=backhaul_delay_s,
                )
            )
            in_flight.append((tx.end_s, len(out) - 1))
            # Drop finished receptions from the in-flight watchlist,
            # amortized: an entry with end_s <= now can never satisfy
            # the reboot check `end_s > ev.time_s` again (events fire
            # in timeline order, so every later event has
            # time_s > now), which makes stale entries inert — but
            # rebuilding the list per packet made dense bursts
            # quadratic.  Compact only once dead entries dominate.
            if len(in_flight) >= _IN_FLIGHT_COMPACT_MIN:
                live = [entry for entry in in_flight if entry[0] > now]
                if 2 * len(live) <= len(in_flight):
                    in_flight = live

        # Final per-packet outcomes, emitted only after the whole
        # timeline ran: a later reboot can retroactively turn an
        # in-flight reception into GATEWAY_OFFLINE, and the trace must
        # carry the authoritative fate (it reproduces outcome_counts).
        metrics = _obs.METRICS
        if rec_trace is not None or metrics is not None:
            with phase_timed(Phase.EMIT, items=len(out)):
                for record in out:
                    tx = record.transmission
                    outcome_value = record.outcome.value
                    if rec_trace is not None:
                        rec_trace.emit(
                            EventType.GW_RECEPTION,
                            t=tx.start_s,
                            gw=gw.gateway_id,
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
        return out
