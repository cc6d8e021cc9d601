"""``Gateway.receive`` against a per-packet reference on random timelines.

``receive`` splits its arrivals at the timeline's events and serves
each segment in passes.  The reference below is the loop it replaced:
every packet first applies the events due by its lock-on, then meets
the radio.  Both run on twin gateways over seeded random batches and
timelines, and must agree on every record, the trace, the gateway's
state afterwards and the phase item counts.  The reference reads a
reject's blockers off a fresh ``pool.holders`` snapshot, so the
dispatcher's shared snapshot is checked against an independent one;
the dense seeds make the decoders run out.
"""

import math
import random
from typing import List, Optional, Tuple

import pytest

from repro.faults import BackhaulFault, FaultPlan
from repro.gateway.detector import RxChannels, detect, match_rx_channel
from repro.gateway.dispatcher import FcfsDispatcher
from repro.gateway.gateway import Gateway, GatewayReception, Outcome, TimelineEvent
from repro.obs import observe
from repro.obs import runtime as _obs
from repro.obs.events import EventType
from repro.obs.perf import Phase, PerfProbe, phase_timed
from repro.phy.interference import decode_ok
from repro.phy.link import Position, noise_floor_dbm
from repro.phy.lora import SpreadingFactor
from repro.types import Observation, Transmission

PHASES = (Phase.TIMELINE, Phase.DETECT, Phase.DISPATCH, Phase.DECODE, Phase.EMIT)
GW_NETWORK = 1


def _reference_receive(gw, observations, timeline=(), fault_plan=None):
    """The per-packet reception loop, with its per-packet phase hooks."""
    pool = gw.pool
    pool.reset()
    pool.resize(gw.model.decoders)
    view = Gateway._hearing(observations)
    txs = view.transmissions
    dispatch = FcfsDispatcher(pool).dispatch
    gw_id, noise_figure = gw.gateway_id, gw.noise_figure_db
    rec_trace, probe = _obs.TRACE, _obs.PERF
    st = {phase: probe.stat(phase) for phase in PHASES} if probe else None
    backhaul = None
    if fault_plan is not None and fault_plan.backhaul_faults:
        backhaul = (fault_plan, fault_plan.rng(f"backhaul:gw{gw_id}"))

    channels = gw.channels
    offline_until = -math.inf
    pending = 0
    records: List[Optional[GatewayReception]] = [None] * len(txs)
    in_flight: List[Tuple[float, int, GatewayReception]] = []
    for p in view.arrivals:
        tx = txs[p]
        now = tx.lock_on_s
        while pending < len(timeline) and timeline[pending].time_s <= now:
            ev = timeline[pending]
            pending += 1
            if st:
                st[Phase.TIMELINE].end(None)
            if ev.channels is not None:
                channels = RxChannels(ev.channels)
                gw.configure(channels)
            if ev.decoders is not None:
                pool.resize(ev.decoders)
                if rec_trace is not None:
                    rec_trace.emit(
                        EventType.POOL_RESIZE, t=ev.time_s, gw=gw_id,
                        decoders=ev.decoders,
                    )
            if not ev.reboot:
                continue
            gw.reboot()
            if rec_trace is not None:
                rec_trace.emit(
                    EventType.GW_REBOOT, t=ev.time_s, gw=gw_id,
                    outage=ev.outage_s,
                    reason="reconfig" if ev.channels is not None else "crash",
                )
            offline_until = max(offline_until, ev.time_s + ev.outage_s)
            for end_s, j, record in in_flight:
                if end_s > ev.time_s:
                    records[j] = record._replace(
                        outcome=Outcome.GATEWAY_OFFLINE, backhaul_delay_s=0.0
                    )
            in_flight = []

        if now < offline_until:
            records[p] = GatewayReception(gw_id, tx, Outcome.GATEWAY_OFFLINE)
            continue
        if st:
            st[Phase.DETECT].end(None)
        obs = Observation(tx, view.rssi_dbm[p])
        det = detect(obs, channels, noise_figure_db=noise_figure)
        if det is None:
            outcome = (
                Outcome.CHANNEL_MISMATCH
                if match_rx_channel(tx.channel, channels) is None
                else Outcome.BELOW_SENSITIVITY
            )
            records[p] = GatewayReception(gw_id, tx, outcome)
            continue
        if rec_trace is not None:
            rec_trace.emit(
                EventType.GW_LOCK_ON, t=det.lock_on_s, gw=gw_id,
                net=tx.network_id, node=tx.node_id, ctr=tx.counter,
                att=tx.attempt, snr_db=det.snr_db,
            )
        if st:
            st[Phase.DISPATCH].end(None)
        admission = dispatch((det,))[0]
        if admission.lease is None:
            # A fresh snapshot, not the dispatcher's shared one.
            holders = pool.holders(det.lock_on_s)
            records[p] = GatewayReception(
                gw_id, tx, Outcome.NO_DECODER, det.rx_channel, det.snr_db,
                det.lock_on_s,
                tuple(lease.holder_network_id for lease in holders),
            )
            continue
        if st:
            st[Phase.DECODE].end(None)
        ok = gw.collision_resilient or decode_ok(
            obs.rssi_dbm,
            noise_floor_dbm(tx.channel.bandwidth_hz, noise_figure),
            tx.sf,
            det.rx_channel,
            gw._interferers_for(p, view),
        )
        delay_s = 0.0
        if not ok:
            outcome = Outcome.DECODE_FAILED
        elif tx.network_id != gw.network_id:
            outcome = Outcome.FILTERED_FOREIGN
        elif backhaul is None:
            outcome = Outcome.RECEIVED
        else:
            outcome, delay_s = gw._backhaul(tx, *backhaul)
        record = GatewayReception(
            gw_id, tx, outcome, det.rx_channel, det.snr_db, det.lock_on_s,
            backhaul_delay_s=delay_s,
        )
        records[p] = record
        in_flight.append((tx.end_s, p, record))

    with phase_timed(Phase.EMIT, items=len(view)):
        if rec_trace is not None:
            for p in view.arrivals:
                tx = records[p].transmission
                rec_trace.emit(
                    EventType.GW_RECEPTION, t=tx.start_s, gw=gw_id,
                    net=tx.network_id, node=tx.node_id, ctr=tx.counter,
                    att=tx.attempt, outcome=records[p].outcome.value,
                )
    return records


def _exactly_at(start: float, end: float) -> float:
    """An outage that, added to ``start``, ends exactly at ``end``."""
    outage = end - start
    while start + outage < end:
        outage = math.nextafter(outage, math.inf)
    while start + outage > end:
        outage = math.nextafter(outage, -math.inf)
    return outage


def _batch(rng: random.Random, block, noise: float) -> List[Observation]:
    sfs = [SpreadingFactor.SF7, SpreadingFactor.SF8, SpreadingFactor.SF9,
           SpreadingFactor.SF10]
    txs = [
        Transmission(
            node_id=i,
            network_id=rng.choice((GW_NETWORK, GW_NETWORK, 2)),
            channel=rng.choice(block),
            sf=rng.choice(sfs),
            start_s=round(rng.uniform(0.0, 8.0), rng.choice((1, 2, 6))),
            counter=rng.randrange(4),
            attempt=rng.randrange(2),
        )
        for i in range(rng.randrange(40, 120))
    ]
    rng.shuffle(txs)
    return [Observation(tx, noise + rng.uniform(-25.0, 25.0)) for tx in txs]


def _dense_batch(rng: random.Random, channels, noise: float) -> List[Observation]:
    """150-300 packets in 1 s on the gateway's channels, all detectable:
    the decoders run out, and both networks hold them at the rejects."""
    sfs = [SpreadingFactor.SF7, SpreadingFactor.SF8, SpreadingFactor.SF9,
           SpreadingFactor.SF10]
    txs = [
        Transmission(
            node_id=i,
            network_id=rng.choice((GW_NETWORK, 2)),
            channel=rng.choice(channels),
            sf=rng.choice(sfs),
            start_s=round(rng.uniform(0.0, 1.0), rng.choice((2, 3, 6))),
            counter=rng.randrange(4),
            attempt=rng.randrange(2),
        )
        for i in range(rng.randrange(150, 301))
    ]
    rng.shuffle(txs)
    return [Observation(tx, noise + rng.uniform(0.0, 25.0)) for tx in txs]


def _timeline(rng: random.Random, block, lock_ons: List[float]):
    """A time-ordered mix of every kind of event ``receive`` handles."""
    def channels():
        low = rng.randrange(0, 5)
        picked = list(block[low:low + rng.randrange(1, 9)])
        rng.shuffle(picked)  # the event's order breaks overlap ties
        return tuple(picked)

    def at():
        return rng.choice(
            (rng.uniform(0.0, 9.0), rng.choice(lock_ons), rng.choice(lock_ons))
        )

    events = []
    for _ in range(rng.randrange(0, 9)):
        kind = rng.randrange(5)
        if kind == 0:  # channel switch with reboot
            events.append(TimelineEvent(at(), channels(), rng.uniform(0.0, 0.4), True))
        elif kind == 1:  # crash; outages may overlap
            events.append(TimelineEvent(at(), outage_s=rng.uniform(0.05, 1.5), reboot=True))
        elif kind == 2:  # decoder resize down or up
            events.append(TimelineEvent(at(), decoders=rng.randrange(1, 17)))
        elif kind == 3:  # several events at one instant
            t = at()
            events.append(TimelineEvent(t, decoders=rng.randrange(1, 4)))
            events.append(TimelineEvent(t, outage_s=0.2, reboot=True))
            events.append(TimelineEvent(t, channels(), 0.0, True, rng.randrange(1, 17)))
        else:  # an outage ending exactly at a later lock-on
            later = rng.choice(lock_ons)
            start = later - rng.uniform(0.01, 0.5)
            events.append(TimelineEvent(start, outage_s=_exactly_at(start, later), reboot=True))
    if lock_ons and rng.random() < 0.5:  # after the last lock-on
        last = max(lock_ons)
        events.append(TimelineEvent(last + 0.5, channels(), 1.0, True))
        events.append(TimelineEvent(last + 1.0, decoders=1))
    events.sort(key=lambda ev: ev.time_s)
    return events


# Seeds from DENSE_FROM on draw dense batches (:func:`_dense_batch`).
DENSE_FROM, SEEDS = 40, 60


def _case(seed: int, block):
    """Seed ``seed``'s batch, timeline and fault plan (seed 0: an empty
    batch with an event)."""
    if seed == 0:
        return [], [TimelineEvent(0.5, tuple(block[4:]), 1.0, True)], None
    rng = random.Random(seed)
    noise = noise_floor_dbm(125_000.0, 6.0)
    if seed >= DENSE_FROM:
        observations = _dense_batch(rng, block[:8], noise)
    else:
        observations = _batch(rng, block, noise)
    lock_ons = [obs.transmission.lock_on_s for obs in observations]
    timeline = _timeline(rng, block, lock_ons)
    plan = None
    if rng.random() < 0.6:
        plan = FaultPlan(
            seed=seed,
            backhaul_faults=(
                BackhaulFault(
                    gateway_id=0, start_s=2.0, end_s=6.0, drop_prob=0.4,
                    delay_mean_s=0.05, delay_jitter_s=0.02,
                ),
            ),
        )
    return observations, timeline, plan


def _run(receive, gw, observations, timeline, plan):
    probe = PerfProbe()
    with observe(metrics=False) as session, probe.attach():
        records = receive(gw, observations, timeline, plan)
    items = {phase: probe.stat(phase).items for phase in PHASES}
    pool = gw.pool
    state = (gw.channels, gw.reboots, pool.capacity, pool.total_allocations,
             pool.total_rejections)
    return records, session.recorder.canonical_bytes(), state, items


@pytest.mark.parametrize("seed", range(SEEDS))
def test_receive_matches_the_per_packet_loop(seed, grid_48):
    block = grid_48.channels()[:12]
    first = tuple(block[:8])
    case = _case(seed, block)
    twins = [Gateway(0, GW_NETWORK, Position(0.0, 0.0), first) for _ in range(2)]
    got = _run(lambda gw, *args: gw.receive(*args), twins[0], *case)
    want = _run(_reference_receive, twins[1], *case)

    records, trace, state, items = got
    assert records == want[0]
    assert trace == want[1]
    assert state == want[2]
    assert items == want[3]
    if seed == 0:  # an empty batch applies none of its events
        assert records == [] and state[:3] == (first, 0, twins[0].model.decoders)


def test_the_random_timelines_reach_every_case(grid_48):
    """The seeds above meet every outcome, reboots and resizes, and the
    dense ones real decoder contention: many rejects, most blocked by
    both networks, behind many distinct sets of busy decoders."""
    block = grid_48.channels()[:12]
    outcomes, reboots, resized = set(), 0, 0
    blocked: List[Tuple[int, ...]] = []
    for seed in range(1, SEEDS):
        gw = Gateway(0, GW_NETWORK, Position(0.0, 0.0), tuple(block[:8]))
        records = gw.receive(*_case(seed, block))
        outcomes |= {r.outcome for r in records}
        reboots += gw.reboots
        resized += gw.pool.capacity != gw.model.decoders
        blocked += [
            r.blocker_network_ids for r in records
            if r.outcome is Outcome.NO_DECODER
        ]
    assert outcomes == set(Outcome)
    assert reboots > 0 and resized > 0
    # 452 rejects, 422 with both networks, 161 distinct tuples.
    assert len(blocked) >= 400
    assert sum({GW_NETWORK, 2} <= set(ids) for ids in blocked) >= 400
    assert len(set(blocked)) >= 150
