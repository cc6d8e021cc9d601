"""The gateway timeline that ``Gateway.receive`` applies per packet.

Pins when an event applies relative to the lock-ons around it, and that
driving ``receive`` directly with a timeline and a fault plan is the
online engine's reception loop.
"""

import math

import pytest

from repro.faults import BackhaulFault, FaultPlan, GatewayCrash
from repro.gateway.detector import detect, match_rx_channel
from repro.gateway.gateway import Gateway, GatewayReception, Outcome, TimelineEvent
from repro.obs import observe
from repro.phy.link import Position, noise_floor_dbm
from repro.phy.lora import DataRate, SpreadingFactor
from repro.sim.engine import OnlineSimulator
from repro.sim.scenario import build_network
from repro.types import Observation, Transmission


@pytest.fixture
def net(grid_16):
    """One gateway, eight nodes on distinct channels at DR5."""
    channels = grid_16.channels()[:8]
    network = build_network(
        1, 1, 8, channels, seed=3, width_m=200.0, height_m=200.0
    )
    for i, dev in enumerate(network.devices):
        dev.apply_config(channel=channels[i % len(channels)], dr=DataRate.DR5)
    return network


def _observe(net, link, txs):
    sim = OnlineSimulator(net.gateways, net.devices, link=link)
    obs = sim.observations_at(net.gateways[0], txs)
    assert len(obs) == len(txs)
    return obs


def _events(session):
    return [
        {k: v for k, v in ev.items() if k != "seq"}
        for ev in session.recorder.to_dicts()
        if ev["type"] not in ("sim.run_start", "sim.run_end")
    ]


def test_event_at_a_lock_on_applies_before_that_packet(net, link):
    gw = net.gateways[0]
    first = net.devices[0].transmit(10.0)
    second = net.devices[1].transmit(11.0)
    obs = _observe(net, link, [first, second])

    at = TimelineEvent(time_s=first.lock_on_s, outage_s=0.5, reboot=True)
    refused, received = gw.receive(obs, timeline=[at])
    assert refused.outcome is Outcome.GATEWAY_OFFLINE
    assert refused.lock_on_s is None  # dark at its lock-on, never seen
    assert received.outcome is Outcome.RECEIVED
    assert gw.reboots == 1

    after = TimelineEvent(
        time_s=math.nextafter(first.lock_on_s, math.inf),
        outage_s=second.lock_on_s,  # still dark at the second lock-on
        reboot=True,
    )
    aborted, dark = gw.receive(obs, timeline=[after])
    assert aborted.outcome is Outcome.GATEWAY_OFFLINE
    assert aborted.lock_on_s == first.lock_on_s  # seen, then aborted
    assert dark.outcome is Outcome.GATEWAY_OFFLINE
    assert gw.reboots == 2


def test_equal_lock_ons_are_served_in_network_then_node_order(net, link):
    """The last free decoder goes to the lower (network, node) id when
    two packets lock on at the same instant, whatever the input order."""
    gw = net.gateways[0]
    pair = [dev.transmit(10.0) for dev in net.devices[:2]]
    assert pair[0].lock_on_s == pair[1].lock_on_s
    first = min(pair, key=lambda tx: (tx.network_id, tx.node_id))
    one_decoder = [TimelineEvent(time_s=0.0, decoders=1)]
    for txs in (pair, pair[::-1]):
        records = gw.receive(_observe(net, link, txs), timeline=one_decoder)
        outcome = {r.transmission.node_id: r.outcome for r in records}
        assert outcome[first.node_id] is Outcome.RECEIVED
        assert list(outcome.values()).count(Outcome.NO_DECODER) == 1


def test_events_after_the_last_lock_on_are_not_applied(net, link, grid_16):
    gw = net.gateways[0]
    txs = [dev.transmit(10.0) for dev in net.devices]
    obs = _observe(net, link, txs)
    last = max(tx.lock_on_s for tx in txs)
    late = [
        TimelineEvent(
            time_s=last + 1.0,
            channels=tuple(grid_16.channels()[:1]),
            outage_s=1.0,
            reboot=True,
        ),
        TimelineEvent(time_s=last + 2.0, decoders=1),
    ]
    channels = gw.channels
    with observe(metrics=False) as plain_session:
        plain = gw.receive(obs)
    with observe(metrics=False) as late_session:
        timed = gw.receive(obs, timeline=late)
    assert timed == plain
    assert gw.channels == channels
    assert gw.reboots == 0
    assert (
        late_session.recorder.canonical_bytes()
        == plain_session.recorder.canonical_bytes()
    )


def test_receive_is_the_online_loop_under_crash_and_backhaul(net, link):
    victim = net.devices[0].transmit(2.0)
    crash = GatewayCrash(
        time_s=victim.start_s + victim.airtime_s / 2.0, gateway_id=0, down_s=1.0
    )
    txs = [victim] + [
        dev.transmit(1.0 + 0.4 * i + 3.0 * burst)
        for burst in range(2)
        for i, dev in enumerate(net.devices[1:])
    ]
    plan = FaultPlan(
        seed=1,
        gateway_crashes=(crash,),
        backhaul_faults=(
            BackhaulFault(drop_prob=0.5, delay_mean_s=0.1, delay_jitter_s=0.05),
        ),
    )
    sim = OnlineSimulator(net.gateways, net.devices, link=link)
    with observe(metrics=False) as online_session:
        result = sim.run_online(txs, fault_plan=plan)

    gw = net.gateways[0]
    timeline = [
        TimelineEvent(time_s=crash.time_s, outage_s=crash.down_s, reboot=True)
    ]
    with observe(metrics=False) as direct_session:
        records = gw.receive(
            _observe(net, link, txs), timeline=timeline, fault_plan=plan
        )

    assert records == [result.records_for(tx)[0] for tx in txs]
    assert _events(direct_session) == _events(online_session)
    outcomes = {r.outcome for r in records}
    assert {
        Outcome.GATEWAY_OFFLINE,
        Outcome.BACKHAUL_LOST,
        Outcome.RECEIVED,
    } <= outcomes
    assert records[0].outcome is Outcome.GATEWAY_OFFLINE
    assert records[0].lock_on_s is not None  # aborted in flight
    assert any(r.backhaul_delay_s > 0 for r in records)


def _front_end_reference(gw, observations, switch, before):
    """Each packet classified with the public front end under the channels
    in force at its lock-on; the burst's packets never overlap in time,
    so every detected packet is received unless the switch's reboot
    catches it on air."""
    after = switch.channels
    out = []
    for obs in observations:
        tx = obs.transmission
        lock = tx.lock_on_s
        if switch.time_s <= lock < switch.time_s + switch.outage_s:
            out.append(GatewayReception(gw.gateway_id, tx, Outcome.GATEWAY_OFFLINE))
            continue
        channels = before if lock < switch.time_s else after
        det = detect(obs, channels, noise_figure_db=gw.noise_figure_db)
        if det is None:
            outcome = (
                Outcome.CHANNEL_MISMATCH
                if match_rx_channel(tx.channel, channels) is None
                else Outcome.BELOW_SENSITIVITY
            )
            out.append(GatewayReception(gw.gateway_id, tx, outcome))
            continue
        aborted = lock < switch.time_s < tx.end_s
        out.append(
            GatewayReception(
                gw.gateway_id,
                tx,
                Outcome.GATEWAY_OFFLINE if aborted else Outcome.RECEIVED,
                rx_channel=det.rx_channel,
                snr_db=det.snr_db,
                lock_on_s=det.lock_on_s,
            )
        )
    return out


def test_mid_burst_channel_switch_matches_a_per_packet_front_end(grid_48):
    # The switch moves the gateway from channels 0-7 to 4-11 while the
    # burst cycles through channels 0-11: 0-3 go from heard to
    # truncated, 8-11 from truncated to heard.
    chans = grid_48.channels()[:12]
    before, after = tuple(chans[:8]), tuple(chans[4:12])
    gw = Gateway(0, 1, Position(0.0, 0.0), before)
    noise = noise_floor_dbm(125_000.0, gw.noise_figure_db)
    txs = [
        Transmission(
            node_id=i, network_id=1, channel=chans[i % 12],
            sf=SpreadingFactor.SF7, start_s=0.1 * i,
        )
        for i in range(36)
    ]
    # Every fifth packet is below the SF7 detection threshold.
    observations = [
        Observation(tx, noise - 12.0 if i % 5 == 4 else noise + 10.0)
        for i, tx in enumerate(txs)
    ]
    # Served in arrival order whatever the input order.
    observations.reverse()
    on_air = txs[18]  # channel 6, heard before and after the switch
    switch = TimelineEvent(
        time_s=on_air.lock_on_s + 0.005, channels=after, outage_s=0.25, reboot=True
    )
    assert switch.time_s < on_air.end_s

    records = gw.receive(observations, timeline=[switch])

    want = _front_end_reference(gw, observations, switch, before)
    assert records == want
    assert gw.channels == after
    fates = {
        (r.transmission.channel, r.transmission.start_s > switch.time_s, r.outcome)
        for r in want
    }
    for late in (False, True):
        off, on = Outcome.CHANNEL_MISMATCH, Outcome.RECEIVED
        assert (chans[0], late, off if late else on) in fates
        assert (chans[8], late, on if late else off) in fates
    outcomes = [r.outcome for r in want]
    assert outcomes.count(Outcome.GATEWAY_OFFLINE) == 3  # one aborted, two dark
    assert Outcome.BELOW_SENSITIVITY in outcomes
