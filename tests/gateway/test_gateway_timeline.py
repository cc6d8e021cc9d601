"""The gateway timeline that ``Gateway.receive`` applies per packet.

Pins when an event applies relative to the lock-ons around it, and that
driving ``receive`` directly with a timeline and a fault plan is the
online engine's reception loop.
"""

import math

import pytest

from repro.faults import BackhaulFault, FaultPlan, GatewayCrash
from repro.gateway.gateway import Outcome, TimelineEvent
from repro.obs import observe
from repro.phy.lora import DataRate
from repro.sim.engine import OnlineSimulator
from repro.sim.scenario import build_network


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
        {k: v for k, v in ev.items() if k not in ("seq", "lam")}
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
    with observe(metrics=False, spans=False) as plain_session:
        plain = gw.receive(obs)
    with observe(metrics=False, spans=False) as late_session:
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
    with observe(metrics=False, spans=False) as online_session:
        result = sim.run_online(txs, fault_plan=plan)

    gw = net.gateways[0]
    timeline = [
        TimelineEvent(time_s=crash.time_s, outage_s=crash.down_s, reboot=True)
    ]
    with observe(metrics=False, spans=False) as direct_session:
        records = gw.receive(_observe(net, link, txs), None, timeline, plan)

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
