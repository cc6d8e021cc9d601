"""The per-run medium: RSSI rows, pruning and the unknown-device error."""

import dataclasses
import math
import random

import pytest

from repro.node.traffic import capacity_burst
from repro.phy.link import noise_floor_dbm
from repro.sim.medium import PRUNE_MARGIN_DB, Medium
from repro.sim.scenario import build_network
from repro.sim.simulator import Simulator, tx_key
from repro.sim.topology import LinkBudget
from repro.types import Observation


def _spread_network(plan_16, seed):
    # 6 km x 6 km: far links fall below the prune cutoff.
    return build_network(
        1, 4, 40, list(plan_16), seed=seed, width_m=6_000.0, height_m=6_000.0
    )


def _traffic(net, seed):
    rng = random.Random(seed)
    txs = []
    for dev in net.devices:
        dev.tx_power_dbm = rng.choice((14, 14.0, 2.5, 20.0, 13.3))
        txs.append(dev.transmit(rng.uniform(0.0, 5.0)))
    txs.append(txs[3])  # the same packet twice
    return txs


def _reference(sim, gw, txs):
    """The observation set built link by link with ``rssi_dbm``."""
    cutoff = noise_floor_dbm(125_000.0, gw.noise_figure_db) - PRUNE_MARGIN_DB
    out = []
    for tx in txs:
        dev = sim.devices[(tx.network_id, tx.node_id)]
        rssi = sim.link.rssi_dbm(tx.tx_power_dbm, dev.position, gw.position)
        if rssi >= cutoff:
            out.append(Observation(transmission=tx, rssi_dbm=rssi))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_observations_equal_rssi_dbm_bit_for_bit(plan_16, seed):
    net = _spread_network(plan_16, seed)
    txs = _traffic(net, seed)
    sim = Simulator(net.gateways, net.devices)
    medium = sim.medium(txs)
    pruned = 0
    for gw in net.gateways:
        want = _reference(Simulator(net.gateways, net.devices), gw, txs)
        for got in (sim.observations_at(gw, txs), sim.observations_at(gw, txs, medium)):
            assert len(got) == len(want)
            assert [o.transmission for o in got] == [o.transmission for o in want]
            assert [o.rssi_dbm.hex() for o in got] == [o.rssi_dbm.hex() for o in want]
            assert all(type(o.rssi_dbm) is float for o in got)
        pruned += len(txs) - len(want)
    assert pruned > 0


def test_a_packet_exactly_at_the_cutoff_is_kept(plan_16):
    # A 0 dBm packet's RSSI is exactly minus its path loss.
    net = build_network(1, 1, 2, list(plan_16), seed=0)
    gw = net.gateways[0]
    cutoff = noise_floor_dbm(125_000.0, gw.noise_figure_db) - PRUNE_MARGIN_DB
    losses = {0: -cutoff, 1: math.nextafter(-cutoff, math.inf)}

    class Table:
        def path_loss_db(self, a, b):
            dev = next(d for d in net.devices if d.position == a)
            return losses[dev.node_id - net.devices[0].node_id]

    txs = [dataclasses.replace(d.transmit(0.0), tx_power_dbm=0.0) for d in net.devices]
    sim = Simulator(net.gateways, net.devices, link=LinkBudget(path_loss=Table()))
    obs = sim.observations_at(gw, txs)
    assert len(obs) == 1
    (kept,) = obs
    assert kept.transmission is txs[0]
    assert kept.rssi_dbm == cutoff


def test_hearing_marks_pruned_packets(plan_16):
    net = _spread_network(plan_16, 0)
    txs = _traffic(net, 0)
    sim = Simulator(net.gateways, net.devices)
    medium = sim.medium(txs)
    first = medium.hearing(net.gateways[0])
    for gw in net.gateways:
        want = _reference(Simulator(net.gateways, net.devices), gw, txs)
        hearing = medium.hearing(gw)
        for shared in ("transmissions", "index", "channel_ids", "channels"):
            assert getattr(hearing, shared) is getattr(first, shared)
        heard = [p for p, r in enumerate(hearing.rssi_dbm) if r is not None]
        assert [txs[p] for p in heard] == [o.transmission for o in want]
        assert [hearing.rssi_dbm[p] for p in heard] == [o.rssi_dbm for o in want]
        assert hearing.arrivals == sorted(
            heard,
            key=lambda p: (txs[p].lock_on_s, txs[p].network_id, txs[p].node_id),
        )
    assert [first.channels[c] for c in first.channel_ids] == [tx.channel for tx in txs]
    assert len(set(first.channels)) == len(first.channels)


@pytest.mark.parametrize("seed", range(2))
def test_the_view_counts_the_records_its_gateway_adds(plan_16, seed):
    # The traced sim.observe kept count is len() of the view.
    net = _spread_network(plan_16, seed)
    txs = _traffic(net, seed)
    sim = Simulator(net.gateways, net.devices)
    result = sim.run(txs)
    records = [r for recs in result.receptions.values() for r in recs]
    heard = 0
    for gw in net.gateways:
        view = sim.observations_at(gw, txs)
        assert len(view) == sum(r.gateway_id == gw.gateway_id for r in records)
        assert len(list(view)) == len(view)
        heard += len(view)
    assert 0 < heard < len(txs) * len(net.gateways)


def test_rows_fill_through_the_link_cache(plan_16):
    net = _spread_network(plan_16, 1)
    txs = _traffic(net, 1)
    link = LinkBudget()
    sim = Simulator(net.gateways, net.devices, link=link)
    medium = Medium(link, sim.devices, net.gateways, txs)
    rows = [medium.rssi_dbm(gw).tolist() for gw in net.gateways]
    # One path-loss draw per (device, gateway) link.
    assert len(link._cache) == len(net.gateways) * len(net.devices)
    for gw, row in zip(net.gateways, rows):
        want = [
            link.rssi_dbm(
                tx.tx_power_dbm,
                sim.devices[(tx.network_id, tx.node_id)].position,
                gw.position,
            )
            for tx in txs
        ]
        assert [r.hex() for r in row] == [w.hex() for w in want]


def test_unknown_device_message_unchanged(plan_16, compact_network, link):
    sim = Simulator(compact_network.gateways, compact_network.devices, link=link)
    ghost = build_network(9, 1, 1, list(plan_16), seed=0, node_id_base=77).devices[0]
    txs = capacity_burst(compact_network.devices)[:2] + [ghost.transmit(0.0)]
    for call in (
        lambda: sim.observations_at(compact_network.gateways[0], txs),
        lambda: sim.run(txs),
    ):
        with pytest.raises(KeyError) as info:
            call()
        assert info.value.args == (
            f"transmission from unknown device net=9 node={ghost.node_id}",
        )


def test_no_gateways_needs_no_devices(plan_16):
    ghost = build_network(9, 1, 1, list(plan_16), seed=0).devices[0]
    result = Simulator([], []).run([ghost.transmit(0.0)])
    assert result.receptions == {tx_key(result.transmissions[0]): []}


def test_duplicate_packets_share_one_record_list(plan_16, link):
    net = build_network(1, 2, 6, list(plan_16), seed=0, width_m=200, height_m=200)
    txs = capacity_burst(net.devices)
    txs.append(txs[0])
    result = Simulator(net.gateways, net.devices, link=link).run(txs)
    records = result.records_for(txs[0])
    # Two observations of the same packet at each of the two gateways.
    assert [r.gateway_id for r in records] == [
        g.gateway_id for g in net.gateways for _ in range(2)
    ]
