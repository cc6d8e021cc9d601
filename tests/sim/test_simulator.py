"""Tests for the network-level simulator."""

import pytest

from repro.node.traffic import capacity_burst
from repro.sim.scenario import assign_orthogonal_combos, build_network
from repro.sim.simulator import Simulator, tx_key


class TestConstruction:
    def test_duplicate_gateway_ids_rejected(self, plan_16):
        net = build_network(1, 2, 4, list(plan_16), seed=0)
        net.gateways[1].gateway_id = net.gateways[0].gateway_id
        with pytest.raises(ValueError):
            Simulator(net.gateways, net.devices)

    def test_duplicate_device_ids_rejected(self, plan_16):
        net = build_network(1, 1, 4, list(plan_16), seed=0)
        net.devices[1].node_id = net.devices[0].node_id
        with pytest.raises(ValueError):
            Simulator(net.gateways, net.devices)

    def test_unknown_device_transmission(self, plan_16, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        ghost = build_network(9, 1, 1, list(plan_16), seed=0).devices[0]
        with pytest.raises(KeyError):
            sim.run([ghost.transmit(0.0)])


class TestDelivery:
    def test_decoder_cap_visible_at_network_level(
        self, compact_network, link
    ):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run(capacity_burst(compact_network.devices))
        # 16 decoders cap admissions; a couple of admitted packets may
        # still fail decoding under near-far cross-SF interference.
        assert result.delivered_count() <= 16
        assert result.delivered_count() >= 13
        from repro.gateway.gateway import Outcome

        rejected = sum(
            1
            for recs in result.receptions.values()
            for r in recs
            if r.outcome is Outcome.NO_DECODER
        )
        assert rejected == 4

    def test_prr(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run(capacity_burst(compact_network.devices))
        assert result.prr() == pytest.approx(result.delivered_count() / 20)

    def test_offered_count_by_network(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run(capacity_burst(compact_network.devices))
        assert result.offered_count(1) == 20
        assert result.offered_count(2) == 0

    def test_empty_run(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run([])
        assert result.prr() == 0.0
        assert result.delivered_count() == 0

    def test_records_per_gateway(self, plan_16, link):
        net = build_network(
            1, 3, 6, list(plan_16), seed=0, width_m=200, height_m=200
        )
        assign_orthogonal_combos(net.devices, list(plan_16))
        sim = Simulator(net.gateways, net.devices, link=link)
        result = sim.run(capacity_burst(net.devices))
        for tx in result.transmissions:
            records = result.records_for(tx)
            # Every in-range gateway produced a record for this packet.
            assert 1 <= len(records) <= 3

    def test_pruning_far_transmitters(self, plan_16):
        # A node 100 km away is pruned from the observation set.
        net = build_network(1, 1, 2, list(plan_16), seed=0)
        far = net.devices[1]
        far.position = type(far.position)(100_000.0, 100_000.0)
        sim = Simulator(net.gateways, net.devices)
        obs = sim.observations_at(
            net.gateways[0], [far.transmit(0.0)]
        )
        assert len(obs) == 0
        assert list(obs) == []

    def test_deterministic(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        burst = capacity_burst(compact_network.devices)
        r1 = sim.run(burst)
        r2 = sim.run(burst)
        assert r1.delivered_count() == r2.delivered_count()

    def test_own_gateway_ids(self, compact_network, link):
        sim = Simulator(
            compact_network.gateways, compact_network.devices, link=link
        )
        result = sim.run([])
        assert result.own_gateway_ids(1) == {
            g.gateway_id for g in compact_network.gateways
        }
        assert result.own_gateway_ids(99) == set()


class TestTxKey:
    def test_distinct_packets_distinct_keys(self, compact_network):
        dev = compact_network.devices[0]
        assert tx_key(dev.transmit(0.0)) != tx_key(dev.transmit(1.0))
