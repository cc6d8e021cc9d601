"""Tests for scenario builders and configuration helpers."""

import pytest

from repro.phy.lora import DataRate
from repro.sim.scenario import (
    Network,
    all_combos,
    assign_orthogonal_combos,
    assign_random_channels,
    assign_tier_by_reach,
    build_network,
)


class TestBuildNetwork:
    def test_counts(self, plan_16):
        net = build_network(1, 3, 24, list(plan_16), seed=0)
        assert len(net.gateways) == 3
        assert len(net.devices) == 24

    def test_ids_offset(self, plan_16):
        net = build_network(
            2, 2, 4, list(plan_16), seed=0, gateway_id_base=100, node_id_base=500
        )
        assert [g.gateway_id for g in net.gateways] == [100, 101]
        assert [d.node_id for d in net.devices] == [500, 501, 502, 503]

    def test_rejects_empty_channels(self):
        with pytest.raises(ValueError):
            build_network(1, 1, 1, [], seed=0)

    def test_channels_in_use(self, plan_16):
        net = build_network(1, 2, 4, list(plan_16)[:3], seed=0)
        assert len(net.channels_in_use) == 3


class TestCombos:
    def test_all_combos_size(self, grid_16):
        combos = all_combos(grid_16.channels())
        assert len(combos) == 48

    def test_orthogonal_assignment_unique(self, plan_16, grid_16):
        net = build_network(1, 1, 48, list(plan_16), seed=0)
        assign_orthogonal_combos(net.devices, grid_16.channels())
        cells = {(d.channel.center_hz, d.dr) for d in net.devices}
        assert len(cells) == 48

    def test_wraps_beyond_capacity(self, plan_16, grid_16):
        net = build_network(1, 1, 50, list(plan_16), seed=0)
        assign_orthogonal_combos(net.devices, grid_16.channels())
        cells = [(d.channel.center_hz, d.dr) for d in net.devices]
        assert len(set(cells)) == 48  # two duplicates


class TestRandomChannels:
    def test_deterministic(self, plan_16):
        net1 = build_network(1, 1, 10, list(plan_16), seed=0)
        net2 = build_network(1, 1, 10, list(plan_16), seed=0)
        assign_random_channels(net1.devices, list(plan_16), seed=9)
        assign_random_channels(net2.devices, list(plan_16), seed=9)
        assert [d.channel for d in net1.devices] == [
            d.channel for d in net2.devices
        ]

    def test_drs_assigned_when_requested(self, plan_16):
        net = build_network(1, 1, 30, list(plan_16), seed=0)
        assign_random_channels(
            net.devices, list(plan_16), seed=9, drs=list(DataRate)
        )
        assert len({d.dr for d in net.devices}) > 1


class TestTierByReach:
    def test_near_nodes_fast_far_nodes_slow(self, plan_16):
        net = build_network(
            1, 1, 40, list(plan_16), seed=0, width_m=2500, height_m=2000
        )
        assign_tier_by_reach(net, k_nearest=1)
        gw = net.gateways[0]
        near = [d for d in net.devices if d.position.distance_to(gw.position) < 400]
        far = [d for d in net.devices if d.position.distance_to(gw.position) > 1700]
        if near and far:
            assert max(d.dr for d in far) <= min(d.dr for d in near)

    def test_spread_seed_diversifies(self, plan_16):
        net = build_network(
            1, 4, 60, list(plan_16), seed=0, width_m=400, height_m=300
        )
        assign_tier_by_reach(net, k_nearest=2, spread_seed=1)
        assert len({d.dr for d in net.devices}) >= 4

    def test_rejects_no_gateways(self, plan_16):
        net = Network(network_id=1)
        net.devices = build_network(1, 1, 2, list(plan_16), seed=0).devices
        with pytest.raises(ValueError):
            assign_tier_by_reach(net)
