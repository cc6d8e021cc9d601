"""Tests for gateway agents and the capacity-upgrade orchestration."""

import pytest

from repro.core.agents import (
    GatewayAgent,
    REBOOT_MEAN_S,
    distribution_latency_s,
)
from repro.core.evolutionary import GAConfig
from repro.core.intra_planner import IntraNetworkPlanner, PlannerConfig
from repro.core.master import MasterNode
from repro.core.master_client import MasterClient
from repro.core.master_server import MasterServer
from repro.core.upgrade import LatencyBreakdown, run_capacity_upgrade
from repro.obs.perf import PerfProbe, Phase
from repro.sim.scenario import assign_orthogonal_combos, build_network

FAST = GAConfig(population=16, generations=15, seed=0, patience=5)


@pytest.fixture
def network(grid_16):
    net = build_network(
        1, 3, 12, grid_16.channels(), seed=1, width_m=250, height_m=250
    )
    assign_orthogonal_combos(net.devices, grid_16.channels())
    return net


class TestAgents:
    def test_apply_config_reboots(self, network, grid_16):
        gw = network.gateways[0]
        agent = GatewayAgent(gateway=gw, seed=1)
        latency = agent.apply_config(grid_16.channels()[:4])
        assert gw.reboots == 1
        assert len(gw.channels) == 4
        assert latency == pytest.approx(REBOOT_MEAN_S, abs=2.0)

    def test_invalid_config_leaves_gateway_untouched(self, network, grid_16):
        gw = network.gateways[0]
        before = gw.channels
        agent = GatewayAgent(gateway=gw, seed=1)
        with pytest.raises(ValueError):
            agent.apply_config([])
        assert gw.channels == before
        assert gw.reboots == 0

    def test_reboot_latency_deterministic_per_seed(self, network, grid_16):
        gw = network.gateways[0]
        l1 = GatewayAgent(gateway=gw, seed=9).apply_config(grid_16.channels()[:2])
        l2 = GatewayAgent(gateway=gw, seed=9).apply_config(grid_16.channels()[:2])
        assert l1 == l2


class TestDistributionLatency:
    def test_empty(self):
        assert distribution_latency_s([]) == 0.0

    def test_scales_with_config_size(self, grid_16):
        small = distribution_latency_s([grid_16.channels()[:1]])
        large = distribution_latency_s([grid_16.channels()])
        assert large > small

    def test_rejects_bad_rate(self, grid_16):
        with pytest.raises(ValueError):
            distribution_latency_s([grid_16.channels()], backhaul_gbps=0)


class TestUpgrade:
    def test_single_network_upgrade(self, network, grid_16, link):
        planner = IntraNetworkPlanner(
            network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        outcome, latency = run_capacity_upgrade(planner, agent_seed=1)
        assert outcome.solution.connectivity_violations == 0
        assert latency.cp_solving_s > 0
        assert latency.reboot_s > 1.0
        assert latency.master_comm_s == 0.0
        assert latency.total_s < 30.0
        assert all(gw.reboots == 1 for gw in network.gateways)

    def test_upgrade_with_spectrum_sharing(self, network, grid_16, link):
        planner = IntraNetworkPlanner(
            network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                outcome, latency = run_capacity_upgrade(
                    planner,
                    master_client=client,
                    operator="op-1",
                    agent_seed=1,
                )
        assert latency.master_comm_s > 0
        assert master.assignment_of("op-1") is not None

    def test_upgrade_steps_are_phases(self, network, grid_16, link):
        planner = IntraNetworkPlanner(
            network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        probe = PerfProbe()
        master = MasterNode(grid_16, expected_networks=2)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                with probe.attach():
                    run_capacity_upgrade(
                        planner, master_client=client, operator="op-1"
                    )
        phases = probe.report()["deterministic"]["phases"]
        gateways = len(network.gateways)
        assert phases == {
            Phase.SYNC: {"calls": 1, "items": 1},
            Phase.PLAN: {"calls": 1, "items": len(network.devices)},
            Phase.DISTRIBUTE: {"calls": 1, "items": gateways},
            Phase.REBOOT: {"calls": 1, "items": gateways},
        }

    def test_no_sync_phase_without_a_master(self, network, grid_16, link):
        planner = IntraNetworkPlanner(
            network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        probe = PerfProbe()
        with probe.attach():
            run_capacity_upgrade(planner, agent_seed=1)
        phases = probe.report()["deterministic"]["phases"]
        assert Phase.SYNC not in phases
        assert phases[Phase.PLAN]["calls"] == 1
        assert phases[Phase.REBOOT]["calls"] == 1

    def test_sharing_requires_operator_name(self, network, grid_16, link):
        planner = IntraNetworkPlanner(
            network, grid_16.channels(), link=link,
            config=PlannerConfig(ga=FAST),
        )
        master = MasterNode(grid_16)
        with MasterServer(master) as server:
            with MasterClient(server.address) as client:
                with pytest.raises(ValueError):
                    run_capacity_upgrade(planner, master_client=client)

    def test_latency_breakdown_total(self):
        latency = LatencyBreakdown(
            cp_solving_s=1.0,
            master_comm_s=0.2,
            distribution_s=0.05,
            reboot_s=4.6,
        )
        assert latency.total_s == pytest.approx(5.85)
