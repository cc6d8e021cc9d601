"""Tests for the intra-network channel planner."""

import random

import numpy as np
import pytest

from repro.core.evolutionary import GAConfig
from repro.core.intra_planner import (
    IntraNetworkPlanner,
    PlannerConfig,
    _greedy_nodes,
    _greedy_windows,
    build_cp_input,
)
from repro.experiments.common import lab_link, measure_capacity
from repro.phy.regions import TESTBED_48
from repro.sim.scenario import assign_orthogonal_combos, build_network

FAST = GAConfig(population=24, generations=30, seed=1, patience=10)


def ref_greedy_nodes(cp, windows):
    """The greedy node assignment as written with numpy scalars."""
    num_ch = len(cp.channels)
    cell_load = np.zeros((num_ch, 6))
    gw_load = np.zeros(len(cp.gateways))
    decoders = np.array([g.decoders for g in cp.gateways], dtype=float)
    ch_gws = [[] for _ in range(num_ch)]
    for j, (start, count) in enumerate(windows):
        for ch in range(start, min(start + count, num_ch)):
            ch_gws[ch].append(j)
    order = sorted(
        range(len(cp.nodes)),
        key=lambda i: sum(len(r) for r in cp.nodes[i].reach),
    )
    node_ch = [0] * len(cp.nodes)
    node_tier = [0] * len(cp.nodes)
    for i in order:
        node = cp.nodes[i]
        u = node.traffic
        best = None
        for l, tier in enumerate(cp.tiers):
            reach = set(node.reach[l])
            if not reach:
                continue
            dr = int(tier.dr)
            candidate_chs = {
                ch
                for j in reach
                for ch in range(windows[j][0], min(windows[j][0] + windows[j][1], num_ch))
            }
            for ch in candidate_chs:
                affected = [j for j in ch_gws[ch] if j in reach]
                if not affected:
                    continue
                delta = sum(
                    max(0.0, gw_load[j] + u - decoders[j])
                    - max(0.0, gw_load[j] - decoders[j])
                    for j in affected
                )
                delta += 0.25 * (len(affected) - 1) * u
                load = cell_load[ch, dr]
                collides = 1 if load + u > 1.0 + 1e-9 else 0
                key = (collides, -load if collides else load, delta, l, ch)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 0 and best[2] == 0.0:
                break
        if best is None:
            continue
        if best[0] == 1:
            parked = [ch for ch in range(num_ch) if not ch_gws[ch]]
            if parked:
                node_ch[i] = parked[i % len(parked)]
                node_tier[i] = 0
                continue
        _, _, _, l, ch = best
        node_ch[i] = ch
        node_tier[i] = l
        cell_load[ch, int(cp.tiers[l].dr)] += u
        for j in ch_gws[ch]:
            if j in set(node.reach[l]):
                gw_load[j] += u
    return node_ch, node_tier


@pytest.mark.parametrize("seed", range(4))
def test_greedy_nodes_matches_numpy_reference(seed):
    # Heavy traffic overloads decoders and cells, so the overload deltas,
    # the collision ordering and parking all take part.
    grid = TESTBED_48.grid()
    net = build_network(
        1, 4, 80, grid.channels()[:8], seed=seed, width_m=900, height_m=900
    )
    traffic = {d.node_id: 0.25 + 0.25 * (d.node_id % 4) for d in net.devices}
    cp = build_cp_input(net, grid.channels(), lab_link(seed=seed), traffic=traffic)
    rng = random.Random(seed)
    variants = [_greedy_windows(cp, True), _greedy_windows(cp, False)]
    for _ in range(4):
        variants.append(
            [(rng.randrange(len(cp.channels)), rng.randint(1, 8)) for _ in cp.gateways]
        )
    for windows in variants:
        assert _greedy_nodes(cp, windows) == ref_greedy_nodes(cp, windows)


@pytest.fixture
def small_network(grid_16, link):
    net = build_network(
        1, 3, 24, grid_16.channels(), seed=2, width_m=250, height_m=250
    )
    assign_orthogonal_combos(net.devices, grid_16.channels())
    return net


class TestBuildCpInput:
    def test_dimensions(self, small_network, grid_16, link):
        cp = build_cp_input(small_network, grid_16.channels(), link)
        assert len(cp.gateways) == 3
        assert len(cp.nodes) == 24
        assert len(cp.channels) == 8

    def test_reach_grows_with_tier(self, small_network, grid_16, link):
        cp = build_cp_input(small_network, grid_16.channels(), link)
        for node in cp.nodes:
            sizes = [len(r) for r in node.reach]
            assert sizes == sorted(sizes)

    def test_compact_network_fully_reachable_at_high_tier(
        self, small_network, grid_16, link
    ):
        cp = build_cp_input(small_network, grid_16.channels(), link)
        assert all(len(node.reach[-1]) == 3 for node in cp.nodes)

    def test_traffic_override(self, small_network, grid_16, link):
        traffic = {d.node_id: 0.5 for d in small_network.devices}
        cp = build_cp_input(
            small_network, grid_16.channels(), link, traffic=traffic
        )
        assert all(n.traffic == 0.5 for n in cp.nodes)

    def test_unknown_node_gets_zero_traffic(
        self, small_network, grid_16, link
    ):
        cp = build_cp_input(
            small_network, grid_16.channels(), link, traffic={}
        )
        assert all(n.traffic == 0.0 for n in cp.nodes)


class TestPlanning:
    def test_plan_is_connected_and_low_risk(
        self, small_network, grid_16, link
    ):
        planner = IntraNetworkPlanner(
            small_network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        outcome = planner.plan()
        assert outcome.solution.connectivity_violations == 0
        assert outcome.solution.risk < 5.0
        assert outcome.solve_time_s > 0

    def test_apply_configures_hardware(self, small_network, grid_16, link):
        planner = IntraNetworkPlanner(
            small_network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        outcome = planner.plan_and_apply()
        for j, gw in enumerate(small_network.gateways):
            start, count = outcome.solution.gateway_windows[j]
            assert len(gw.channels) == count
        planned = {
            (c, t)
            for c, t in zip(
                outcome.solution.node_channels, outcome.solution.node_tiers
            )
        }
        assert planned  # nodes were assigned

    def test_capacity_improves_over_standard(
        self, small_network, grid_16, link
    ):
        # Standard homogeneous configuration first.
        from repro.baselines.standard import apply_standard_lorawan

        apply_standard_lorawan(
            small_network, grid_16, seed=0, randomize_devices=False
        )
        baseline = measure_capacity(
            small_network.gateways, small_network.devices, link=link
        ).delivered_count()

        planner = IntraNetworkPlanner(
            small_network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(ga=FAST),
        )
        planner.plan_and_apply()
        planned = measure_capacity(
            small_network.gateways, small_network.devices, link=link
        ).delivered_count()
        assert baseline <= 16
        assert planned > baseline

    def test_channel_count_pinned_without_strategy_1(
        self, small_network, grid_16, link
    ):
        planner = IntraNetworkPlanner(
            small_network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(optimize_channel_count=False, ga=FAST),
        )
        outcome = planner.plan()
        assert all(
            count == 8 for _, count in outcome.solution.gateway_windows
        )

    def test_node_side_frozen_variant(self, small_network, grid_16, link):
        before = [(d.channel, d.dr) for d in small_network.devices]
        planner = IntraNetworkPlanner(
            small_network,
            grid_16.channels(),
            link=link,
            config=PlannerConfig(optimize_nodes=False, ga=FAST),
        )
        planner.plan_and_apply()
        after = [(d.channel, d.dr) for d in small_network.devices]
        assert before == after  # devices untouched

    def test_deterministic(self, grid_16, link):
        results = []
        for _ in range(2):
            net = build_network(
                1, 3, 24, grid_16.channels(), seed=2, width_m=250, height_m=250
            )
            assign_orthogonal_combos(net.devices, grid_16.channels())
            planner = IntraNetworkPlanner(
                net, grid_16.channels(), link=link, config=PlannerConfig(ga=FAST)
            )
            outcome = planner.plan()
            results.append(
                (
                    outcome.solution.gateway_windows,
                    outcome.solution.node_channels,
                )
            )
        assert results[0] == results[1]
