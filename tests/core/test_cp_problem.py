"""Tests for the CP problem model and its vectorized evaluator."""

import random

import numpy as np
import pytest

from repro.core.cp_problem import (
    CPEvaluator,
    CPInput,
    CPSolution,
    GatewaySpec,
    NodeSpec,
    UNSERVED_COST,
)
from repro.core.evolutionary import GAConfig
from repro.core.intra_planner import IntraNetworkPlanner, PlannerConfig
from repro.experiments.common import lab_link
from repro.phy.channels import ChannelGrid
from repro.phy.link import DEFAULT_TIERS
from repro.phy.regions import TESTBED_48
from repro.sim.scenario import assign_orthogonal_combos, build_network

GRID = ChannelGrid(start_hz=923.0e6, width_hz=1.6e6)
NUM_TIERS = len(DEFAULT_TIERS)


def make_cp(num_gw=2, num_nodes=4, decoders=16, reach_all=True):
    gateways = [
        GatewaySpec(
            gateway_id=j, decoders=decoders, max_channels=8, max_span_channels=8
        )
        for j in range(num_gw)
    ]
    reach = tuple(
        tuple(range(num_gw)) if reach_all else () for _ in range(NUM_TIERS)
    )
    nodes = [
        NodeSpec(node_id=i, traffic=1.0, reach=reach) for i in range(num_nodes)
    ]
    return CPInput(gateways=gateways, nodes=nodes, channels=GRID.channels())


def genome_for(cp, windows, node_ch, node_tier):
    g = []
    for start, count in windows:
        g.extend((start, count))
    for ch, tier in zip(node_ch, node_tier):
        g.extend((ch, tier))
    return g


class TestValidation:
    def test_requires_gateways(self):
        with pytest.raises(ValueError):
            CPInput(gateways=[], nodes=[], channels=GRID.channels())

    def test_requires_channels(self):
        cp = make_cp()
        with pytest.raises(ValueError):
            CPInput(gateways=cp.gateways, nodes=cp.nodes, channels=[])

    def test_reach_tier_mismatch(self):
        cp = make_cp()
        bad = NodeSpec(node_id=9, traffic=1.0, reach=((0,),))
        with pytest.raises(ValueError):
            CPInput(
                gateways=cp.gateways,
                nodes=[bad],
                channels=GRID.channels(),
            )


class TestEvaluator:
    def test_zero_risk_when_spread(self):
        cp = make_cp(num_gw=2, num_nodes=4)
        ev = CPEvaluator(cp)
        genome = genome_for(
            cp, [(0, 4), (4, 4)], [0, 1, 4, 5], [0, 0, 0, 0]
        )
        risk, violations = ev.risk(genome)
        assert violations == 0
        # Only the small redundancy term remains.
        assert risk < 1.0

    def test_unserved_node_costs(self):
        cp = make_cp(num_gw=1, num_nodes=1)
        ev = CPEvaluator(cp)
        # Gateway covers channels 0-3; the node sits on channel 7.
        genome = genome_for(cp, [(0, 4)], [7], [0])
        risk, violations = ev.risk(genome)
        assert violations == 1
        assert risk >= UNSERVED_COST

    def test_cell_collision_penalized(self):
        cp = make_cp(num_gw=1, num_nodes=2, decoders=16)
        ev = CPEvaluator(cp)
        shared = genome_for(cp, [(0, 8)], [0, 0], [0, 0])
        spread = genome_for(cp, [(0, 8)], [0, 1], [0, 0])
        assert ev.risk(shared)[0] > ev.risk(spread)[0]

    def test_decoder_overload_penalized(self):
        cp = make_cp(num_gw=1, num_nodes=12, decoders=6)
        ev = CPEvaluator(cp)
        # All 12 nodes on distinct cells within the window: overload 6.
        node_ch = [i % 8 for i in range(12)]
        node_tier = [i // 8 for i in range(12)]
        genome = genome_for(cp, [(0, 8)], node_ch, node_tier)
        risk, _ = ev.risk(genome)
        assert risk > 2.0

    def test_window_clamped_into_grid(self):
        cp = make_cp(num_gw=1, num_nodes=1)
        ev = CPEvaluator(cp)
        starts, counts, _, _ = ev.split(genome_for(cp, [(7, 4)], [0], [0]))
        assert starts[0] + counts[0] <= len(cp.channels)

    def test_fitness_is_negative_risk(self):
        cp = make_cp()
        ev = CPEvaluator(cp)
        genome = genome_for(cp, [(0, 4), (4, 4)], [0, 1, 4, 5], [0] * 4)
        risk, _ = ev.risk(genome)
        assert ev.fitness(genome) == pytest.approx(-risk)

    def test_decode_roundtrip(self):
        cp = make_cp()
        ev = CPEvaluator(cp)
        genome = genome_for(cp, [(0, 4), (4, 4)], [0, 1, 4, 5], [0] * 4)
        sol = ev.decode(genome)
        assert sol.gateway_windows == [(0, 4), (4, 4)]
        assert sol.node_channels == [0, 1, 4, 5]
        assert sol.gateway_channels(cp, 0) == GRID.channels()[0:4]


class TestFixedNodes:
    def test_bounds_shrink(self):
        cp = make_cp(num_gw=2, num_nodes=4)
        full = CPEvaluator(cp)
        fixed = CPEvaluator(cp, fixed_nodes=([0, 1, 4, 5], [0, 0, 0, 0]))
        assert len(fixed.bounds()) == 4  # gateway genes only
        assert len(full.bounds()) == 4 + 8

    def test_fixed_assignment_used(self):
        cp = make_cp(num_gw=1, num_nodes=2)
        fixed = CPEvaluator(cp, fixed_nodes=([0, 1], [0, 0]))
        risk, violations = fixed.risk([0, 8])
        assert violations == 0

    def test_length_mismatch_rejected(self):
        cp = make_cp(num_gw=1, num_nodes=2)
        with pytest.raises(ValueError):
            CPEvaluator(cp, fixed_nodes=([0], [0]))


class TestTrafficWeighting:
    def test_fractional_traffic_tolerates_cell_sharing(self):
        gateways = [
            GatewaySpec(gateway_id=0, decoders=16, max_channels=8, max_span_channels=8)
        ]
        reach = tuple((0,) for _ in range(NUM_TIERS))
        light = [
            NodeSpec(node_id=i, traffic=0.05, reach=reach) for i in range(4)
        ]
        cp = CPInput(gateways=gateways, nodes=light, channels=GRID.channels())
        ev = CPEvaluator(cp)
        genome = genome_for(cp, [(0, 8)], [0, 0, 0, 0], [0, 0, 0, 0])
        risk, _ = ev.risk(genome)
        # Four 5 %-duty users sharing one cell is nearly free.
        assert risk < 0.2


# -- reference evaluator -------------------------------------------------
# ``link_matrix`` and ``risk`` as they were before the window table and
# the gateway-major minimum and link count.  The evaluator must give the
# same values (``==``, not approx) or raise the same exception type.


def ref_link_matrix(ev, starts, counts, node_ch, node_tier):
    ch = node_ch[:, None]
    in_window = (ch >= starts[None, :]) & (ch < (starts + counts)[None, :])
    reach_sel = ev.reach[node_tier, ev._node_index, :]
    return in_window & reach_sel


def ref_risk(ev, genome):
    starts, counts, node_ch, node_tier = ev.split(genome)
    link = ref_link_matrix(ev, starts, counts, node_ch, node_tier)
    k = ev.traffic @ link
    phi = np.maximum(k - ev.decoders, 0.0)
    gw_loss = np.where(k > 0.0, phi / np.maximum(k, 1e-9), 0.0)
    risk_per_node = np.where(link, gw_loss[None, :], np.inf)
    node_risk = risk_per_node.min(axis=1)
    disconnected = ~np.isfinite(node_risk)
    violations = int(disconnected.sum())
    node_risk = np.where(disconnected, 0.0, node_risk)
    total = float((ev.traffic * node_risk).sum())
    total += ev.unserved_cost * float(ev.traffic[disconnected].sum())
    dr = ev.tier_dr[node_tier]
    cell = node_ch * 6 + dr
    num_cells = ev.num_channels * 6
    load = np.bincount(cell, weights=ev.traffic, minlength=num_cells)
    sumsq = np.bincount(cell, weights=ev.traffic * ev.traffic, minlength=num_cells)
    pairs = np.maximum(load * load - sumsq, 0.0)
    collided = np.minimum(load, pairs).sum()
    total += ev.cell_overload_weight * float(collided)
    links_per_node = link.sum(axis=1)
    redundancy = float((ev.traffic * np.maximum(links_per_node - 1, 0)).sum())
    total += ev.redundancy_weight * redundancy
    return total, violations


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


def assert_matches_reference(ev, genome):
    got, ref = _outcome(ev.risk, genome), _outcome(ref_risk, ev, genome)
    assert got == ref  # a (total, violations) tuple, or an exception type
    parts = ev.split(genome)
    got, ref = _outcome(ev.link_matrix, *parts), _outcome(ref_link_matrix, ev, *parts)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert got.flags.c_contiguous
        assert np.array_equal(got, ref)


def random_cp(rng, num_gw, num_nodes, num_channels=24, uniform=True):
    gateways = [
        GatewaySpec(
            gateway_id=j,
            decoders=rng.choice((4, 8, 16)),
            max_channels=8,
            max_span_channels=rng.choice((4, 8, 12)),
        )
        for j in range(num_gw)
    ]
    nodes = [
        NodeSpec(
            node_id=i,
            traffic=1.0 if uniform else rng.choice((0.0, 0.05, rng.random() * 2)),
            reach=tuple(
                tuple(sorted(rng.sample(range(num_gw), rng.randint(0, num_gw))))
                for _ in range(NUM_TIERS)
            ),
        )
        for i in range(num_nodes)
    ]
    grid = ChannelGrid(start_hz=916.8e6, width_hz=num_channels * 200e3)
    return CPInput(gateways=gateways, nodes=nodes, channels=grid.channels())


def random_genome(ev, rng):
    """In-bounds genes, with some window genes the split must clamp."""
    genome = [rng.randint(lo, hi) for lo, hi in ev.bounds()]
    for j in range(ev.num_gw):
        if rng.random() < 0.3:
            genome[2 * j] = rng.choice((-3, ev.num_channels + 2))
        if rng.random() < 0.2:
            genome[2 * j + 1] = rng.choice((-1, 0))
    return genome


REFERENCE_SHAPES = {
    "uniform": dict(num_gw=6, num_nodes=50, uniform=True, fixed=False),
    "non-uniform": dict(num_gw=6, num_nodes=50, uniform=False, fixed=False),
    "fixed-nodes": dict(num_gw=5, num_nodes=40, uniform=False, fixed=True),
    "one-gateway": dict(num_gw=1, num_nodes=30, uniform=False, fixed=False),
}


def reference_evaluator(shape, seed):
    opts = REFERENCE_SHAPES[shape]
    rng = random.Random(seed)
    cp = random_cp(rng, opts["num_gw"], opts["num_nodes"], uniform=opts["uniform"])
    fixed = None
    if opts["fixed"]:
        fixed = (
            [rng.randrange(len(cp.channels)) for _ in cp.nodes],
            [rng.randrange(NUM_TIERS) for _ in cp.nodes],
        )
    return CPEvaluator(cp, fixed_nodes=fixed), rng


@pytest.mark.parametrize("shape", sorted(REFERENCE_SHAPES))
class TestEvaluatorMatchesReference:
    def test_random_genomes(self, shape):
        for seed in range(4):
            ev, rng = reference_evaluator(shape, seed)
            for _ in range(50):
                assert_matches_reference(ev, random_genome(ev, rng))

    def test_off_grid_channels_link_nowhere(self, shape):
        ev, rng = reference_evaluator(shape, 0)
        for channel in (-1, ev.num_channels, ev.num_channels + 5):
            genome = random_genome(ev, rng)
            off = rng.sample(range(ev.num_nodes), 5)
            for i in off:
                set_node_gene(ev, genome, i, 0, channel)
            assert_matches_reference(ev, genome)
            assert not ev.link_matrix(*ev.split(genome))[off].any()

    def test_tier_out_of_range(self, shape):
        ev, rng = reference_evaluator(shape, 1)
        for tier in (-1, ev.num_tiers):
            genome = random_genome(ev, rng)
            set_node_gene(ev, genome, rng.randrange(ev.num_nodes), 1, tier)
            assert_matches_reference(ev, genome)
        with pytest.raises(IndexError):
            ev.risk(genome)  # the last genome has a tier of T


def set_node_gene(ev, genome, i, gene, value):
    """Set node ``i``'s channel (gene 0) or tier (gene 1)."""
    if ev.fixed_nodes is None:
        genome[2 * ev.num_gw + 2 * i + gene] = value
    else:
        ev.fixed_nodes[gene][i] = value


@pytest.mark.parametrize(
    "overrides",
    [{}, {"optimize_channel_count": False}, {"optimize_nodes": False}],
    ids=["default", "pinned-counts", "fixed-nodes"],
)
def test_planner_genomes_match_reference(monkeypatch, overrides):
    scored = []
    fitness = CPEvaluator.fitness

    def capture(self, genome):
        scored.append((self, np.array(genome)))
        return fitness(self, genome)

    monkeypatch.setattr(CPEvaluator, "fitness", capture)
    grid = TESTBED_48.grid()
    net = build_network(
        1, 4, 40, grid.channels()[:8], seed=3, width_m=900, height_m=900
    )
    assign_orthogonal_combos(net.devices, grid.channels()[:8])
    IntraNetworkPlanner(
        net,
        grid.channels(),
        link=lab_link(seed=0),
        config=PlannerConfig(
            ga=GAConfig(population=12, generations=8, seed=2, patience=0),
            **overrides,
        ),
        traffic={d.node_id: 0.1 * (d.node_id % 7) for d in net.devices},
    ).plan()
    assert len(scored) > 100
    for ev, genome in scored:
        assert_matches_reference(ev, genome)
