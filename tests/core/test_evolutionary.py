"""Tests for the evolutionary engine."""

import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evolutionary import (
    GAConfig,
    _crossover,
    _mutate,
    _prepare,
    evolve,
)
from repro.core.intra_planner import IntraNetworkPlanner, PlannerConfig
from repro.experiments.common import lab_link
from repro.phy.regions import TESTBED_48
from repro.sim.scenario import assign_orthogonal_combos, build_network


def sphere_fitness(genome):
    """Maximum at the all-fives genome."""
    return -sum((g - 5) ** 2 for g in genome)


# -- list-based reference operators ------------------------------------
# The engine's operators before genomes became int64 arrays.  The array
# operators must produce the same children from the same random stream
# and leave the generator in the same state.


def ref_mutate(genome, bounds, rate, rng):
    out = list(genome)
    for idx, (lo, hi) in enumerate(bounds):
        if rng.random() < rate:
            out[idx] = rng.randint(lo, hi)
    return out


def ref_crossover(a, b, rng):
    return [x if rng.random() < 0.5 else y for x, y in zip(a, b)]


def ref_prepare(genome, bounds, repair, rng):
    def clip(genome):
        return [min(max(g, lo), hi) for g, (lo, hi) in zip(genome, bounds)]

    genome = clip(genome)
    if repair is not None:
        genome = clip(repair(genome, rng))
    return genome


def drifting_repair(genome, rng):
    """Draws from the stream and pushes one gene out of its bounds."""
    out = list(genome)
    idx = rng.randrange(len(out))
    out[idx] = int(out[idx]) + rng.choice((-7, 7))
    return out


BOUNDS = {
    "pinned": [(3, 3), (0, 5), (-2, -2), (7, 7), (0, 1), (4, 4)],
    "negative-lows": [(-5, 2), (-10, -3), (-1, 1), (-100, 100)],
    "one-gene": [(0, 9)],
    # The upgrade-12k layout: 12 gateway (start, count) pairs, then 360
    # node (channel, tier) pairs.
    "744-genes": [(0, 23), (1, 8)] * 12 + [(0, 23), (0, 5)] * 360,
}


def _parents(bounds, seed):
    rng = random.Random(10_000 + seed)
    return [
        [rng.randint(lo, hi) for lo, hi in bounds] for _ in range(2)
    ]


@pytest.mark.parametrize("name", sorted(BOUNDS))
class TestOperatorsMatchListReference:
    def test_crossover(self, name):
        bounds = BOUNDS[name]
        for seed in range(100):
            a, b = _parents(bounds, seed)
            new, ref = random.Random(seed), random.Random(seed)
            child = _crossover(np.array(a), np.array(b), new)
            assert child.dtype == np.int64
            assert child.tolist() == ref_crossover(a, b, ref)
            assert new.getstate() == ref.getstate()

    @pytest.mark.parametrize("rate", [0.02, 0.3])
    def test_mutate(self, name, rate):
        bounds = BOUNDS[name]
        for seed in range(100):
            a, _ = _parents(bounds, seed)
            new, ref = random.Random(seed), random.Random(seed)
            parent = np.array(a)
            child = _mutate(parent, bounds, rate, new)
            assert child.tolist() == ref_mutate(a, bounds, rate, ref)
            assert new.getstate() == ref.getstate()
            assert parent.tolist() == a  # the parent is left alone

    @pytest.mark.parametrize("repair", [None, drifting_repair])
    def test_prepare(self, name, repair):
        bounds = BOUNDS[name]
        lows = np.array([lo for lo, _ in bounds], dtype=np.int64)
        highs = np.array([hi for _, hi in bounds], dtype=np.int64)
        for seed in range(100):
            a, _ = _parents(bounds, seed)
            # Out-of-bounds genes exercise the first clip too.
            genome = [g + (seed % 7) - 3 for g in a]
            new, ref = random.Random(seed), random.Random(seed)
            got = _prepare(genome, lows, highs, repair, new)
            assert got.tolist() == ref_prepare(genome, bounds, repair, ref)
            assert new.getstate() == ref.getstate()


class TestConfig:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            GAConfig(population=1)

    def test_rejects_bad_elitism(self):
        with pytest.raises(ValueError):
            GAConfig(population=10, elitism=10)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_empty_tournament(self, k):
        with pytest.raises(ValueError, match="tournament_k"):
            GAConfig(tournament_k=k)

    def test_rejects_negative_patience(self):
        with pytest.raises(ValueError, match="patience"):
            GAConfig(patience=-1)

    def test_rejects_negative_generations(self):
        with pytest.raises(ValueError, match="generations"):
            GAConfig(generations=-3)

    @pytest.mark.parametrize("rate", [-0.5, 1.5, float("nan")])
    def test_rejects_mutation_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="mutation_rate"):
            GAConfig(mutation_rate=rate)

    @pytest.mark.parametrize("rate", [-0.1, 2.0, float("nan")])
    def test_rejects_crossover_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="crossover_rate"):
            GAConfig(crossover_rate=rate)

    def test_accepts_range_ends(self):
        config = GAConfig(
            generations=0,
            tournament_k=1,
            crossover_rate=1.0,
            mutation_rate=0.0,
            patience=0,
        )
        result = evolve([(0, 10)] * 3, sphere_fitness, config)
        assert result.generations_run == 0
        assert result.evaluations == config.population


class TestEvolve:
    def test_solves_simple_problem(self):
        bounds = [(0, 10)] * 6
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(population=30, generations=200, seed=1, patience=80),
        )
        assert result.best_fitness == 0
        assert result.best_genome == [5] * 6

    def test_deterministic_per_seed(self):
        bounds = [(0, 20)] * 10
        r1 = evolve(bounds, sphere_fitness, GAConfig(seed=3, generations=20))
        r2 = evolve(bounds, sphere_fitness, GAConfig(seed=3, generations=20))
        assert r1.best_genome == r2.best_genome
        assert r1.history == r2.history

    def test_history_monotone(self):
        bounds = [(0, 20)] * 10
        result = evolve(bounds, sphere_fitness, GAConfig(seed=5, generations=30))
        assert result.history == sorted(result.history)

    def test_seed_individual_respected(self):
        bounds = [(0, 10)] * 6
        perfect = [5] * 6
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=1, patience=0),
            seeds=[perfect],
        )
        assert result.best_fitness == 0

    def test_seed_clipped_to_bounds(self):
        bounds = [(0, 10)] * 4
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=1, patience=0),
            seeds=[[99, -5, 3, 5]],
        )
        assert all(0 <= g <= 10 for g in result.best_genome)

    def test_repair_applied(self):
        bounds = [(0, 10)] * 4

        def repair(genome, rng):
            out = list(genome)
            out[0] = 5  # enforce a "constraint"
            return out

        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=2, generations=10),
            repair=repair,
        )
        assert result.best_genome[0] == 5

    def test_early_stopping(self):
        bounds = [(5, 5)] * 3  # trivially optimal immediately
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=1, generations=500, patience=3),
        )
        assert result.generations_run <= 10

    def test_rejects_invalid_bounds(self):
        with pytest.raises(ValueError):
            evolve([(5, 3)], sphere_fitness)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_genomes_within_bounds(self, seed):
        bounds = [(2, 7), (0, 1), (-3, 3)]
        result = evolve(
            bounds,
            sphere_fitness,
            GAConfig(seed=seed, generations=5, population=10),
        )
        for gene, (lo, hi) in zip(result.best_genome, bounds):
            assert lo <= gene <= hi


class TestTelemetry:
    """Per-generation telemetry riding on GAResult (backward-compatible)."""

    def _run(self, **overrides):
        cfg = dict(population=10, generations=5, seed=0, patience=0)
        cfg.update(overrides)
        return evolve([(0, 10)] * 4, sphere_fitness, GAConfig(**cfg))

    def test_per_generation_lists_align(self):
        result = self._run()
        # Entry 0 covers the initial population; one entry per generation.
        assert len(result.gen_wall_s) == result.generations_run + 1
        assert len(result.gen_evaluations) == result.generations_run + 1
        assert all(w >= 0.0 for w in result.gen_wall_s)

    def test_evaluation_counts(self):
        result = self._run(population=10, generations=3)
        assert result.gen_evaluations == [10, 10, 10, 10]
        assert result.evaluations == 40

    def test_backward_compatible_defaults(self):
        from repro.core.evolutionary import GAResult

        legacy = GAResult(best_genome=[1], best_fitness=0.0, generations_run=2)
        assert legacy.gen_wall_s == []
        assert legacy.gen_evaluations == []
        assert legacy.evaluations == 0

    def test_telemetry_does_not_change_search(self):
        # Same seed, same result — telemetry must not consume RNG draws.
        a = self._run(seed=3)
        b = self._run(seed=3)
        assert a.best_genome == b.best_genome
        assert a.history == b.history

    def test_ga_events_emitted_when_traced(self):
        from repro.obs import observe

        with observe(metrics=False) as session:
            result = self._run(generations=2)
        counts = session.event_counts()
        assert counts["ga.generation"] == result.generations_run + 1
        assert counts["ga.done"] == 1
        gen_events = [
            e for e in session.recorder.events if e.etype == "ga.generation"
        ]
        assert [e.fields["gen"] for e in gen_events] == list(
            range(result.generations_run + 1)
        )
        for e in gen_events:
            assert e.fields["best"] >= e.fields["mean"]
            # Wall time rides in a strippable field.
            assert "gen_wall_s" in e.fields
            assert "gen_wall_s" not in e.to_dict()


class TestCallbacks:
    def test_fitness_and_repair_receive_int64_arrays(self):
        seen = []

        def fitness(genome):
            seen.append(("fitness", type(genome), genome.dtype))
            return sphere_fitness(genome)

        def repair(genome, rng):
            seen.append(("repair", type(genome), genome.dtype))
            return list(genome)

        evolve(
            [(0, 10)] * 4,
            fitness,
            GAConfig(population=6, generations=3, seed=0, patience=0),
            repair=repair,
        )
        assert {kind for kind, _, _ in seen} == {"fitness", "repair"}
        assert all(t is np.ndarray and d == np.int64 for _, t, d in seen)

    def test_best_genome_is_plain_ints(self):
        result = evolve(
            [(0, 10)] * 6, sphere_fitness, GAConfig(seed=4, generations=5)
        )
        assert all(type(g) is int for g in result.best_genome)
        json.dumps(result.best_genome)


# IntraNetworkPlanner.plan() on a small CP instance: 4 gateways, 40
# nodes on 8 channels, planned over the 24-channel grid, so repair has
# stranded nodes to reconnect.  Values were recorded with the list-based
# engine: (best_fitness, evaluations, sha256 prefix of the best genome).
PLANNER_GOLDENS = {
    "default": ({}, -1.5360000000000003, 208, "fc4182d2a710bd40"),
    "optimize_channel_count=False": (
        {"optimize_channel_count": False},
        -0.18000000000000002,
        208,
        "6a43838d6d813962",
    ),
    "optimize_nodes=False": (
        {"optimize_nodes": False},
        -0.5,
        208,
        "569824296826c4d6",
    ),
}


@pytest.mark.parametrize("arm", sorted(PLANNER_GOLDENS))
def test_planner_goldens(arm):
    overrides, best_fitness, evaluations, digest = PLANNER_GOLDENS[arm]
    grid = TESTBED_48.grid()
    net = build_network(
        1, 4, 40, grid.channels()[:8], seed=3, width_m=900, height_m=900
    )
    assign_orthogonal_combos(net.devices, grid.channels()[:8])
    planner = IntraNetworkPlanner(
        net,
        grid.channels(),
        link=lab_link(seed=0),
        config=PlannerConfig(
            ga=GAConfig(population=16, generations=12, seed=5, patience=0),
            **overrides,
        ),
        traffic={d.node_id: 0.4 for d in net.devices},
    )
    ga = planner.plan().ga_result
    assert all(type(g) is int for g in ga.best_genome)
    text = json.dumps(ga.best_genome)
    assert ga.best_fitness == best_fitness
    assert ga.evaluations == evaluations
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
