"""A seeded, steady-state evolutionary solver for integer genomes.

The paper solves the Channel Planning (CP) problem — a knapsack-variant,
NP-hard — with an evolutionary algorithm on a central server
(section 4.3.1).  This module provides the generic engine: integer
genomes with per-gene bounds, tournament selection, uniform crossover,
reset mutation, elitism, and optional seed individuals (AlphaWAN seeds
the population with greedy constructions and with high-demand traffic
samples).

Genomes are int64 arrays.  Every draw comes from one ``random.Random``
in a fixed order, so a seed fixes the whole search.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from itertools import repeat, starmap
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import runtime as _obs
from ..obs.events import EventType

logger = logging.getLogger(__name__)

__all__ = ["GAConfig", "GAResult", "evolve"]

Genome = np.ndarray  # int64, one entry per gene
FitnessFn = Callable[[Genome], float]
RepairFn = Callable[[Genome, random.Random], Sequence[int]]


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the evolutionary search.

    Attributes:
        population: Individuals per generation (at least 2).
        generations: Evolution steps (0 scores the initial population
            only).
        tournament_k: Tournament size for parent selection (at least 1).
        crossover_rate: Probability of uniform crossover per mating, in
            [0, 1].
        mutation_rate: Per-gene reset probability, in [0, 1].
        elitism: Individuals copied unchanged into the next generation,
            in [0, population).
        seed: RNG seed (the whole run is deterministic).
        patience: Stop early after this many generations without
            improvement (at least 0; 0 disables early stopping).

    Raises:
        ValueError: A field is outside its range above.
    """

    population: int = 60
    generations: int = 120
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elitism: int = 2
    seed: int = 0
    patience: int = 30

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be at least 0")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be at least 1")
        for name in ("crossover_rate", "mutation_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be in [0, population)")
        if self.patience < 0:
            raise ValueError("patience must be at least 0")


@dataclass
class GAResult:
    """Outcome of one evolutionary run.

    ``gen_wall_s`` and ``gen_evaluations`` are per-generation telemetry
    (wall-clock seconds and fitness evaluations, including the initial
    population's as entry 0); both default empty so pre-telemetry
    callers and serialized results stay valid.
    """

    best_genome: List[int]
    best_fitness: float
    generations_run: int
    history: List[float] = field(default_factory=list)
    gen_wall_s: List[float] = field(default_factory=list)
    gen_evaluations: List[int] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        """Total fitness evaluations across the run."""
        return sum(self.gen_evaluations)


def _random_genome(bounds: Sequence[Tuple[int, int]], rng: random.Random) -> List[int]:
    return [rng.randint(lo, hi) for lo, hi in bounds]


def _mutate(
    genome: Genome,
    bounds: Sequence[Tuple[int, int]],
    rate: float,
    rng: random.Random,
) -> Genome:
    # Per gene: a ``randint`` after a hit draws a variable number of
    # words, so the uniforms cannot be drawn ahead in bulk.
    out = genome.copy()
    rnd, randint = rng.random, rng.randint
    for idx in range(len(bounds)):
        if rnd() < rate:
            out[idx] = randint(*bounds[idx])
    return out


def _crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    # One ``random()`` call per gene, in gene order, iterated in C.
    n = len(a)
    draws = np.fromiter(starmap(rng.random, repeat((), n)), np.float64, n)
    return np.where(draws < 0.5, a, b)


def _prepare(
    genome: Sequence[int],
    lows: np.ndarray,
    highs: np.ndarray,
    repair: Optional[RepairFn],
    rng: random.Random,
) -> Genome:
    """Clip a genome to its bounds, then repair it and clip again."""
    out = np.clip(np.asarray(genome, dtype=np.int64), lows, highs)
    if repair is not None:
        out = np.clip(np.asarray(repair(out, rng), dtype=np.int64), lows, highs)
    return out


def _tournament(
    scored: List[Tuple[float, Genome]], k: int, rng: random.Random
) -> Genome:
    picks = rng.sample(range(len(scored)), min(k, len(scored)))
    best = max(picks, key=lambda i: scored[i][0])
    return scored[best][1]


def evolve(
    bounds: Sequence[Tuple[int, int]],
    fitness: FitnessFn,
    config: GAConfig = GAConfig(),
    seeds: Sequence[Sequence[int]] = (),
    repair: Optional[RepairFn] = None,
) -> GAResult:
    """Run the evolutionary search.

    Args:
        bounds: Inclusive (low, high) bounds per gene.
        fitness: Objective to *maximize*; receives an int64 array.
        config: Hyper-parameters.
        seeds: Optional genomes injected into the initial population
            (e.g. greedy constructions); clipped to bounds.
        repair: Optional constraint-repair hook applied to every new
            individual before evaluation.  It receives an int64 array,
            must not modify it, and may return any int sequence.

    Returns:
        The best genome found (a list of ints) and the fitness
        trajectory.
    """
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError(f"invalid gene bounds ({lo}, {hi})")
    rng = random.Random(config.seed)
    lows = np.array([lo for lo, _ in bounds], dtype=np.int64)
    highs = np.array([hi for _, hi in bounds], dtype=np.int64)

    def prepare(genome: Sequence[int]) -> Genome:
        return _prepare(genome, lows, highs, repair, rng)

    population: List[Genome] = [prepare(s) for s in seeds]
    while len(population) < config.population:
        population.append(prepare(_random_genome(bounds, rng)))
    population = population[: config.population]

    gen_wall_s: List[float] = []
    gen_evaluations: List[int] = []

    def telemetry(gen: int, evals: int, wall_s: float, scored_gen) -> None:
        gen_wall_s.append(wall_s)
        gen_evaluations.append(evals)
        rec = _obs.TRACE
        if rec is not None:
            fits = [f for f, _ in scored_gen]
            rec.emit(
                EventType.GA_GENERATION,
                gen=gen,
                best=max(fits),
                mean=sum(fits) / len(fits),
                evals=evals,
                gen_wall_s=wall_s,
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.histogram(
                "repro_ga_generation_seconds",
                "wall time per GA generation",
            ).observe(wall_s)
            metrics.counter(
                "repro_ga_evaluations_total",
                "GA fitness evaluations",
            ).inc(evals)

    t0 = time.perf_counter()
    scored = [(fitness(g), g) for g in population]
    scored.sort(key=lambda t: t[0], reverse=True)
    telemetry(0, len(population), time.perf_counter() - t0, scored)
    best_fit, best_genome = scored[0]
    history = [best_fit]
    stall = 0
    gens_run = 0

    for _ in range(config.generations):
        gens_run += 1
        t0 = time.perf_counter()
        next_gen: List[Genome] = [g for _, g in scored[: config.elitism]]
        while len(next_gen) < config.population:
            parent_a = _tournament(scored, config.tournament_k, rng)
            if rng.random() < config.crossover_rate:
                parent_b = _tournament(scored, config.tournament_k, rng)
                child = _crossover(parent_a, parent_b, rng)
            else:
                child = parent_a  # _mutate copies
            child = _mutate(child, bounds, config.mutation_rate, rng)
            next_gen.append(prepare(child))
        scored = [(fitness(g), g) for g in next_gen]
        scored.sort(key=lambda t: t[0], reverse=True)
        if scored[0][0] > best_fit:
            best_fit, best_genome = scored[0]
            stall = 0
        else:
            stall += 1
        history.append(best_fit)
        telemetry(gens_run, len(next_gen), time.perf_counter() - t0, scored)
        if config.patience and stall >= config.patience:
            break

    rec = _obs.TRACE
    if rec is not None:
        rec.emit(
            EventType.GA_DONE,
            generations=gens_run,
            best=best_fit,
            evals=sum(gen_evaluations),
        )
    logger.info(
        "GA finished: %d generations, best fitness %.6g, %d evaluations",
        gens_run,
        best_fit,
        sum(gen_evaluations),
    )
    return GAResult(
        best_genome=best_genome.tolist(),
        best_fitness=best_fit,
        generations_run=gens_run,
        history=history,
        gen_wall_s=gen_wall_s,
        gen_evaluations=gen_evaluations,
    )
