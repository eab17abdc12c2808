"""Generational GA over patch genomes.

Fitness is minimized (mean runtime in seconds). The loop is fully
deterministic given the seed: a single random.Random instance drives every
stochastic decision in a fixed order, and fitness evaluation never touches
it. An integer draw below n is inlined as getrandbits(n.bit_length()), redrawn
while >= n: the loop that CPython's choice, randrange and randint run for the
arguments used here, so the stream is theirs, without their call frames;
tests/test_evolution.py::test_direct_draws_match_the_public_random_methods
guards that. Each generation is scored in one batch: FitnessFn takes the
whole population's pass sequences and returns one fitness per sequence, in
order, so a backend can score them together. Tournament selection,
one-point crossover and a mixed mutation operator (gene edits plus
append/remove structural edits) are deliberately plain; all rates and sizes
live in GAConfig and none of the defaults is canonical.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable

from .catalog import PassCatalog, PassSequence
from .patches import _DELETION, Individual, Patch, PatchType, _trusted_individual, _trusted_patch, apply_individual

POSITION_JITTER_SCALE = 0.1
_PATCH_TYPES = (PatchType.INSERTION, _DELETION, PatchType.REPLACEMENT)


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 50
    generations: int = 25
    crossover_rate: float = 0.9
    mutation_rate: float = 0.3
    per_gene_mutation_rate: float = 0.2
    tournament_size: int = 2
    elitism_count: int = 1
    init_genome_len_min: int = 1
    init_genome_len_max: int = 8
    max_genome_len: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("crossover_rate", "mutation_rate", "per_gene_mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValueError("elitism_count must be in [0, population_size)")
        if not 1 <= self.init_genome_len_min <= self.init_genome_len_max <= self.max_genome_len:
            raise ValueError("need 1 <= init_genome_len_min <= init_genome_len_max <= max_genome_len")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_individual: Individual


FitnessFn = Callable[[list[PassSequence]], list[float]]
ProgressFn = Callable[[GenerationRecord], None]


def random_patch(catalog: PassCatalog, rng: random.Random) -> Patch:
    """Draw a uniformly random valid patch over the catalog."""
    getrandbits, passes = rng.getrandbits, catalog.passes
    t = getrandbits(2)
    while t >= 3:
        t = getrandbits(2)
    ptype, position = _PATCH_TYPES[t], rng.random()
    if ptype is _DELETION:
        return _trusted_patch(ptype, position, None)
    n, bits = len(passes), len(passes).bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    return _trusted_patch(ptype, position, passes[i])


def init_population(cfg: GAConfig, catalog: PassCatalog, rng: random.Random) -> list[Individual]:
    population = []
    lo, n = cfg.init_genome_len_min, cfg.init_genome_len_max - cfg.init_genome_len_min + 1
    getrandbits, bits = rng.getrandbits, n.bit_length()
    for _ in range(cfg.population_size):
        extra = getrandbits(bits)
        while extra >= n:
            extra = getrandbits(bits)
        population.append(_trusted_individual(tuple(random_patch(catalog, rng) for _ in range(lo + extra))))
    return population


def tournament_select(
    population: list[Individual],
    fitnesses: list[float],
    k: int,
    rng: random.Random,
) -> Individual:
    """Sample k with replacement, return the fittest; ties keep the earliest sample."""
    getrandbits, n, bits = rng.getrandbits, len(population), len(population).bit_length()
    best_i = getrandbits(bits)
    while best_i >= n:
        best_i = getrandbits(bits)
    for _ in range(k - 1):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        if fitnesses[i] < fitnesses[best_i]:
            best_i = i
    return population[best_i]


def crossover(
    a: Individual, b: Individual, rng: random.Random, max_len: int
) -> tuple[Individual, Individual]:
    """One-point crossover; each child truncated to max_len genes."""
    getrandbits, na, nb = rng.getrandbits, len(a) + 1, len(b) + 1
    bits_a, bits_b = na.bit_length(), nb.bit_length()
    ca = getrandbits(bits_a)
    while ca >= na:
        ca = getrandbits(bits_a)
    cb = getrandbits(bits_b)
    while cb >= nb:
        cb = getrandbits(bits_b)
    child1 = (a.patches[:ca] + b.patches[cb:])[:max_len]
    child2 = (b.patches[:cb] + a.patches[ca:])[:max_len]
    return _trusted_individual(child1), _trusted_individual(child2)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _edit_gene(gene: Patch, catalog: PassCatalog, rng: random.Random) -> Patch:
    """Retype, move or revalue one gene; every part comes from `gene`, the catalog or _clamp01."""
    getrandbits, ptype = rng.getrandbits, gene.ptype
    kind = getrandbits(2)
    while kind >= 3:
        kind = getrandbits(2)
    if kind == 1:
        position = _clamp01(gene.position + rng.gauss(0.0, POSITION_JITTER_SCALE))
        return _trusted_patch(ptype, position, gene.value)
    if kind == 0:
        t = getrandbits(2)
        while t >= 3:
            t = getrandbits(2)
        ptype = _PATCH_TYPES[t]
        if ptype is _DELETION:
            return _trusted_patch(ptype, gene.position, None)
        if gene.value is not None:
            return _trusted_patch(ptype, gene.position, gene.value)
    elif gene.value is None:
        return gene
    passes = catalog.passes
    n, bits = len(passes), len(passes).bit_length()
    i = getrandbits(bits)
    while i >= n:
        i = getrandbits(bits)
    return _trusted_patch(ptype, gene.position, passes[i])


def mutate(ind: Individual, catalog: PassCatalog, cfg: GAConfig, rng: random.Random) -> Individual:
    """Maybe rewrite genes and append/remove one, per the configured rates."""
    rand, rate = rng.random, cfg.per_gene_mutation_rate
    if rand() >= cfg.mutation_rate:
        return ind
    genes = [_edit_gene(g, catalog, rng) if rand() < rate else g for g in ind.patches]
    if rand() < rate:
        # GAConfig keeps max_genome_len >= 1, so an empty genome always appends
        if len(genes) < cfg.max_genome_len and (not genes or rand() < 0.5):
            genes.append(random_patch(catalog, rng))
        else:
            getrandbits, n, bits = rng.getrandbits, len(genes), len(genes).bit_length()
            i = getrandbits(bits)
            while i >= n:
                i = getrandbits(bits)
            del genes[i]
    return _trusted_individual(tuple(genes))


def evolve(
    cfg: GAConfig,
    baseline: PassSequence,
    catalog: PassCatalog,
    fitness_fn: FitnessFn,
    progress: ProgressFn | None = None,
) -> list[GenerationRecord]:
    """Run the generational loop; returns one record per generation, in order.
    The run's best-ever is min(history, key=lambda r: r.best_fitness).

    fitness_fn scores each generation in one call (module docstring); a result
    of another length, or with a NaN mean, is a ValueError. It must be total:
    failed evaluations come back as a penalty value, never as an exception, so
    one broken candidate cannot abort the run.
    """
    rng = random.Random(cfg.rng_seed)
    population = init_population(cfg, catalog, rng)
    history: list[GenerationRecord] = []

    for generation in range(cfg.generations):
        fitnesses = fitness_fn([apply_individual(baseline, ind) for ind in population])
        if len(fitnesses) != len(population):
            raise ValueError(f"fitness_fn returned {len(fitnesses)} values for {len(population)} sequences")
        # left to right, as sum() added floats before CPython 3.12, so every version writes the same bytes
        mean_fitness = functools.reduce(operator.add, fitnesses, 0.0) / len(fitnesses)
        if math.isnan(mean_fitness):
            raise ValueError("fitness_fn returned NaN, or both +inf and -inf, in one batch")
        gen_best = min(range(len(population)), key=fitnesses.__getitem__)
        # that sum can round a few ulps outside the batch (twelve 1.2s give 1.1999999999999997)
        mean_fitness = min(max(mean_fitness, fitnesses[gen_best]), max(fitnesses))
        record = GenerationRecord(
            generation=generation,
            best_fitness=fitnesses[gen_best],
            mean_fitness=mean_fitness,
            best_individual=population[gen_best],
        )
        history.append(record)
        if progress is not None:
            progress(record)
        if generation == cfg.generations - 1:
            break

        elites = heapq.nsmallest(cfg.elitism_count, range(len(population)), key=fitnesses.__getitem__)
        next_population = [population[i] for i in elites]
        while len(next_population) < cfg.population_size:
            parent1 = tournament_select(population, fitnesses, cfg.tournament_size, rng)
            parent2 = tournament_select(population, fitnesses, cfg.tournament_size, rng)
            if rng.random() < cfg.crossover_rate:
                child1, child2 = crossover(parent1, parent2, rng, cfg.max_genome_len)
            else:
                child1, child2 = parent1, parent2
            # the loop's guard leaves room for the first child
            next_population.append(mutate(child1, catalog, cfg, rng))
            if len(next_population) < cfg.population_size:
                next_population.append(mutate(child2, catalog, cfg, rng))
        population = next_population

    return history
