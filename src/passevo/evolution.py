"""Generational GA over patch genomes.

Fitness is minimized (mean runtime in seconds). The loop is fully
deterministic given the seed: a single random.Random instance drives every
stochastic decision in a fixed order, and fitness evaluation never touches
it. Tournament selection, one-point crossover and a mixed mutation operator
(gene edits plus append/remove structural edits) are deliberately plain; all
rates and sizes live in GAConfig and none of the defaults is canonical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .catalog import PassCatalog, PassSequence
from .patches import Individual, Patch, PatchType, _trusted_patch, apply_individual

POSITION_JITTER_SCALE = 0.1


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


FitnessFn = Callable[[PassSequence], float]
ProgressFn = Callable[[GenerationRecord], None]


def random_patch(catalog: PassCatalog, rng: random.Random) -> Patch:
    """Draw a uniformly random valid patch over the catalog."""
    ptype = rng.choice((PatchType.INSERTION, PatchType.DELETION, PatchType.REPLACEMENT))
    position = rng.random()
    value = rng.choice(catalog.passes) if ptype is not PatchType.DELETION else None
    return _trusted_patch(ptype, position, value)


def init_population(cfg: GAConfig, catalog: PassCatalog, rng: random.Random) -> list[Individual]:
    population = []
    for _ in range(cfg.population_size):
        length = rng.randint(cfg.init_genome_len_min, cfg.init_genome_len_max)
        population.append(Individual(tuple(random_patch(catalog, rng) for _ in range(length))))
    return population


def tournament_select(
    population: list[Individual],
    fitnesses: list[float],
    k: int,
    rng: random.Random,
) -> Individual:
    """Sample k with replacement, return the fittest; ties keep the earliest sample."""
    best_i = rng.randrange(len(population))
    for _ in range(k - 1):
        i = rng.randrange(len(population))
        if fitnesses[i] < fitnesses[best_i]:
            best_i = i
    return population[best_i]


def crossover(
    a: Individual, b: Individual, rng: random.Random, max_len: int
) -> tuple[Individual, Individual]:
    """One-point crossover; each child truncated to max_len genes."""
    ca = rng.randint(0, len(a))
    cb = rng.randint(0, len(b))
    child1 = (a.patches[:ca] + b.patches[cb:])[:max_len]
    child2 = (b.patches[:cb] + a.patches[ca:])[:max_len]
    return Individual(child1), Individual(child2)


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _edit_gene(gene: Patch, catalog: PassCatalog, rng: random.Random) -> Patch:
    """Retype, move or revalue one gene; every part comes from `gene`, the catalog or _clamp01."""
    kind = rng.randrange(3)
    if kind == 0:
        new_type = rng.choice((PatchType.INSERTION, PatchType.DELETION, PatchType.REPLACEMENT))
        if new_type is PatchType.DELETION:
            return _trusted_patch(new_type, gene.position, None)
        value = gene.value if gene.value is not None else rng.choice(catalog.passes)
        return _trusted_patch(new_type, gene.position, value)
    if kind == 1:
        position = _clamp01(gene.position + rng.gauss(0.0, POSITION_JITTER_SCALE))
        return _trusted_patch(gene.ptype, position, gene.value)
    if gene.value is None:
        return gene
    return _trusted_patch(gene.ptype, gene.position, rng.choice(catalog.passes))


def mutate(ind: Individual, catalog: PassCatalog, cfg: GAConfig, rng: random.Random) -> Individual:
    """Maybe rewrite genes and append/remove one, per the configured rates."""
    if rng.random() >= cfg.mutation_rate:
        return ind
    genes = [
        _edit_gene(g, catalog, rng) if rng.random() < cfg.per_gene_mutation_rate else g
        for g in ind.patches
    ]
    if rng.random() < cfg.per_gene_mutation_rate:
        can_append = len(genes) < cfg.max_genome_len
        can_remove = len(genes) > 0
        if can_append and (not can_remove or rng.random() < 0.5):
            genes.append(random_patch(catalog, rng))
        elif can_remove:
            del genes[rng.randrange(len(genes))]
    return Individual(tuple(genes))


def evolve(
    cfg: GAConfig,
    baseline: PassSequence,
    catalog: PassCatalog,
    fitness_fn: FitnessFn,
    progress: ProgressFn | None = None,
) -> list[GenerationRecord]:
    """Run the generational loop; returns one record per generation, in order.
    The run's best-ever is min(history, key=lambda r: r.best_fitness).

    fitness_fn must be total: failed evaluations come back as a penalty value,
    never as an exception, so one broken candidate cannot abort the run.
    """
    rng = random.Random(cfg.rng_seed)
    population = init_population(cfg, catalog, rng)
    history: list[GenerationRecord] = []

    for generation in range(cfg.generations):
        fitnesses = [fitness_fn(apply_individual(baseline, ind)) for ind in population]
        gen_best = min(range(len(population)), key=lambda i: fitnesses[i])
        record = GenerationRecord(
            generation=generation,
            best_fitness=fitnesses[gen_best],
            mean_fitness=sum(fitnesses) / len(fitnesses),
            best_individual=population[gen_best],
        )
        history.append(record)
        if progress is not None:
            progress(record)
        if generation == cfg.generations - 1:
            break

        ranked = sorted(range(len(population)), key=lambda i: fitnesses[i])
        next_population = [population[i] for i in ranked[: cfg.elitism_count]]
        while len(next_population) < cfg.population_size:
            parent1 = tournament_select(population, fitnesses, cfg.tournament_size, rng)
            parent2 = tournament_select(population, fitnesses, cfg.tournament_size, rng)
            if rng.random() < cfg.crossover_rate:
                child1, child2 = crossover(parent1, parent2, rng, cfg.max_genome_len)
            else:
                child1, child2 = parent1, parent2
            for child in (child1, child2):
                if len(next_population) < cfg.population_size:
                    next_population.append(mutate(child, catalog, cfg, rng))
        population = next_population

    return history
