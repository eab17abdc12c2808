import csv
import hashlib
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from passevo.evolution import (
    GAConfig,
    crossover,
    evolve,
    init_population,
    mutate,
    random_patch,
    tournament_select,
)
from passevo.fitness import SimModel, perturb_sequence, simulated_fitnesses
from passevo.patches import (
    Individual,
    Patch,
    PatchType,
    apply_individual,
    parse_individual,
    serialize_individual,
)

from conftest import make_catalog, make_sequence


# --- the draw stream -----------------------------------------------------------

def inline_below(rng, n):
    """The integer draw below n that evolution.py writes inline."""
    getrandbits, bits = rng.getrandbits, n.bit_length()
    x = getrandbits(bits)
    while x >= n:
        x = getrandbits(bits)
    return x


@settings(max_examples=300)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(["choice", "randrange", "randint"]),
            st.sampled_from(["_randbelow", "inline"]),
            st.integers(1, 300) | st.sampled_from([2**j for j in range(12)]),
            st.integers(0, 40),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_direct_draws_match_the_public_random_methods(seed, draws):
    # An integer draw below n, through Random._randbelow or the inline getrandbits
    # loop of evolution.py, in the three forms below, must give, in order, what
    # the public method gives on a twin generator; n = 1 and powers of two are
    # the edges of the rejection loop.
    direct, public = random.Random(seed), random.Random(seed)
    for form, drawer, n, a in draws:
        below = direct._randbelow if drawer == "_randbelow" else lambda n: inline_below(direct, n)
        if form == "choice":
            seq = tuple(f"-p{i}" for i in range(n))
            got, want = seq[below(len(seq))], public.choice(seq)
        elif form == "randrange":
            got, want = below(n), public.randrange(n)
        else:
            b = a + n - 1
            got, want = a + below(b - a + 1), public.randint(a, b)
        assert got == want, (form, drawer, n, a)
    assert direct.getstate() == public.getstate()


def check_patch_valid(patch, catalog):
    assert 0.0 <= patch.position <= 1.0
    if patch.ptype is PatchType.DELETION:
        assert patch.value is None
    else:
        assert patch.value in catalog


# --- GAConfig ----------------------------------------------------------------

def test_gaconfig_defaults_valid():
    GAConfig()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 0},
        {"generations": 0},
        {"crossover_rate": 1.5},
        {"mutation_rate": -0.1},
        {"tournament_size": 1},
        {"elitism_count": 50},
        {"init_genome_len_min": 0},
        {"init_genome_len_min": 9, "init_genome_len_max": 8},
        {"init_genome_len_max": 64, "max_genome_len": 32},
        {"rng_seed": 2**64},
    ],
)
def test_gaconfig_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GAConfig(**kwargs)


# --- random_patch ------------------------------------------------------------

def test_random_patch_single_pass_catalog():
    catalog = make_catalog(1)
    rng = random.Random(3)
    for _ in range(20):
        patch = random_patch(catalog, rng)
        check_patch_valid(patch, catalog)
        if patch.ptype is not PatchType.DELETION:
            assert patch.value == catalog.passes[0]


def test_random_patch_valid_and_deterministic():
    catalog = make_catalog(6)
    rng_a, rng_b = random.Random(11), random.Random(11)
    first = [random_patch(catalog, rng_a) for _ in range(50)]
    second = [random_patch(catalog, rng_b) for _ in range(50)]
    assert first == second
    for patch in first:
        check_patch_valid(patch, catalog)
    assert {p.ptype for p in first} == set(PatchType)


# --- init_population ---------------------------------------------------------

def test_init_population_degenerate_length_range():
    cfg = GAConfig(population_size=3, init_genome_len_min=1, init_genome_len_max=1)
    population = init_population(cfg, make_catalog(4), random.Random(0))
    assert len(population) == 3
    assert all(len(ind) == 1 for ind in population)


def test_init_population_deterministic_and_bounded():
    cfg = GAConfig(population_size=20, init_genome_len_min=2, init_genome_len_max=5)
    catalog = make_catalog(6)
    pop1 = init_population(cfg, catalog, random.Random(9))
    pop2 = init_population(cfg, catalog, random.Random(9))
    assert pop1 == pop2
    for ind in pop1:
        assert cfg.init_genome_len_min <= len(ind) <= cfg.init_genome_len_max
        for patch in ind:
            check_patch_valid(patch, catalog)


# --- tournament_select -------------------------------------------------------

def test_tournament_population_of_one():
    only = Individual((Patch(PatchType.DELETION, 0.5),))
    assert tournament_select([only], [2.5], 2, random.Random(0)) is only


def test_tournament_full_sampling_finds_global_best():
    population = [Individual((Patch(PatchType.DELETION, i / 10),)) for i in range(4)]
    fitnesses = [4.0, 2.0, 1.0, 3.0]
    # k large enough that every index is sampled with near-certainty
    winner = tournament_select(population, fitnesses, 64, random.Random(5))
    assert winner is population[2]


def test_tournament_winner_not_worse_than_any_sample():
    # distinct genomes on three fitness values: ties decide by the order of the draws
    rng = random.Random(17)
    population = [Individual((Patch(PatchType.DELETION, i / 10),)) for i in range(10)]
    fitnesses = [float(rng.randrange(3)) for _ in range(10)]
    for _ in range(100):
        twin = random.Random()
        twin.setstate(rng.getstate())
        sampled = [inline_below(twin, len(population)) for _ in range(3)]
        winner = tournament_select(population, fitnesses, 3, rng)
        # min keeps the first of equal keys: the first-drawn of the fittest sampled
        assert winner is population[min(sampled, key=fitnesses.__getitem__)]
        assert all(fitnesses[population.index(winner)] <= fitnesses[i] for i in sampled)
        assert rng.getstate() == twin.getstate()


# --- crossover ---------------------------------------------------------------

def patch_of(name: str) -> Patch:
    return Patch(PatchType.INSERTION, 0.5, name)


def test_crossover_hand_traced_cut():
    a = Individual((patch_of("-p0"), patch_of("-p1")))
    b = Individual((patch_of("-p2"),))
    # scan seeds for the documented cut points ca=1, cb=0
    for seed in range(1000):
        rng = random.Random(seed)
        if rng.randint(0, 2) == 1 and rng.randint(0, 1) == 0:
            child1, child2 = crossover(a, b, random.Random(seed), max_len=32)
            assert child1.patches == (patch_of("-p0"), patch_of("-p2"))
            assert child2.patches == (patch_of("-p1"),)
            return
    pytest.fail("no seed produced cut points (1, 0)")


def test_crossover_empty_parents():
    child1, child2 = crossover(Individual(), Individual(), random.Random(0), max_len=32)
    assert child1.patches == () and child2.patches == ()


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_crossover_conserves_genes(len_a, len_b, seed):
    a = Individual(tuple(patch_of(f"-a{i}") for i in range(len_a)))
    b = Individual(tuple(patch_of(f"-b{i}") for i in range(len_b)))
    child1, child2 = crossover(a, b, random.Random(seed), max_len=64)
    assert len(child1) + len(child2) == len(a) + len(b)
    assert sorted(p.value for p in child1.patches + child2.patches) == sorted(
        p.value for p in a.patches + b.patches
    )


def test_crossover_truncates_to_max_len():
    a = Individual(tuple(patch_of(f"-a{i}") for i in range(8)))
    b = Individual(tuple(patch_of(f"-b{i}") for i in range(8)))
    for seed in range(20):
        child1, child2 = crossover(a, b, random.Random(seed), max_len=4)
        assert len(child1) <= 4 and len(child2) <= 4


# --- mutate ------------------------------------------------------------------

def test_mutate_rate_zero_is_identity():
    catalog = make_catalog(5)
    cfg = GAConfig(mutation_rate=0.0)
    ind = Individual(tuple(random_patch(catalog, random.Random(1)) for _ in range(5)))
    assert mutate(ind, catalog, cfg, random.Random(0)) == ind


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10))
def test_mutate_output_valid(seed, genome_len):
    catalog = make_catalog(6)
    cfg = GAConfig(mutation_rate=1.0, per_gene_mutation_rate=0.5, max_genome_len=12)
    rng = random.Random(seed)
    ind = Individual(tuple(random_patch(catalog, rng) for _ in range(genome_len)))
    out = mutate(ind, catalog, cfg, rng)
    assert len(out) <= cfg.max_genome_len
    for patch in out:
        check_patch_valid(patch, catalog)


def test_mutate_deterministic():
    catalog = make_catalog(6)
    cfg = GAConfig(mutation_rate=1.0, per_gene_mutation_rate=0.9)
    ind = Individual(tuple(random_patch(catalog, random.Random(2)) for _ in range(6)))
    assert mutate(ind, catalog, cfg, random.Random(5)) == mutate(ind, catalog, cfg, random.Random(5))


def test_mutate_respects_max_genome_len_when_full():
    catalog = make_catalog(4)
    cfg = GAConfig(mutation_rate=1.0, per_gene_mutation_rate=1.0,
                   init_genome_len_max=3, max_genome_len=3)
    ind = Individual(tuple(random_patch(catalog, random.Random(4)) for _ in range(3)))
    for seed in range(50):
        assert len(mutate(ind, catalog, cfg, random.Random(seed))) <= 3


# --- evolve ------------------------------------------------------------------

def hidden_target_setup():
    catalog = make_catalog(16)
    baseline = make_sequence(catalog, range(10))
    target = perturb_sequence(baseline, catalog, 2, random.Random(0))
    model = SimModel(target=target, base_runtime=1.0)
    return catalog, baseline, model


def test_evolve_degenerate_single_individual():
    catalog = make_catalog(4)
    baseline = make_sequence(catalog, [0, 1])
    cfg = GAConfig(population_size=1, generations=1, elitism_count=0, rng_seed=5)
    initial = init_population(cfg, catalog, random.Random(5))
    history = evolve(cfg, baseline, catalog, lambda seqs: [float(len(seq)) for seq in seqs])
    assert len(history) == 1
    assert history[0].best_individual == initial[0]


def test_evolve_hidden_target_regression():
    catalog, baseline, model = hidden_target_setup()
    cfg = GAConfig(population_size=30, generations=30, rng_seed=42)
    history = evolve(cfg, baseline, catalog, lambda seqs: simulated_fitnesses(seqs, model))
    # frozen outcome of this exact seeded run
    assert history[0].best_fitness == 1.2
    best = min(history, key=lambda r: r.best_fitness)
    assert best.best_fitness == 1.1
    assert simulated_fitnesses([apply_individual(baseline, best.best_individual)], model)[0] == 1.1


def test_evolve_history_shape_and_monotone_best():
    catalog, baseline, model = hidden_target_setup()
    cfg = GAConfig(population_size=20, generations=12, elitism_count=1, rng_seed=3)
    records = evolve(cfg, baseline, catalog, lambda seqs: simulated_fitnesses(seqs, model))
    assert len(records) == cfg.generations
    assert [r.generation for r in records] == list(range(cfg.generations))
    for earlier, later in zip(records, records[1:]):
        assert later.best_fitness <= earlier.best_fitness
        assert later.mean_fitness >= later.best_fitness


def test_evolve_mean_adds_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so left to right the batch adds to 0.0; the
    # compensated sum() of CPython 3.12+ gives 1.0, and a mean of 1/3
    catalog, baseline, _ = hidden_target_setup()
    cfg = GAConfig(population_size=3, generations=1, rng_seed=1)
    history = evolve(cfg, baseline, catalog, lambda seqs: [1e16, 1.0, -1e16])
    assert history[0].mean_fitness == 0.0


@pytest.mark.parametrize("population", [12, 50])
def test_evolve_mean_stays_inside_the_generation(population):
    # twelve 1.2s add to a mean of 1.1999999999999997 left to right, and fifty to 1.200000000000001
    catalog, baseline, _ = hidden_target_setup()
    cfg = GAConfig(population_size=population, generations=2, rng_seed=1)
    history = evolve(cfg, baseline, catalog, lambda seqs: [1.2] * len(seqs))
    assert [(r.best_fitness, r.mean_fitness) for r in history] == [(1.2, 1.2)] * 2


def test_evolve_fully_deterministic():
    catalog, baseline, model = hidden_target_setup()
    cfg = GAConfig(population_size=15, generations=8, rng_seed=77)
    fn = lambda seqs: simulated_fitnesses(seqs, model)
    assert evolve(cfg, baseline, catalog, fn) == evolve(cfg, baseline, catalog, fn)


def test_evolve_fitness_call_budget():
    # one batch per generation, of the whole population's pipelines in order
    catalog, baseline, model = hidden_target_setup()
    batches = []

    def counting_fitness(seqs):
        batches.append(seqs)
        return simulated_fitnesses(seqs, model)

    cfg = GAConfig(population_size=10, generations=5, rng_seed=1)
    history = evolve(cfg, baseline, catalog, counting_fitness)
    assert [len(batch) for batch in batches] == [cfg.population_size] * cfg.generations
    for batch, record in zip(batches, history):
        best = apply_individual(baseline, record.best_individual)
        assert best in batch and min(simulated_fitnesses(batch, model)) == record.best_fitness


@pytest.mark.parametrize("extra", [-1, 1])
def test_evolve_rejects_a_fitness_batch_of_the_wrong_length(extra):
    catalog, baseline, _ = hidden_target_setup()
    cfg = GAConfig(population_size=6, generations=2, rng_seed=1)
    with pytest.raises(ValueError, match=f"returned {6 + extra} values for 6 sequences"):
        evolve(cfg, baseline, catalog, lambda seqs: [1.0] * (len(seqs) + extra))


@pytest.mark.parametrize("bad", [
    [float("nan")],
    [float("nan"), float("inf")],
    [float("inf"), float("-inf")],
])
@pytest.mark.parametrize("at_generation", [0, 2])
def test_evolve_rejects_a_fitness_batch_with_a_nan_mean(bad, at_generation):
    # min, the tournament's < and the elites' order are all undefined on NaN
    catalog, baseline, _ = hidden_target_setup()
    cfg = GAConfig(population_size=6, generations=4, rng_seed=1)
    batches = []

    def fitness(seqs):
        batches.append(seqs)
        tail = bad if len(batches) - 1 == at_generation else [float("inf")] * len(bad)
        return [1.0] * (len(seqs) - len(bad)) + tail

    with pytest.raises(ValueError, match=r"returned NaN, or both \+inf and -inf, in one batch"):
        evolve(cfg, baseline, catalog, fitness)
    assert len(batches) == at_generation + 1


def test_evolve_genomes_bounded_every_generation():
    catalog, baseline, model = hidden_target_setup()
    cfg = GAConfig(population_size=12, generations=10, max_genome_len=6,
                   init_genome_len_min=1, init_genome_len_max=6, rng_seed=13)
    history = evolve(cfg, baseline, catalog, lambda seqs: simulated_fitnesses(seqs, model))
    for record in history:
        assert len(record.best_individual) <= cfg.max_genome_len
        for patch in record.best_individual:
            check_patch_valid(patch, catalog)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ga_built_genes_pass_the_public_checks(seed):
    # random_patch and _edit_gene skip Patch validation; every gene they build
    # must still be one the public constructor and the parser accept
    catalog, baseline, model = hidden_target_setup()
    cfg = GAConfig(population_size=12, generations=15, mutation_rate=1.0,
                   per_gene_mutation_rate=1.0, rng_seed=seed)
    history = evolve(cfg, baseline, catalog, lambda seqs: simulated_fitnesses(seqs, model))
    genes = 0
    for record in history:
        ind = record.best_individual
        for gene in ind:
            assert type(gene) is Patch
            assert Patch(gene.ptype, gene.position, gene.value) == gene
            check_patch_valid(gene, catalog)
            genes += 1
        assert parse_individual(serialize_individual(ind), catalog) == ind
    assert genes > 0


# --- pinned histories ----------------------------------------------------------

# Configurations that the demo pins never reach: no elites or several among
# tied fitnesses, larger tournaments, a population of one, one-gene genomes
# and a one-pass catalog. Each digest is the sha256 of render_history's text,
# so a change to any draw site or to the elites' tie order changes it.
HISTORY_DIGESTS = json.loads((Path(__file__).parent / "evolve_history_digests.json").read_text("utf-8"))
PINNED_RUNS = {  # name: GAConfig overrides, fitness, catalog size
    "elitism-0-tied": (dict(elitism_count=0), "constant", 16),
    "elitism-3-tied": (dict(elitism_count=3), "constant", 16),
    "elitism-3-three-levels": (dict(elitism_count=3), "three-levels", 16),
    "tournament-2": (dict(tournament_size=2), "simulated", 16),
    "tournament-5": (dict(tournament_size=5), "simulated", 16),
    "population-1": (dict(population_size=1, elitism_count=0, mutation_rate=1.0), "simulated", 16),
    "max-genome-len-1": (dict(init_genome_len_max=1, max_genome_len=1, mutation_rate=1.0), "simulated", 16),
    "one-pass-catalog": (dict(mutation_rate=1.0), "three-levels", 1),
}


def _pinned_run(name):
    overrides, fitness, catalog_size = PINNED_RUNS[name]
    catalog, baseline, model = hidden_target_setup()
    if catalog_size == 1:
        catalog = make_catalog(1)
        baseline = make_sequence(catalog, [0, 0, 0])
    fitness_fns = {
        "constant": lambda seqs: [1.0] * len(seqs),
        # three levels, so most of a generation ties with someone
        "three-levels": lambda seqs: [float(len(seq) % 3) for seq in seqs],
        "simulated": lambda seqs: simulated_fitnesses(seqs, model),
    }
    base = dict(population_size=8, generations=6, mutation_rate=0.8, per_gene_mutation_rate=0.5, rng_seed=11)
    return GAConfig(**{**base, **overrides}), baseline, catalog, fitness_fns[fitness]


def render_history(cfg, baseline, catalog, fitness):
    """history.csv's rows, each with its best genome and every pipeline the generation scored."""
    batches = []

    def recording_fitness(seqs):
        batches.append(seqs)
        return fitness(seqs)

    history = evolve(cfg, baseline, catalog, recording_fitness)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["generation", "best_fitness", "mean_fitness", "best_individual", "pipelines"])
    for record, batch in zip(history, batches, strict=True):
        writer.writerow([
            record.generation, repr(record.best_fitness), repr(record.mean_fitness),
            serialize_individual(record.best_individual), "|".join(" ".join(seq.passes) for seq in batch),
        ])
    return out.getvalue()


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_evolve_history_is_pinned(name):
    text = render_history(*_pinned_run(name))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == HISTORY_DIGESTS[name]
