import dataclasses
import sys
from pathlib import Path

import pytest

from passevo.catalog import PassCatalog, PassSequence, serialize_catalog, serialize_sequence
from passevo.fitness import BackendConfig

FAKE_TOOL = Path(__file__).parent / "fake_toolchain.py"


def make_catalog(n: int, prefix: str = "p") -> PassCatalog:
    return PassCatalog(tuple(f"-{prefix}{i}" for i in range(n)))


def make_sequence(catalog: PassCatalog, indices) -> PassSequence:
    return PassSequence(tuple(catalog.passes[i] for i in indices))


def assert_trusted_is_public(trusted, public) -> None:
    """A trusted constructor's object must be the public constructor's:
    equal, same hash and repr, slotted, and frozen in every field."""
    assert type(trusted) is type(public)
    assert not hasattr(trusted, "__dict__") and not hasattr(public, "__dict__")
    assert trusted == public
    assert hash(trusted) == hash(public)
    assert repr(trusted) == repr(public)
    for f in dataclasses.fields(trusted):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trusted, f.name, getattr(public, f.name))


@pytest.fixture
def catalog6() -> PassCatalog:
    return make_catalog(6)


def write_test_inputs(dir_path: Path, catalog_size: int = 16, baseline_len: int = 10):
    """Write a small catalog and baseline to files; return paths and objects."""
    dir_path.mkdir(parents=True, exist_ok=True)
    catalog = make_catalog(catalog_size)
    baseline = make_sequence(catalog, range(baseline_len))
    catalog_path = dir_path / "catalog.txt"
    baseline_path = dir_path / "baseline.txt"
    catalog_path.write_text(serialize_catalog(catalog), "utf-8")
    baseline_path.write_text(serialize_sequence(baseline), "utf-8")
    return catalog_path, baseline_path, catalog, baseline


def fake_backend(tmp_path: Path, behavior: str = "ok", **kwargs) -> BackendConfig:
    """External-compiler config wired to the fake toolchain script."""
    source = tmp_path / "program.src"
    source.write_text(behavior + "\n")
    defaults = dict(
        kind="external_compiler",
        source_path=str(source),
        compiler_front_command=f"{sys.executable} {FAKE_TOOL} front {{source}} {{ir}}",
        optimizer_command=f"{sys.executable} {FAKE_TOOL} opt {{ir}} {{output}} {{passes}}",
        linker_command=f"{sys.executable} {FAKE_TOOL} link {{ir}} {{output}}",
        runs_per_eval=2,
        run_timeout=10.0,
        compile_timeout=30.0,
    )
    defaults.update(kwargs)
    return BackendConfig(**defaults)


def sim_config_text(
    catalog_path,
    baseline_path,
    output_dir,
    trials: int = 2,
    seeds: str = "",
    population_size: int = 12,
    generations: int = 6,
    rng_seed: int = 42,
    sim_target_edits: int = 2,
    sim_base_runtime: float = 1.0,
    extra_backend: str = "",
) -> str:
    seeds_line = f"seeds = {seeds}\n" if seeds else ""
    return (
        "[experiment]\n"
        f"catalog_path = {catalog_path}\n"
        f"baseline_path = {baseline_path}\n"
        f"trials = {trials}\n"
        f"output_dir = {output_dir}\n"
        f"{seeds_line}"
        "\n[ga]\n"
        f"population_size = {population_size}\n"
        f"generations = {generations}\n"
        f"rng_seed = {rng_seed}\n"
        "\n[backend]\n"
        "kind = simulated\n"
        f"sim_base_runtime = {sim_base_runtime}\n"
        f"sim_target_edits = {sim_target_edits}\n"
        "sim_target_seed = 0\n"
        f"{extra_backend}"
    )


def external_config_text(
    tmp_path: Path,
    catalog_path,
    baseline_path,
    output_dir,
    behavior: str = "ok",
    runs_per_eval: int = 2,
    run_timeout: float = 10.0,
    trials: int = 1,
    generations: int = 2,
    population_size: int = 4,
) -> str:
    source = tmp_path / "program.src"
    source.write_text(behavior + "\n")
    return (
        "[experiment]\n"
        f"catalog_path = {catalog_path}\n"
        f"baseline_path = {baseline_path}\n"
        f"trials = {trials}\n"
        f"output_dir = {output_dir}\n"
        "\n[ga]\n"
        f"population_size = {population_size}\n"
        f"generations = {generations}\n"
        "rng_seed = 1\n"
        "\n[backend]\n"
        "kind = external_compiler\n"
        f"source_path = {source}\n"
        f"compiler_front_command = {sys.executable} {FAKE_TOOL} front {{source}} {{ir}}\n"
        f"optimizer_command = {sys.executable} {FAKE_TOOL} opt {{ir}} {{output}} {{passes}}\n"
        f"linker_command = {sys.executable} {FAKE_TOOL} link {{ir}} {{output}}\n"
        f"runs_per_eval = {runs_per_eval}\n"
        f"run_timeout = {run_timeout}\n"
    )
