import ast
import dataclasses
import functools
import re
import sys
from pathlib import Path

import pytest

import passevo.fitness as fitness_mod
from passevo.catalog import PassCatalog, PassSequence, serialize_catalog, serialize_sequence
from passevo.cli import main
from passevo.config import ExperimentConfig, write_config
from passevo.evolution import GAConfig
from passevo.fitness import BackendConfig, EvaluationCache, EvaluationRecord, RunResult

TESTS = Path(__file__).resolve().parent
# the package's modules, which the structural guards read
SOURCES = sorted((TESTS.parent / "src" / "passevo").glob("*.py"))
FAKE_TOOL = TESTS / "fake_toolchain.py"
# the fake toolchain's three stage templates; a test that needs another derives it from these
FAKE_TEMPLATES = {
    "compiler_front_command": "cp {source} {ir}",
    "optimizer_command": f"{sys.executable} -S {FAKE_TOOL} opt {{ir}} {{output}} {{passes}}",
    "linker_command": f"{sys.executable} -S {FAKE_TOOL} link {{ir}} {{output}}",
}


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


def experiment_config(tmp_path: Path, fake_toolchain: str | None = None, inputs: tuple[int, int] | None = None,
                      **fields) -> ExperimentConfig:
    """A valid config on a catalog and baseline written under tmp_path, with output_dir tmp_path/out.

    The backend is simulated, or with `fake_toolchain` the fake toolchain on a source
    whose directive is that value (ok, sleep <s>, spin or exit1); its experiment is
    smaller, since every build starts processes. `inputs` is the catalog size and
    baseline length, and `fields` sets any field of ExperimentConfig, GAConfig or
    BackendConfig by name.
    """
    default_inputs = (16, 10) if fake_toolchain is None else (6, 3)
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path, *(inputs or default_inputs))
    values = dict(catalog_path=str(catalog_path), baseline_path=str(baseline_path), output_dir=str(tmp_path / "out"),
                  trials=2, population_size=12, generations=6, rng_seed=42)
    if fake_toolchain is not None:
        source = tmp_path / "program.src"
        source.write_text(fake_toolchain + "\n")
        values.update(trials=1, population_size=4, generations=2, rng_seed=1, kind="external_compiler",
                      source_path=str(source), **FAKE_TEMPLATES, runs_per_eval=2)
    values.update(fields)
    kwargs = {cls: {f.name: values.pop(f.name) for f in dataclasses.fields(cls) if f.name in values}
              for cls in (GAConfig, BackendConfig, ExperimentConfig)}
    if values:
        raise TypeError(f"not a config field: {', '.join(values)}")
    return ExperimentConfig(ga=GAConfig(**kwargs[GAConfig]), backend=BackendConfig(**kwargs[BackendConfig]),
                            **kwargs[ExperimentConfig])


def fake_backend(tmp_path: Path, behavior: str = "ok", **fields) -> BackendConfig:
    """The backend of experiment_config(tmp_path, behavior, **fields), with a 30 s compile timeout by default."""
    return experiment_config(tmp_path, behavior, **{"compile_timeout": 30.0, **fields}).backend


class Evaluator:
    """The one way tests score a candidate on an external backend: fitness.evaluate
    on one BackendConfig and one EvaluationCache, the cache fresh or persisted at
    `cache_path` (a second Evaluator on that path reloads it). A candidate is given
    by its pass names."""

    def __init__(self, cfg: BackendConfig, cache_path: Path | None = None):
        self.cfg = cfg
        self.cache = EvaluationCache(cache_path)

    def score(self, *names: str) -> EvaluationRecord:
        return fitness_mod.evaluate(PassSequence(names), self.cfg, self.cache)

    def build(self, build_dir: Path, *names: str) -> Path:
        """fitness.build_executable of the candidate in `build_dir`, which it makes; the executable's path."""
        build_dir.mkdir(parents=True, exist_ok=True)
        return fitness_mod.build_executable(PassSequence(names), self.cfg, build_dir, self.cache)


def config_file(tmp_path: Path, **kwargs) -> Path:
    """experiment_config(tmp_path, **kwargs), written by config.write_config to tmp_path/experiment.ini."""
    path = tmp_path / "experiment.ini"
    write_config(experiment_config(tmp_path, **kwargs), path)
    return path


def assert_rejected(tmp_path, capsys, key, edit, pattern: str) -> None:
    """The fake toolchain's config with `key`'s value passed through `edit` is rejected twice over:
    a BackendConfig built in code raises ValueError matching `pattern`, and `passevo evolve` on
    the same edit in a config file exits 2 with `error: <that text>` and makes no output directory."""
    config = config_file(tmp_path, fake_toolchain="ok")
    text = config.read_text()
    line = re.search(f"(?m)^{key} = (.*)$", text)
    value = edit(line[1])
    with pytest.raises(ValueError, match=pattern) as err:
        fake_backend(tmp_path, **{key: value})
    config.write_text(text.replace(line[0], f"{key} = {value}"))
    code = main(["evolve", "--config", str(config)])
    assert (code, capsys.readouterr().err, (tmp_path / "out").exists()) == (2, f"error: {err.value}\n", False)


def find_sites(path: Path, find) -> list[tuple[str, str | None, int, str]]:
    """(module, enclosing top-level definition, line, name) of each name that `find` reports on a node of a file."""
    found = []

    def visit(node: ast.AST, scope: str | None) -> None:
        if scope is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        found.extend((path.name, scope, getattr(node, "lineno", 0), name) for name in find(node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text("utf-8"), filename=str(path)), None)
    return found


class Processes:
    """The one stand-in for fitness.time_execution: every process an evaluation starts.

    `calls` holds each one's (stage, argv). The stage is the fake toolchain's stage
    word, argv[3] (opt or link); "run" for a timed run of the built program;
    and for any other process the file name of argv[0], such as "cp" for the
    fake toolchain's front end, "true" or "opt".
    `replies` maps a stage to what its calls return in place of the real call: a
    RunResult, or a callable given the argv and the real call (no arguments).
    """

    def __init__(self, real):
        self.calls: list[tuple[str, list[str]]] = []
        self.replies: dict = {}
        self._real = real

    @property
    def stages(self) -> list[str]:
        return [stage for stage, _ in self.calls]

    def __call__(self, argv: list[str], timeout: float) -> RunResult:
        if argv[1:3] == ["-S", str(FAKE_TOOL)]:
            stage = argv[3]
        elif argv[0].endswith("program.bin"):
            stage = "run"
        else:
            stage = Path(argv[0]).name
        self.calls.append((stage, argv))
        reply = self.replies.get(stage)
        real = functools.partial(self._real, argv, timeout)
        if reply is None:
            return real()
        return reply if isinstance(reply, RunResult) else reply(argv, real)


@pytest.fixture
def processes(monkeypatch) -> Processes:
    seam = Processes(fitness_mod.time_execution)
    monkeypatch.setattr(fitness_mod, "time_execution", seam)
    return seam
