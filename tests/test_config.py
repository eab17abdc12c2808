import dataclasses
import os
import re
from pathlib import Path

import pytest

from passevo.cli import main
from passevo.config import load_config, parse_config_text, write_config
from passevo.errors import ValidationError

from conftest import assert_rejected, config_file, fake_backend, shipped_config, write_test_inputs


MINIMAL = """\
[experiment]
trials = 2

[ga]
population_size = 5

[backend]
kind = simulated
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.trials == 2
    assert cfg.ga.population_size == 5
    assert cfg.ga.generations == 25
    assert cfg.backend.kind == "simulated"
    assert cfg.backend.runs_per_eval == 40
    assert cfg.catalog_path == "builtin:catalog"


def test_empty_config_is_all_defaults():
    cfg = parse_config_text("")
    assert cfg.trials == 8
    assert cfg.ga.crossover_rate == 0.9


def test_unknown_section_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config_text(MINIMAL + "\n[extras]\nx = 1\n")
    assert "extras" in str(err.value)


@pytest.mark.parametrize("text", [
    "[DEFAULT]\ntrials = 2\n",
    "[DEFAULT]\ntrials = 2\n[experiment]\n",
    "[DEFAULT]\ntrials = 2\n[experiment]\n[ga]\n",
])
def test_default_section_with_keys_rejected(text):
    # configparser hides [DEFAULT] from sections() and copies its keys into
    # every section, so it would otherwise be ignored or misread silently
    with pytest.raises(ValidationError, match=r"unknown section \[DEFAULT\]"):
        parse_config_text(text)


def test_default_section_exits_two(tmp_path, capsys):
    config = tmp_path / "default.ini"
    config.write_text("[DEFAULT]\ntrials = 2\n")
    assert main(["evolve", "--config", str(config)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_unparsable_config_exits_two(tmp_path, capsys):
    config = tmp_path / "headless.ini"
    config.write_text("trials = 2\n")
    assert main(["evolve", "--config", str(config)]) == 2
    assert "config parse error" in capsys.readouterr().err


def test_seed_flag_adds_a_missing_ga_section(tmp_path):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path)
    out_dir = tmp_path / "out"
    config = tmp_path / "no_ga.ini"
    config.write_text(
        "[experiment]\n"
        f"catalog_path = {catalog_path}\n"
        f"baseline_path = {baseline_path}\n"
        "trials = 1\n"
        f"output_dir = {out_dir}\n"
        "\n[backend]\nkind = simulated\n"
    )
    assert main(["simulate", "--config", str(config), "--seed", "7"]) == 0
    assert "\nrng_seed = 7\n" in (out_dir / "effective_config.ini").read_text()


def test_unknown_key_rejected():
    with pytest.raises(ValidationError) as err:
        parse_config_text(MINIMAL + "typo_rate = 0.5\n")
    assert "typo_rate" in str(err.value)
    # removed keys are unknown keys, not silently ignored
    with pytest.raises(ValidationError) as err:
        parse_config_text(with_experiment_key("remeasure_baseline_per_trial = false"))
    assert "remeasure_baseline_per_trial" in str(err.value)
    # the [ga] and [backend] sections are not keys of [experiment]
    for key in ("ga", "backend"):
        with pytest.raises(ValidationError, match=f"unknown key '{key}' in section \\[experiment\\]"):
            parse_config_text(with_experiment_key(f"{key} = x"))


def test_bad_type_rejected():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("population_size = 5", "population_size = many"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL + "\n[experiment2]")


def test_bad_range_rejected():
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("trials = 2", "trials = 0"))
    # every trial seed becomes a GAConfig.rng_seed, an unsigned 64-bit value;
    # the second trial of rng_seed = 2**64 - 1 would run with seed 2**64
    with pytest.raises(ValidationError):
        parse_config_text(with_experiment_key("seeds = -1 2"))
    with pytest.raises(ValidationError):
        parse_config_text(MINIMAL.replace("[ga]\n", f"[ga]\nrng_seed = {2**64 - 1}\n"))
    for key in ("run_timeout", "compile_timeout", "sim_base_runtime"):
        for value in ("nan", "inf"):
            with pytest.raises(ValidationError, match=key):
                parse_config_text(MINIMAL + f"{key} = {value}\n")
    # the wait for a process takes a timeout only up to about 9.2e9 seconds
    for key in ("run_timeout", "compile_timeout"):
        with pytest.raises(ValidationError, match=key):
            parse_config_text(MINIMAL + f"{key} = 1e10\n")
    with pytest.raises(ValidationError, match=r"^unknown backend kind 'bogus'$"):
        parse_config_text(MINIMAL.replace("kind = simulated", "kind = bogus"))
    with pytest.raises(ValidationError, match=r"^runs_per_eval must be >= 1$"):
        parse_config_text(MINIMAL + "runs_per_eval = 0\n")
    with pytest.raises(ValidationError, match=r"^sim_target_edits must be >= 0$"):
        parse_config_text(MINIMAL + "sim_target_edits = -1\n")
    with pytest.raises(ValidationError, match=r"^output_dir must not be empty$"):
        parse_config_text(with_experiment_key("output_dir ="))


def test_non_finite_timeout_exits_two(tmp_path, capsys):
    config = tmp_path / "nan.ini"
    config.write_text(MINIMAL + "compile_timeout = nan\n")
    assert main(["baseline", "--config", str(config)]) == 2
    assert "compile_timeout" in capsys.readouterr().err


def with_experiment_key(line: str) -> str:
    return MINIMAL.replace("trials = 2\n", f"trials = 2\n{line}\n")


def test_seeds_parse_with_commas_or_spaces():
    cfg = parse_config_text(with_experiment_key("seeds = 1, 2"))
    assert cfg.seeds == (1, 2)
    cfg = parse_config_text(with_experiment_key("seeds = 3 4"))
    assert cfg.seeds == (3, 4)
    with pytest.raises(ValidationError):
        parse_config_text(with_experiment_key("seeds = 1 two"))


def external_backend_text(tmp_path) -> str:
    source = tmp_path / "p.c"
    source.write_text("int main(){}\n")
    return (
        "[backend]\n"
        "kind = external_compiler\n"
        f"source_path = {source}\n"
        "compiler_front_command = cc {source} -o {ir}\n"
        "optimizer_command = true {passes} {output}\n"
        "linker_command = cp {ir} {output}\n"
        'program_args = --size 10 "two words"\n'
    )


def test_program_args_split_shell_style(tmp_path):
    cfg = parse_config_text(external_backend_text(tmp_path))
    assert cfg.backend.program_args == ("--size", "10", "two words")
    with pytest.raises(ValidationError, match=r"^\[backend\] program_args: No closing quotation"):
        parse_config_text(external_backend_text(tmp_path).replace('"two words"', '"unclosed'))


def test_external_kind_requires_commands_and_source(tmp_path, capsys):
    text = "[backend]\nkind = external_compiler\n"
    with pytest.raises(ValidationError) as err:
        parse_config_text(text)
    assert "source_path" in str(err.value)

    missing = tmp_path / "nonexistent" / "prog.c"
    cases = [("source_path", str(missing), f"source file not found: {missing}")]
    for key in ("source_path", "compiler_front_command", "optimizer_command", "linker_command"):
        cases.append((key, "", f"{key} is required when kind = external_compiler"))
    # a whitespace-only template has no argv to run, so it counts as missing too
    for key in ("compiler_front_command", "optimizer_command", "linker_command"):
        cases.append((key, " \t ", f"{key} is required when kind = external_compiler"))
    # a config built in code gets the same checks, with the text a config file exits 2 with
    for key, value, message in cases:
        assert_rejected(tmp_path, capsys, key, lambda _: value, f"^{re.escape(message)}$")


def _no_pidfd_open(*_):
    raise OSError(38, "Function not implemented")


@pytest.mark.parametrize("platform", ["no os.pidfd_open", "a kernel without the call"])
def test_external_kind_requires_pidfd_open(tmp_path, capsys, monkeypatch, platform):
    backend = fake_backend(tmp_path)
    # written while the host still has the call; the same file then exits 2
    config = config_file(tmp_path, fake_toolchain="ok")
    if platform == "no os.pidfd_open":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    else:
        monkeypatch.setattr(os, "pidfd_open", _no_pidfd_open, raising=False)
    # a config built in code gets the same check, with the text a config file exits 2 with
    with pytest.raises(ValueError, match="^kind = external_compiler needs os.pidfd_open, Linux 5.3 or later: ") as err:
        dataclasses.replace(backend)
    unchanged = main(["evolve", "--config", str(config)]), capsys.readouterr().err, (tmp_path / "out").exists()
    assert unchanged == (2, f"error: {err.value}\n", False)
    assert parse_config_text(MINIMAL).backend.kind == "simulated"
    # `passevo simulate` overrides the kind before the BackendConfig is built
    simulated = parse_config_text(external_backend_text(tmp_path), {("backend", "kind"): "simulated"})
    assert simulated.backend.kind == "simulated"


def test_overrides_beat_file_values():
    cfg = parse_config_text(
        MINIMAL,
        overrides={("experiment", "trials"): "9", ("ga", "rng_seed"): "123"},
    )
    assert cfg.trials == 9
    assert cfg.ga.rng_seed == 123


def test_write_config_round_trips(tmp_path):
    catalog_path, baseline_path, _, _ = write_test_inputs(tmp_path)
    cfg = parse_config_text(
        "[experiment]\n"
        f"catalog_path = {catalog_path}\n"
        f"baseline_path = {baseline_path}\n"
        "trials = 3\n"
        "seeds = 5 6 7\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "[ga]\n"
        "population_size = 7\n"
        "mutation_rate = 0.55\n"
        "[backend]\n"
        "kind = simulated\n"
        "sim_target_edits = 4\n"
    )
    echo = tmp_path / "echo.ini"
    write_config(cfg, echo)
    assert load_config(echo) == cfg

    external = parse_config_text(external_backend_text(tmp_path))
    write_config(external, echo)
    assert load_config(echo) == external


def test_load_config_missing_file():
    with pytest.raises(ValidationError):
        load_config("/nonexistent/experiment.ini")


REPO = Path(__file__).resolve().parent.parent
SHIPPED = sorted(REPO.glob("configs/*.ini")) + sorted(REPO.glob("perfbench/*/*.ini"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: str(p.relative_to(REPO)))
def test_shipped_config_loads_and_round_trips(path, tmp_path):
    cfg = shipped_config(path)
    echo = tmp_path / "echo.ini"
    write_config(cfg, echo)
    assert load_config(echo) == cfg
