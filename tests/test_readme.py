"""The README's examples run against the package as it is."""

import argparse
import ast
import re
from dataclasses import fields
from pathlib import Path

from passevo import (
    GenerationRecord,
    Patch,
    PatchType,
    apply_individual,
    load_catalog,
    parse_individual,
    simulated_fitnesses,
)
from passevo.cli import _OVERRIDE_FLAGS, build_parser
from passevo.config import _SECTIONS
from passevo.fitness import _STAGES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs():
    section = README.read_text("utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    history, best = namespace["history"], namespace["best"]
    assert all(type(record) is GenerationRecord for record in history)
    assert best in history
    assert best.best_fitness == min(record.best_fitness for record in history)
    pipeline = apply_individual(namespace["baseline"], best.best_individual)
    assert simulated_fitnesses([pipeline], namespace["model"])[0] == best.best_fitness


def test_patch_file_example_parses():
    section = README.read_text("utf-8").split("**Individual (patch) files**", 1)[1]
    text = re.search(r"```\n(.*?)```", section, re.S).group(1)
    individual = parse_individual(text, load_catalog("-gvn\n-sroa\n"))
    assert individual.patches == (
        Patch(PatchType.INSERTION, 0.25, "-gvn"),
        Patch(PatchType.DELETION, 1.0),
        Patch(PatchType.REPLACEMENT, 0.5, "-sroa"),
    )


def test_config_schema_lists_every_key_and_its_default():
    section = README.read_text("utf-8").split("## Config file schema", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    documented: dict[str, dict[str, str | None]] = {}
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            keys = documented.setdefault(header.group(1), {})
        elif entry := re.match(r"(\w+) =[^;]*(?:;(.*))?$", line):
            bracketed = re.search(r"\[([^\]]+)\]", entry.group(2) or "")
            keys[entry.group(1)] = bracketed and bracketed.group(1)
    assert documented.keys() == _SECTIONS.keys()
    for name, cls in _SECTIONS.items():
        defaults = {f.name: f.default for f in fields(cls) if f.name not in _SECTIONS}
        assert set(documented[name]) == set(defaults), name
        for key, bracketed in documented[name].items():
            if bracketed is not None:
                assert ast.literal_eval(bracketed) == defaults[key], (name, key)


def test_cli_synopsis_names_only_real_flags():
    section = README.read_text("utf-8").split("## CLI", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    parser = build_parser()
    subcommands = next(
        action.choices for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    synopsis: dict[str, set[str]] = {}
    for line in block.splitlines():
        command, rest = re.fullmatch(r"passevo (\w+)(.*)", line).groups()
        synopsis[command] = set(re.findall(r"--[\w-]+", rest.split("#")[0]))
    assert synopsis.keys() == subcommands.keys()
    for command, flags in synopsis.items():
        usage = subcommands[command].format_usage()
        assert flags <= set(re.findall(r"--[\w-]+", usage)), command
    assert set(_OVERRIDE_FLAGS) <= synopsis["evolve"]


def stage_table():
    section = README.read_text("utf-8").split("Command templates are split shell-style", 1)[1]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", section, re.M)
    assert len(rows) == len(_STAGES)
    return rows


def test_stage_rule_names_each_stages_placeholders():
    assert {key: tuple(re.findall(r"\{(\w+)\}", allowed)) for key, allowed, _ in stage_table()} == {
        key: allowed for key, (allowed, _) in _STAGES.items()
    }


def test_required_rule_names_what_each_stage_must_take():
    assert {
        key: tuple(tuple(re.findall(r"\{(\w+)\}", group)) for group in re.split(r",? and ", required)
                   if group != "nothing")
        for key, _, required in stage_table()
    } == {key: required for key, (_, required) in _STAGES.items()}
