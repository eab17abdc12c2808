"""Experiment config files: INI-style text with [experiment], [ga] and
[backend] sections.

This module owns the whole schema: ExperimentConfig, the [experiment]
section, is defined here next to the section table. Every key maps
one-to-one onto a field of ExperimentConfig, GAConfig or BackendConfig;
unknown sections or keys are hard errors so a typo cannot silently fall
back to a default. The field's annotation picks how a value reads: `int`
and `float` as numbers, `tuple[int, ...]` as integers split on commas or
spaces, `tuple[str, ...]` split shell-style, anything else as the raw
string. Range and consistency checks live in the dataclasses, so a config
built in code gets them too. write_config renders the effective
configuration back out in the same format for provenance.
"""

from __future__ import annotations

import configparser
import shlex
from dataclasses import dataclass, fields
from pathlib import Path

from .catalog import BUILTIN_BASELINE, BUILTIN_CATALOG
from .errors import ValidationError, read_input, require_file
from .evolution import GAConfig
from .fitness import KIND_EXTERNAL, BackendConfig


@dataclass(frozen=True)
class ExperimentConfig:
    catalog_path: str = BUILTIN_CATALOG
    baseline_path: str = BUILTIN_BASELINE
    ga: GAConfig = GAConfig()
    backend: BackendConfig = BackendConfig()
    trials: int = 8
    output_dir: str = "runs/experiment"
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seeds is not None and len(self.seeds) != self.trials:
            raise ValueError(f"seeds list has {len(self.seeds)} entries for {self.trials} trials")
        # default seeds count up from rng_seed, so checking the ends covers them all
        ends = (self.trial_seed(0), self.trial_seed(self.trials - 1))
        for seed in self.seeds if self.seeds is not None else ends:
            if not 0 <= seed < 2**64:
                raise ValueError(f"trial seed {seed} does not fit in 64 unsigned bits")

    def trial_seed(self, index: int) -> int:
        if self.seeds is not None:
            return self.seeds[index]
        return self.ga.rng_seed + index


# [experiment] holds the other two sections as fields; they are not keys.
_SECTIONS = {"experiment": ExperimentConfig, "ga": GAConfig, "backend": BackendConfig}

_CONVERTERS = {
    "int": int,
    "float": float,
    "tuple[int, ...]": lambda raw: tuple(int(s) for s in raw.replace(",", " ").split()),
    "tuple[str, ...]": lambda raw: tuple(shlex.split(raw)),
}


def _section_kwargs(parser, section: str) -> dict:
    types = {f.name: f.type for f in fields(_SECTIONS[section]) if f.name not in _SECTIONS}
    kwargs = {}
    for key, raw in parser.items(section) if parser.has_section(section) else ():
        if key not in types:
            raise ValidationError(f"unknown key {key!r} in section [{section}]")
        convert = _CONVERTERS.get(types[key].removesuffix(" | None"), str)
        try:
            kwargs[key] = convert(raw)
        except ValueError as exc:
            raise ValidationError(f"[{section}] {key}: {exc}") from exc
    return kwargs


def parse_config_text(text: str, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error: {exc}") from exc

    # configparser keeps [DEFAULT] out of sections() and copies its keys into every section
    if parser.defaults():
        raise ValidationError(f"unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown section [{section}]")

    if overrides:
        # a new base seed or trial count supersedes the file's per-trial seeds
        if overrides.keys() & {("ga", "rng_seed"), ("experiment", "trials")} and parser.has_section("experiment"):
            parser.remove_option("experiment", "seeds")
        for (section, key), value in overrides.items():
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)

    try:
        cfg = ExperimentConfig(
            ga=GAConfig(**_section_kwargs(parser, "ga")),
            backend=BackendConfig(**_section_kwargs(parser, "backend")),
            **_section_kwargs(parser, "experiment"),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc

    if cfg.backend.kind == KIND_EXTERNAL:
        require_file(cfg.backend.source_path, "source")
    return cfg


def load_config(path: str | Path, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    return parse_config_text(read_input(path, "config"), overrides)


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return shlex.join(str(v) for v in value)
    return str(value)


def write_config(cfg: ExperimentConfig, path: Path) -> None:
    """Echo the effective configuration as a loadable INI file, leaving out
    the unset values: None in [experiment], an empty string in [backend]."""
    blocks = []
    for section, obj, unset in (("experiment", cfg, None), ("ga", cfg.ga, None), ("backend", cfg.backend, "")):
        lines = [f"[{section}]"]
        for f in fields(obj):
            value = getattr(obj, f.name)
            if f.name not in _SECTIONS and value != unset:
                lines.append(f"{f.name} = {_render_value(value)}")
        blocks.append("\n".join(lines))
    path.write_text("\n\n".join(blocks) + "\n", "utf-8")
