"""Experiment config files: INI-style text with [experiment], [ga] and
[backend] sections.

Every key maps one-to-one onto a field of ExperimentConfig, GAConfig or
BackendConfig; unknown sections or keys are hard errors so a typo cannot
silently fall back to a default. write_config renders the effective
configuration back out in the same format for provenance.
"""

from __future__ import annotations

import configparser
import shlex
from dataclasses import fields
from pathlib import Path

from .errors import ConfigError
from .evolution import GAConfig
from .experiment import ExperimentConfig
from .fitness import KIND_EXTERNAL, BackendConfig


def _convert(section: str, key: str, raw: str, target_type):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


_TYPE_NAMES = {"int": int, "float": float, "str": str}


def _field_type(dataclass_type, name: str):
    for f in fields(dataclass_type):
        if f.name == name:
            return _TYPE_NAMES.get(f.type, str)
    return None


def _section_kwargs(parser, section: str, dataclass_type, skip: set[str] = frozenset()):
    kwargs = {}
    if not parser.has_section(section):
        return kwargs
    for key, raw in parser.items(section):
        if key in skip:
            continue
        ftype = _field_type(dataclass_type, key)
        if ftype is None:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        kwargs[key] = _convert(section, key, raw, ftype)
    return kwargs


def parse_config_text(text: str, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in ("experiment", "ga", "backend"):
            raise ConfigError(f"unknown section [{section}]")

    if overrides:
        # a new base seed or trial count supersedes the file's per-trial seeds
        if overrides.keys() & {("ga", "rng_seed"), ("experiment", "trials")} and parser.has_section("experiment"):
            parser.remove_option("experiment", "seeds")
        for (section, key), value in overrides.items():
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)

    ga_kwargs = _section_kwargs(parser, "ga", GAConfig)
    backend_kwargs = _section_kwargs(parser, "backend", BackendConfig, skip={"program_args"})
    exp_kwargs = _section_kwargs(parser, "experiment", ExperimentConfig, skip={"seeds", "ga", "backend"})

    if parser.has_option("backend", "program_args"):
        backend_kwargs["program_args"] = tuple(shlex.split(parser.get("backend", "program_args")))
    if parser.has_option("experiment", "seeds"):
        raw = parser.get("experiment", "seeds").replace(",", " ").split()
        try:
            exp_kwargs["seeds"] = tuple(int(s) for s in raw)
        except ValueError as exc:
            raise ConfigError(f"[experiment] seeds: {exc}") from exc

    try:
        ga = GAConfig(**ga_kwargs)
        backend = BackendConfig(**backend_kwargs)
        cfg = ExperimentConfig(ga=ga, backend=backend, **exp_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.backend.kind == KIND_EXTERNAL:
        for key in ("source_path", "compiler_front_command", "optimizer_command", "linker_command"):
            if not getattr(cfg.backend, key):
                raise ConfigError(f"[backend] {key} is required when kind = {KIND_EXTERNAL}")
        if not Path(cfg.backend.source_path).is_file():
            raise ConfigError(f"source file not found: {cfg.backend.source_path}")
    return cfg


def load_config(path: str | Path, overrides: dict[tuple[str, str], str] | None = None) -> ExperimentConfig:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(file.read_text("utf-8"), overrides)


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return shlex.join(str(v) for v in value)
    return str(value)


def write_config(cfg: ExperimentConfig, path: Path) -> None:
    """Echo the effective configuration as a loadable INI file."""
    lines = ["[experiment]"]
    for f in fields(ExperimentConfig):
        if f.name in ("ga", "backend"):
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_render_value(value)}")
    lines.append("")
    lines.append("[ga]")
    for f in fields(GAConfig):
        lines.append(f"{f.name} = {_render_value(getattr(cfg.ga, f.name))}")
    lines.append("")
    lines.append("[backend]")
    for f in fields(BackendConfig):
        value = getattr(cfg.backend, f.name)
        if value == "" and f.name != "kind":
            continue
        lines.append(f"{f.name} = {_render_value(value)}")
    path.write_text("\n".join(lines) + "\n", "utf-8")
