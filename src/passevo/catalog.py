"""Pass vocabulary and pass sequences.

A catalog is the set of optimization pass flags the search may draw from; a
sequence is an ordered pipeline of catalog members (duplicates allowed, order
significant). Both are parsed from plain line-oriented text: one token per
line, '#' comment lines and blank lines ignored. Tokens are compared byte
for byte; no normalization is ever applied because they are handed verbatim
to an external tool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

from .errors import ValidationError


class DuplicatePassError(ValidationError):
    def __init__(self, name: str, line: int):
        super().__init__(f"duplicate pass {name!r} on line {line}")
        self.name = name
        self.line = line


class EmptyCatalogError(ValidationError):
    def __init__(self):
        super().__init__("catalog contains no passes")


class MalformedLineError(ValidationError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"malformed line {line}: {reason}")
        self.line = line


class UnknownPassError(ValidationError):
    def __init__(self, name: str, line: int = 0):
        where = f" on line {line}" if line else ""
        super().__init__(f"pass {name!r}{where} is not in the catalog")
        self.name = name
        self.line = line


def validate_token(name: str) -> str:
    """Check that a pass name is a single printable token; return it."""
    if not name:
        raise ValueError("pass name is empty")
    if any(c.isspace() or not c.isprintable() for c in name):
        raise ValueError(f"pass name {name!r} contains whitespace or control characters")
    return name


@dataclass(frozen=True)
class PassCatalog:
    """Deduplicated, ordered vocabulary of pass names."""

    passes: tuple[str, ...]
    source_label: str = ""
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.passes:
            raise EmptyCatalogError()
        seen = set()
        for name in self.passes:
            validate_token(name)
            if name in seen:
                raise DuplicatePassError(name, 0)
            seen.add(name)
        object.__setattr__(self, "_members", frozenset(self.passes))

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self.passes)


@dataclass(frozen=True)
class PassSequence:
    """Ordered pipeline of pass names; duplicates allowed, may be empty."""

    passes: tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self):
        for name in self.passes:
            validate_token(name)

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)


def _trusted_sequence(passes: tuple[str, ...], label: str) -> PassSequence:
    """Build a PassSequence from tokens that were all validated already.

    For inner loops only: it skips __post_init__, so every token must come
    from a validated sequence, catalog or Patch.
    """
    seq = object.__new__(PassSequence)
    object.__setattr__(seq, "passes", passes)
    object.__setattr__(seq, "label", label)
    return seq


def _tokens(text: str):
    """Yield (line_number, token) for each non-comment, non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 1:
            raise MalformedLineError(lineno, f"expected one token, got {len(parts)}")
        try:
            validate_token(parts[0])
        except ValueError as exc:
            raise MalformedLineError(lineno, str(exc)) from exc
        yield lineno, parts[0]


def load_catalog(text: str, source_label: str = "") -> PassCatalog:
    """Parse catalog text, preserving file order and rejecting duplicates."""
    names: list[str] = []
    seen: set[str] = set()
    for lineno, token in _tokens(text):
        if token in seen:
            raise DuplicatePassError(token, lineno)
        seen.add(token)
        names.append(token)
    if not names:
        raise EmptyCatalogError()
    return PassCatalog(tuple(names), source_label)


def load_sequence(text: str, catalog: PassCatalog, label: str = "") -> PassSequence:
    """Parse sequence text; every token must be a catalog member."""
    names: list[str] = []
    for lineno, token in _tokens(text):
        if token not in catalog:
            raise UnknownPassError(token, lineno)
        names.append(token)
    return PassSequence(tuple(names), label)


def serialize_catalog(catalog: PassCatalog) -> str:
    return "".join(name + "\n" for name in catalog.passes)


def serialize_sequence(seq: PassSequence) -> str:
    return "".join(name + "\n" for name in seq.passes)


def search_space_order(catalog_size: int, sequence_length: int) -> float:
    """log10 of the number of fixed-length sequences over the catalog."""
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    if sequence_length < 0:
        raise ValueError("sequence_length must be >= 0")
    return sequence_length * math.log10(catalog_size)


def builtin_catalog() -> PassCatalog:
    """The shipped legacy -O3 snapshot vocabulary."""
    text = resources.files("passevo.data").joinpath("o3_catalog.txt").read_text("utf-8")
    return load_catalog(text, source_label="builtin:catalog")


def builtin_baseline(catalog: PassCatalog | None = None) -> PassSequence:
    """The shipped legacy -O3 snapshot pipeline, validated against `catalog`."""
    if catalog is None:
        catalog = builtin_catalog()
    text = resources.files("passevo.data").joinpath("o3_baseline.txt").read_text("utf-8")
    return load_sequence(text, catalog, label="builtin:baseline")
