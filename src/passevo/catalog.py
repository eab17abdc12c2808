"""Pass vocabulary and pass sequences.

A catalog is the set of optimization pass flags the search may draw from; a
sequence is an ordered pipeline of catalog members (duplicates allowed, order
significant). Both are parsed from plain line-oriented text: one token per
line, '#' comment lines and blank lines ignored. Tokens are compared byte
for byte; no normalization is ever applied because they are handed verbatim
to an external tool. A catalog or sequence is its passes and nothing else.

Every pass-list path a config or the CLI names resolves here: a file, or
one of the `builtin:` names of the shipped -O3 snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

from .errors import ValidationError, input_lines, read_input

BUILTIN_CATALOG = "builtin:catalog"
BUILTIN_BASELINE = "builtin:baseline"


def validate_token(name: str) -> str:
    """Check that a pass name is a single printable token; return it."""
    if not name:
        raise ValueError("pass name is empty")
    # every whitespace character but the space is already unprintable
    if " " in name or not name.isprintable():
        raise ValueError(f"pass name {name!r} contains whitespace or control characters")
    return name


@dataclass(frozen=True)
class PassCatalog:
    """Deduplicated, ordered vocabulary of pass names."""

    passes: tuple[str, ...]
    _members: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.passes:
            raise ValidationError("catalog contains no passes")
        seen = set()
        for name in self.passes:
            validate_token(name)
            if name in seen:
                raise ValidationError(f"duplicate pass {name!r}")
            seen.add(name)
        object.__setattr__(self, "_members", frozenset(self.passes))

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def __len__(self) -> int:
        return len(self.passes)


@dataclass(frozen=True, slots=True)
class PassSequence:
    """Ordered pipeline of pass names; duplicates allowed, may be empty."""

    passes: tuple[str, ...] = ()

    def __post_init__(self):
        for name in self.passes:
            validate_token(name)

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)


# the slot's own descriptor, cheaper than object.__setattr__ (see patches.py)
_set_passes = PassSequence.__dict__["passes"].__set__


def _trusted_sequence(passes: tuple[str, ...]) -> PassSequence:
    """Build a PassSequence from tokens that were all validated already.

    It skips __post_init__, so every token must come from a validated
    sequence, catalog or Patch, or have passed validate_token in a reader.
    """
    seq = object.__new__(PassSequence)
    _set_passes(seq, passes)
    return seq


def _tokens(text: str):
    """Yield (line_number, token) for each non-comment, non-blank line."""
    for lineno, parts in input_lines(text):
        if len(parts) != 1:
            raise ValidationError(f"malformed line {lineno}: expected one token, got {len(parts)}")
        try:
            validate_token(parts[0])
        except ValueError as exc:
            raise ValidationError(f"malformed line {lineno}: {exc}") from exc
        yield lineno, parts[0]


def load_catalog(text: str) -> PassCatalog:
    """Parse catalog text, preserving file order and rejecting duplicates."""
    names: list[str] = []
    seen: set[str] = set()
    for lineno, token in _tokens(text):
        if token in seen:
            raise ValidationError(f"duplicate pass {token!r} on line {lineno}")
        seen.add(token)
        names.append(token)
    return PassCatalog(tuple(names))


def load_sequence(text: str, catalog: PassCatalog) -> PassSequence:
    """Parse sequence text; every token must be a catalog member."""
    names: list[str] = []
    for lineno, token in _tokens(text):
        if token not in catalog:
            raise ValidationError(f"pass {token!r} on line {lineno} is not in the catalog")
        names.append(token)
    return _trusted_sequence(tuple(names))


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
    return load_catalog(text)


def builtin_baseline(catalog: PassCatalog) -> PassSequence:
    """The shipped legacy -O3 snapshot pipeline, validated against `catalog`."""
    text = resources.files("passevo.data").joinpath("o3_baseline.txt").read_text("utf-8")
    return load_sequence(text, catalog)


def resolve_catalog(path: str) -> PassCatalog:
    if path == BUILTIN_CATALOG:
        return builtin_catalog()
    return load_catalog(read_input(path, "catalog"))


def resolve_sequence(path: str, catalog: PassCatalog) -> PassSequence:
    if path == BUILTIN_BASELINE:
        return builtin_baseline(catalog)
    return load_sequence(read_input(path, "sequence"), catalog)
