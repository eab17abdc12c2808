"""Patch genome and its application semantics.

An individual is an ordered list of patches; each patch edits a pass sequence
at a relative position in [0, 1]. Insertions address the len+1 gaps between
elements (position 1.0 appends); deletions and replacements address the len
elements (position 1.0 targets the last element). Patches are applied in
genome order and each position is resolved against the sequence as already
modified by the preceding patches. Deleting or replacing within an empty
sequence is a silent no-op, so application is total: any genome applies to
any baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .catalog import PassCatalog, PassSequence, UnknownPassError, _trusted_sequence, validate_token
from .errors import ValidationError


class MalformedPatchLineError(ValidationError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"malformed patch line {line}: {reason}")
        self.line = line


class PositionOutOfRangeError(ValidationError):
    def __init__(self, line: int, position: float):
        super().__init__(f"line {line}: position {position!r} outside [0, 1]")
        self.line = line
        self.position = position


class PatchType(enum.Enum):
    INSERTION = "insert"
    DELETION = "delete"
    REPLACEMENT = "replace"


_NEEDS_VALUE = {PatchType.INSERTION: True, PatchType.DELETION: False, PatchType.REPLACEMENT: True}


@dataclass(frozen=True)
class Patch:
    """One edit: a type, a relative position, and a pass name for edits that add one."""

    ptype: PatchType
    position: float
    value: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.position <= 1.0:
            raise ValueError(f"position {self.position!r} outside [0, 1]")
        if _NEEDS_VALUE[self.ptype]:
            if self.value is None:
                raise ValueError(f"{self.ptype.value} patch requires a value")
            validate_token(self.value)
        elif self.value is not None:
            raise ValueError("delete patch must not carry a value")


@dataclass(frozen=True)
class Individual:
    """Ordered genome of patches; the empty genome is the identity edit."""

    patches: tuple[Patch, ...] = ()

    def __len__(self) -> int:
        return len(self.patches)

    def __iter__(self):
        return iter(self.patches)


def resolve_index(position: float, length: int, slot_mode: str) -> int | None:
    """Map a relative position onto a concrete index.

    'gap' mode addresses the length+1 insertion points and always resolves.
    'element' mode addresses the length elements; returns None when there is
    no element to target.
    """
    if not 0.0 <= position <= 1.0:
        raise ValueError(f"position {position!r} outside [0, 1]")
    if slot_mode == "gap":
        return min(int(position * (length + 1)), length)
    if slot_mode == "element":
        if length == 0:
            return None
        return min(int(position * length), length - 1)
    raise ValueError(f"unknown slot_mode {slot_mode!r}")


def apply_patch(seq: PassSequence, patch: Patch) -> PassSequence:
    """Apply one patch, returning a new sequence; the input is never mutated.

    Every token of the result comes from `seq` or from `patch.value`, both
    validated when they were built, so the result skips re-validation.
    """
    passes = seq.passes
    if patch.ptype is PatchType.INSERTION:
        i = resolve_index(patch.position, len(passes), "gap")
        return _trusted_sequence(passes[:i] + (patch.value,) + passes[i:], seq.label)
    i = resolve_index(patch.position, len(passes), "element")
    if i is None:
        return seq
    if patch.ptype is PatchType.DELETION:
        return _trusted_sequence(passes[:i] + passes[i + 1 :], seq.label)
    return _trusted_sequence(passes[:i] + (patch.value,) + passes[i + 1 :], seq.label)


def apply_individual(baseline: PassSequence, ind: Individual) -> PassSequence:
    """Fold the genome's patches over the baseline, left to right."""
    seq = baseline
    for patch in ind.patches:
        seq = apply_patch(seq, patch)
    return seq


def _format_position(position: float) -> str:
    text = f"{position:.6f}"
    if float(text) == position:
        return text
    return repr(position)


def serialize_individual(ind: Individual) -> str:
    """Render one patch per line; parse_individual inverts this exactly."""
    lines = []
    for patch in ind.patches:
        pos = _format_position(patch.position)
        if patch.ptype is PatchType.DELETION:
            lines.append(f"{patch.ptype.value} {pos}")
        else:
            lines.append(f"{patch.ptype.value} {pos} {patch.value}")
    return "".join(line + "\n" for line in lines)


_KEYWORDS = {t.value: t for t in PatchType}


def parse_individual(text: str, catalog: PassCatalog) -> Individual:
    """Parse the line format `insert <pos> <pass>` | `delete <pos>` | `replace <pos> <pass>`."""
    patches: list[Patch] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        ptype = _KEYWORDS.get(parts[0])
        if ptype is None:
            raise MalformedPatchLineError(lineno, f"unknown patch type {parts[0]!r}")
        want = 2 if ptype is PatchType.DELETION else 3
        if len(parts) != want:
            raise MalformedPatchLineError(lineno, f"{parts[0]} takes {want - 1} argument(s)")
        try:
            position = float(parts[1])
        except ValueError as exc:
            raise MalformedPatchLineError(lineno, f"bad position {parts[1]!r}") from exc
        if not 0.0 <= position <= 1.0:
            raise PositionOutOfRangeError(lineno, position)
        value = parts[2] if want == 3 else None
        if value is not None and value not in catalog:
            raise UnknownPassError(value, lineno)
        patches.append(Patch(ptype, position, value))
    return Individual(tuple(patches))
