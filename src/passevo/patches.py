"""Patch genome and its application semantics.

An individual is an ordered list of patches; each patch edits a pass sequence
at a relative position p in [0, 1]. Against a sequence of n passes, an
insertion goes into gap min(int(p * (n + 1)), n) of the n + 1 gaps (p = 1.0
appends), and a deletion or replacement hits element min(int(p * n), n - 1)
(p = 1.0 targets the last element). Patches are applied in genome order and
each position is resolved against the sequence as already modified by the
preceding patches. Deleting or replacing within an empty sequence is a
silent no-op, so application is total: any genome applies to any baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .catalog import PassCatalog, PassSequence, _trusted_sequence, validate_token
from .errors import ValidationError, input_lines


class PatchType(enum.Enum):
    INSERTION = "insert"
    DELETION = "delete"
    REPLACEMENT = "replace"


@dataclass(frozen=True)
class Patch:
    """One edit: a type, a relative position, and a pass name for edits that add one."""

    ptype: PatchType
    position: float
    value: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.position <= 1.0:
            raise ValueError(f"position {self.position!r} outside [0, 1]")
        if self.ptype is not PatchType.DELETION:
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


def _trusted_patch(ptype: PatchType, position: float, value: str | None) -> Patch:
    """Build a Patch from parts that were all validated already.

    For inner loops only: it skips __post_init__, so the position must lie in
    [0, 1] and the value must come from a catalog or an existing Patch, and
    be None exactly for a deletion.
    """
    patch = object.__new__(Patch)
    object.__setattr__(patch, "ptype", ptype)
    object.__setattr__(patch, "position", position)
    object.__setattr__(patch, "value", value)
    return patch


def apply_patch(seq: PassSequence, patch: Patch) -> PassSequence:
    """Apply one patch, returning a new sequence; the input is never mutated."""
    return apply_individual(seq, Individual((patch,)))


def apply_individual(baseline: PassSequence, ind: Individual) -> PassSequence:
    """Fold the genome's patches over the baseline, left to right.

    The whole genome edits one list in place, each position resolved against
    the list as the patches before it left it; the input is never mutated.
    Every token of the result comes from `baseline` or from a patch value,
    both validated when they were built, so the one sequence built at the
    end skips re-validation. The empty genome returns `baseline` itself.
    """
    if not ind.patches:
        return baseline
    passes = list(baseline.passes)
    for patch in ind.patches:
        n = len(passes)
        if patch.ptype is PatchType.INSERTION:
            passes.insert(min(int(patch.position * (n + 1)), n), patch.value)
        elif n:
            i = min(int(patch.position * n), n - 1)
            if patch.ptype is PatchType.DELETION:
                del passes[i]
            else:
                passes[i] = patch.value
    return _trusted_sequence(tuple(passes))


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
    for lineno, parts in input_lines(text):
        ptype = _KEYWORDS.get(parts[0])
        if ptype is None:
            raise ValidationError(f"malformed patch line {lineno}: unknown patch type {parts[0]!r}")
        want = 2 if ptype is PatchType.DELETION else 3
        if len(parts) != want:
            raise ValidationError(
                f"malformed patch line {lineno}: {parts[0]} takes {want - 1} argument(s)"
            )
        try:
            position = float(parts[1])
        except ValueError as exc:
            raise ValidationError(f"malformed patch line {lineno}: bad position {parts[1]!r}") from exc
        if not 0.0 <= position <= 1.0:
            raise ValidationError(f"line {lineno}: position {position!r} outside [0, 1]")
        value = parts[2] if want == 3 else None
        if value is not None and value not in catalog:
            raise ValidationError(f"pass {value!r} on line {lineno} is not in the catalog")
        patches.append(Patch(ptype, position, value))
    return Individual(tuple(patches))
