import math
import random

import pytest
from hypothesis import given, strategies as st

from passevo.catalog import PassSequence, UnknownPassError
from passevo.patches import (
    Individual,
    MalformedPatchLineError,
    Patch,
    PatchType,
    PositionOutOfRangeError,
    apply_individual,
    apply_patch,
    parse_individual,
    resolve_index,
    serialize_individual,
)

from conftest import make_catalog


def seq(*names: str) -> PassSequence:
    return PassSequence(tuple(names))


# --- independent oracle: a deliberately naive interpreter over plain lists ---

def naive_apply(baseline: list[str], patches) -> list[str]:
    out = list(baseline)
    for p in patches:
        n = len(out)
        if p.ptype is PatchType.INSERTION:
            i = math.floor(p.position * (n + 1))
            if i > n:
                i = n
            out = out[:i] + [p.value] + out[i:]
        elif p.ptype is PatchType.DELETION:
            if n == 0:
                continue
            i = math.floor(p.position * n)
            if i > n - 1:
                i = n - 1
            out = out[:i] + out[i + 1:]
        else:
            if n == 0:
                continue
            i = math.floor(p.position * n)
            if i > n - 1:
                i = n - 1
            out = out[:i] + [p.value] + out[i + 1:]
    return out


def random_corpus(cases: int, rng: random.Random, catalog_size: int = 6,
                  max_baseline: int = 10, max_genome: int = 8):
    catalog = make_catalog(catalog_size)
    special = (0.0, 0.5, 1.0)
    for _ in range(cases):
        baseline = tuple(rng.choice(catalog.passes) for _ in range(rng.randint(0, max_baseline)))
        patches = []
        for _ in range(rng.randint(0, max_genome)):
            ptype = rng.choice(list(PatchType))
            position = rng.choice(special) if rng.random() < 0.2 else rng.random()
            value = None if ptype is PatchType.DELETION else rng.choice(catalog.passes)
            patches.append(Patch(ptype, position, value))
        yield PassSequence(baseline), Individual(tuple(patches))


# --- resolve_index -----------------------------------------------------------

def test_resolve_index_element_bounds():
    assert resolve_index(0.0, 5, "element") == 0
    assert resolve_index(1.0, 5, "element") == 4
    assert resolve_index(0.3, 0, "element") is None


def test_resolve_index_gap():
    # floor(0.5 * 6) = 3
    assert resolve_index(0.5, 5, "gap") == 3
    assert resolve_index(0.0, 0, "gap") == 0
    assert resolve_index(1.0, 0, "gap") == 0
    assert resolve_index(1.0, 5, "gap") == 5


def test_resolve_index_rejects_bad_inputs():
    with pytest.raises(ValueError):
        resolve_index(1.5, 5, "gap")
    with pytest.raises(ValueError):
        resolve_index(0.5, 5, "middle")


@given(st.floats(0, 1, allow_nan=False), st.integers(0, 50))
def test_resolve_index_ranges(position, length):
    gap = resolve_index(position, length, "gap")
    assert 0 <= gap <= length
    element = resolve_index(position, length, "element")
    if length == 0:
        assert element is None
    else:
        assert 0 <= element <= length - 1


# --- apply_patch -------------------------------------------------------------

def test_apply_patch_front_insertion():
    out = apply_patch(seq("a", "b", "c", "d", "e"), Patch(PatchType.INSERTION, 0.0, "x"))
    assert out.passes == ("x", "a", "b", "c", "d", "e")


def test_apply_patch_delete_last():
    # element index = min(floor(1.0 * 5), 4) = 4, removing 'e'
    out = apply_patch(seq("a", "b", "c", "d", "e"), Patch(PatchType.DELETION, 1.0))
    assert out.passes == ("a", "b", "c", "d")


def test_apply_patch_replace_middle():
    # element index = floor(0.5 * 5) = 2
    out = apply_patch(seq("a", "b", "c", "d", "e"), Patch(PatchType.REPLACEMENT, 0.5, "x"))
    assert out.passes == ("a", "b", "x", "d", "e")


def test_apply_patch_delete_on_empty_is_noop():
    empty = seq()
    assert apply_patch(empty, Patch(PatchType.DELETION, 0.7)).passes == ()


def test_apply_patch_does_not_mutate_input():
    before = seq("a", "b")
    apply_patch(before, Patch(PatchType.DELETION, 0.0))
    assert before.passes == ("a", "b")


def test_patch_invariants():
    with pytest.raises(ValueError):
        Patch(PatchType.INSERTION, 0.5, None)
    with pytest.raises(ValueError):
        Patch(PatchType.DELETION, 0.5, "x")
    with pytest.raises(ValueError):
        Patch(PatchType.REPLACEMENT, 1.5, "x")


# --- apply_individual --------------------------------------------------------

def test_empty_individual_is_identity():
    baseline = seq("a", "b", "c")
    assert apply_individual(baseline, Individual()).passes == baseline.passes


def test_apply_individual_sequential_resolution():
    # insertion grows the sequence to 6, so the deletion's index is
    # min(floor(1.0 * 6), 5) = 5, removing the original 'e'
    ind = Individual((Patch(PatchType.INSERTION, 0.0, "x"), Patch(PatchType.DELETION, 1.0)))
    out = apply_individual(seq("a", "b", "c", "d", "e"), ind)
    assert out.passes == ("x", "a", "b", "c", "d")


def test_apply_individual_double_delete_empties():
    ind = Individual((Patch(PatchType.DELETION, 0.0), Patch(PatchType.DELETION, 0.0)))
    assert apply_individual(seq("a"), ind).passes == ()


def test_patched_sequences_match_validated_construction():
    # apply_patch skips re-validation; its results must be ordinary sequences
    rng = random.Random(31337)
    for baseline, ind in random_corpus(2_000, rng):
        labelled = PassSequence(baseline.passes, label="base")
        results = [apply_individual(labelled, ind)]
        results += [apply_patch(labelled, patch) for patch in ind.patches]
        for out in results:
            validated = PassSequence(tuple(out.passes), "base")
            assert type(out) is PassSequence
            assert out == validated
            assert hash(out) == hash(validated)
            assert out.label == "base"


def test_bad_tokens_still_rejected_at_the_boundary():
    with pytest.raises(ValueError):
        PassSequence(("a\tb",))
    for ptype in (PatchType.INSERTION, PatchType.REPLACEMENT):
        with pytest.raises(ValueError):
            Patch(ptype, 0.5, "a b")


def test_oracle_equivalence_10k_cases():
    rng = random.Random(20250810)
    for baseline, ind in random_corpus(10_000, rng):
        expected = naive_apply(list(baseline.passes), ind.patches)
        assert list(apply_individual(baseline, ind).passes) == expected


def test_length_algebra_and_closure_on_corpus():
    rng = random.Random(99991)
    violations = 0
    for baseline, ind in random_corpus(10_000, rng):
        current = baseline
        allowed = set(baseline.passes) | {p.value for p in ind.patches if p.value is not None}
        for patch in ind.patches:
            before = len(current)
            current = apply_patch(current, patch)
            if patch.ptype is PatchType.INSERTION:
                ok = len(current) == before + 1
            elif patch.ptype is PatchType.REPLACEMENT:
                ok = len(current) == before
            else:
                ok = len(current) == max(before - 1, 0)
            if not ok:
                violations += 1
        if not set(current.passes) <= allowed:
            violations += 1
        if apply_individual(baseline, ind).passes != current.passes:
            violations += 1
    assert violations == 0


def test_apply_individual_deterministic():
    rng = random.Random(7)
    for baseline, ind in random_corpus(50, rng):
        first = apply_individual(baseline, ind)
        second = apply_individual(baseline, ind)
        assert first.passes == second.passes


def test_sequential_resolution_tracks_shifting_lengths():
    # The second deletion resolves against the 1-element sequence the first
    # one left, and still applies.
    baseline = seq("a", "b")
    ind = Individual((Patch(PatchType.DELETION, 0.4), Patch(PatchType.DELETION, 0.4)))
    assert apply_individual(baseline, ind).passes == ()
    # two appends at position 1.0: each resolves against the grown length
    grown = Individual((Patch(PatchType.INSERTION, 1.0, "x"), Patch(PatchType.INSERTION, 1.0, "y")))
    assert apply_individual(baseline, grown).passes == ("a", "b", "x", "y")


# --- serialization -----------------------------------------------------------

def test_serialize_individual_format():
    ind = Individual((Patch(PatchType.INSERTION, 0.25, "x"),))
    assert serialize_individual(ind) == "insert 0.250000 x\n"


def test_parse_individual_delete():
    cat = make_catalog(3)
    ind = parse_individual("delete 1.000000\n", cat)
    assert ind.patches == (Patch(PatchType.DELETION, 1.0),)


def test_parse_individual_position_out_of_range():
    cat = make_catalog(3)
    with pytest.raises(PositionOutOfRangeError) as err:
        parse_individual(f"replace 1.5 {cat.passes[0]}\n", cat)
    assert err.value.line == 1


def test_parse_individual_errors():
    cat = make_catalog(3)
    with pytest.raises(MalformedPatchLineError):
        parse_individual("wobble 0.5 -p0\n", cat)
    with pytest.raises(MalformedPatchLineError):
        parse_individual("insert 0.5\n", cat)
    with pytest.raises(MalformedPatchLineError):
        parse_individual("delete zero\n", cat)
    with pytest.raises(UnknownPassError):
        parse_individual("insert 0.5 -nope\n", cat)


def test_parse_individual_comments_and_blanks():
    cat = make_catalog(3)
    text = "# header\n\ninsert 0.5 -p1\n"
    assert len(parse_individual(text, cat)) == 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(PatchType)),
            st.floats(0, 1, allow_nan=False),
            st.integers(0, 5),
        ),
        max_size=12,
    )
)
def test_individual_round_trip(entries):
    cat = make_catalog(6)
    patches = tuple(
        Patch(ptype, pos, None if ptype is PatchType.DELETION else cat.passes[vi])
        for ptype, pos, vi in entries
    )
    ind = Individual(patches)
    assert parse_individual(serialize_individual(ind), cat) == ind
