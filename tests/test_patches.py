import math
import random

import pytest
from hypothesis import given, strategies as st

from passevo.catalog import PassSequence, _trusted_sequence
from passevo.errors import ValidationError
from passevo.patches import (
    Individual,
    Patch,
    PatchType,
    apply_individual,
    apply_patch,
    parse_individual,
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


# --- apply_patch -------------------------------------------------------------

FIVE = ("a", "b", "c", "d", "e")


def test_apply_patch_element_bounds():
    assert apply_patch(seq(*FIVE), Patch(PatchType.REPLACEMENT, 0.0, "x")).passes == ("x", "b", "c", "d", "e")
    assert apply_patch(seq(*FIVE), Patch(PatchType.REPLACEMENT, 1.0, "x")).passes == ("a", "b", "c", "d", "x")
    assert apply_patch(seq(), Patch(PatchType.REPLACEMENT, 0.3, "x")).passes == ()
    assert apply_patch(seq(), Patch(PatchType.DELETION, 0.3)).passes == ()


def test_apply_patch_gap_bounds():
    # gap index = min(floor(0.5 * 6), 5) = 3
    out = apply_patch(seq(*FIVE), Patch(PatchType.INSERTION, 0.5, "x"))
    assert out.passes == ("a", "b", "c", "x", "d", "e")
    assert apply_patch(seq(), Patch(PatchType.INSERTION, 0.0, "x")).passes == ("x",)
    assert apply_patch(seq(), Patch(PatchType.INSERTION, 1.0, "x")).passes == ("x",)
    assert apply_patch(seq(*FIVE), Patch(PatchType.INSERTION, 1.0, "x")).passes == FIVE + ("x",)


@given(st.floats(0, 1, allow_nan=False), st.integers(0, 50))
def test_apply_patch_index_ranges(position, length):
    # distinct names, so the edited index can be read back off the result
    base = seq(*(f"-p{i}" for i in range(length)))
    inserted = apply_patch(base, Patch(PatchType.INSERTION, position, "x")).passes
    gap = inserted.index("x")
    assert 0 <= gap <= length
    assert inserted[:gap] + inserted[gap + 1 :] == base.passes
    replaced = apply_patch(base, Patch(PatchType.REPLACEMENT, position, "x")).passes
    assert len(replaced) == length
    if length:
        element = replaced.index("x")
        assert 0 <= element <= length - 1
        assert replaced[:element] == base.passes[:element]
        assert replaced[element + 1 :] == base.passes[element + 1 :]


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
        results = [apply_individual(baseline, ind)]
        results += [apply_patch(baseline, patch) for patch in ind.patches]
        for out in results:
            validated = PassSequence(tuple(out.passes))
            assert type(out) is PassSequence
            assert out == validated
            assert hash(out) == hash(validated)


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


# --- the one-list fold against a one-patch-at-a-time tuple-slicing fold -----

def slicing_apply_patch(seq: PassSequence, patch: Patch) -> PassSequence:
    """Apply one patch by slicing a new tuple, with the index formulas written
    out here rather than taken from the code under test."""
    passes, n = seq.passes, len(seq.passes)
    if patch.ptype is PatchType.INSERTION:
        i = min(int(patch.position * (n + 1)), n)
        return _trusted_sequence(passes[:i] + (patch.value,) + passes[i:])
    if n == 0:
        return seq
    i = min(int(patch.position * n), n - 1)
    if patch.ptype is PatchType.DELETION:
        return _trusted_sequence(passes[:i] + passes[i + 1 :])
    return _trusted_sequence(passes[:i] + (patch.value,) + passes[i + 1 :])


def slicing_apply_individual(baseline: PassSequence, ind: Individual) -> PassSequence:
    seq = baseline
    for patch in ind.patches:
        seq = slicing_apply_patch(seq, patch)
    return seq


FOLD_NAMES = ("a", "b", "c")
fold_patches = st.builds(
    lambda ptype, position, value: Patch(ptype, position, None if ptype is PatchType.DELETION else value),
    st.sampled_from(list(PatchType)),
    st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1, allow_nan=False)),
    st.sampled_from(FOLD_NAMES),
)


@given(
    st.lists(st.sampled_from(FOLD_NAMES), max_size=8),
    st.lists(fold_patches, max_size=10),
)
def test_fold_matches_patch_by_patch_slicing(baseline, patches):
    # empty baselines make deletes and replaces no-ops until an insert lands
    base = PassSequence(tuple(baseline))
    ind = Individual(tuple(patches))
    out = apply_individual(base, ind)
    assert out == slicing_apply_individual(base, ind)
    assert base.passes == tuple(baseline)
    for patch in patches:
        assert apply_patch(base, patch) == apply_individual(base, Individual((patch,)))
        assert apply_patch(base, patch) == slicing_apply_patch(base, patch)


def test_empty_genome_returns_the_baseline_object():
    for baseline in (seq(), seq("a", "b")):
        assert apply_individual(baseline, Individual()) is baseline


def test_fold_no_ops_on_empty_give_the_empty_sequence():
    empty = PassSequence(())
    ind = Individual((Patch(PatchType.DELETION, 1.0), Patch(PatchType.REPLACEMENT, 0.0, "x")))
    assert apply_individual(empty, ind) == empty


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
    with pytest.raises(ValidationError, match=r"^line 1: position 1\.5 outside \[0, 1\]$"):
        parse_individual(f"replace 1.5 {cat.passes[0]}\n", cat)


def test_parse_individual_errors():
    cat = make_catalog(3)
    with pytest.raises(ValidationError, match=r"^malformed patch line 1: unknown patch type 'wobble'$"):
        parse_individual("wobble 0.5 -p0\n", cat)
    with pytest.raises(ValidationError, match=r"^malformed patch line 1: insert takes 2 argument\(s\)$"):
        parse_individual("insert 0.5\n", cat)
    with pytest.raises(ValidationError, match=r"^malformed patch line 1: bad position 'zero'$"):
        parse_individual("delete zero\n", cat)
    with pytest.raises(ValidationError, match=r"^pass '-nope' on line 1 is not in the catalog$"):
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
