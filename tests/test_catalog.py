import math
import sys

import pytest
from hypothesis import given, strategies as st

from passevo.catalog import (
    PassCatalog,
    PassSequence,
    _trusted_sequence,
    builtin_baseline,
    builtin_catalog,
    load_catalog,
    load_sequence,
    resolve_catalog,
    resolve_sequence,
    search_space_order,
    serialize_catalog,
    serialize_sequence,
    validate_token,
)
from passevo.errors import ValidationError

from conftest import assert_trusted_is_public

token = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-0123456789", min_size=1, max_size=12)


def test_load_catalog_direct_parse():
    cat = load_catalog("a\nb\nc\n")
    assert cat.passes == ("a", "b", "c")


def test_load_catalog_skips_comments_and_blanks():
    cat = load_catalog("a\n# comment\n\nb\n")
    assert cat.passes == ("a", "b")


def test_load_catalog_duplicate():
    with pytest.raises(ValidationError, match=r"^duplicate pass 'a' on line 3$"):
        load_catalog("a\nb\na\n")


def test_catalog_constructor_duplicate():
    with pytest.raises(ValidationError, match=r"^duplicate pass '-a'$"):
        PassCatalog(("-a", "-a"))


def test_load_catalog_empty():
    with pytest.raises(ValidationError, match=r"^catalog contains no passes$"):
        load_catalog("# only comments\n\n")


def test_load_catalog_multiple_tokens_per_line():
    with pytest.raises(ValidationError, match=r"^malformed line 1: expected one token, got 2$"):
        load_catalog("a b\n")


def test_load_sequence_allows_duplicates():
    cat = load_catalog("a\nb\nc\n")
    seq = load_sequence("a\nb\nb\n", cat)
    assert seq.passes == ("a", "b", "b")


def test_load_sequence_empty_input():
    cat = load_catalog("a\nb\nc\n")
    assert load_sequence("", cat).passes == ()


def test_load_sequence_unknown_pass():
    cat = load_catalog("a\nb\nc\n")
    with pytest.raises(ValidationError, match=r"^pass 'z' on line 1 is not in the catalog$"):
        load_sequence("z\n", cat)


def test_files_reject_a_control_character_with_its_line_number(tmp_path):
    # after load_sequence builds through _trusted_sequence, _tokens is its only token check
    cat = load_catalog("-gvn\n-dce\n")
    bad = r"^malformed line 2: pass name '-gvn\\x00' contains whitespace or control characters$"
    for path, read in ((tmp_path / "catalog.txt", resolve_catalog),
                       (tmp_path / "sequence.txt", lambda path: resolve_sequence(path, cat))):
        path.write_text("-dce\n-gvn\x00\n", "utf-8")
        with pytest.raises(ValidationError, match=bad):
            read(str(path))


def test_catalog_rejects_bad_tokens():
    with pytest.raises(ValueError):
        PassCatalog(("ok", "has space"))
    with pytest.raises(ValueError):
        PassSequence(("a\tb",))
    with pytest.raises(ValueError):
        PassCatalog(("",))


def test_validate_token_agrees_with_the_per_character_rule_on_every_code_point():
    def rejected(name):
        try:
            validate_token(name)
        except ValueError:
            return True
        return False

    def per_character_rule_rejects(name):
        return any(c.isspace() or not c.isprintable() for c in name)

    names = (f"-a{chr(cp)}" for cp in range(sys.maxunicode + 1))
    assert [name for name in names if rejected(name) != per_character_rule_rejects(name)] == []


@given(st.lists(token, min_size=1, max_size=30, unique=True))
def test_catalog_round_trip(names):
    cat = PassCatalog(tuple(names))
    assert load_catalog(serialize_catalog(cat)).passes == cat.passes


@given(st.lists(st.integers(0, 5), max_size=40))
def test_sequence_round_trip(indices):
    cat = PassCatalog(tuple(f"-p{i}" for i in range(6)))
    seq = PassSequence(tuple(cat.passes[i] for i in indices))
    assert load_sequence(serialize_sequence(seq), cat).passes == seq.passes
    assert list(seq) == [cat.passes[i] for i in indices]


def test_load_sequence_succeeds_iff_members():
    cat = load_catalog("a\nb\n")
    load_sequence("a\nb\na\n", cat)
    with pytest.raises(ValidationError, match=r"^pass 'c' on line 2 is not in the catalog$"):
        load_sequence("a\nc\n", cat)


@pytest.mark.parametrize("passes", [(), ("-a",), ("-a", "-b", "-a")])
def test_trusted_sequence_is_the_public_sequence(passes):
    assert_trusted_is_public(_trusted_sequence(passes), PassSequence(passes))


def test_search_space_order_examples():
    assert search_space_order(10, 3) == pytest.approx(3.0, abs=1e-12)
    assert search_space_order(1, 80) == 0.0
    # independent high-precision value: 80 * log10(120) = 166.33449968380998...
    assert search_space_order(120, 80) == pytest.approx(166.34, abs=0.01)
    assert search_space_order(120, 80) == pytest.approx(166.33449968380998, abs=1e-9)


@given(st.integers(1, 500), st.integers(0, 200), st.integers(0, 5), st.integers(0, 5))
def test_search_space_order_monotone(size, length, dsize, dlength):
    base = search_space_order(size, length)
    assert search_space_order(size + dsize, length) >= base
    assert search_space_order(size, length + dlength) >= base


def test_search_space_order_rejects_empty_alphabet():
    with pytest.raises(ValueError, match=r"^catalog_size must be >= 1$"):
        search_space_order(0, 5)
    with pytest.raises(ValueError, match=r"^sequence_length must be >= 0$"):
        search_space_order(10, -1)


def test_builtin_snapshot_loads_and_round_trips():
    cat = builtin_catalog()
    base = builtin_baseline(cat)
    assert len(cat) > 100
    assert len(base) > 60
    assert all(name in cat for name in base.passes)
    assert load_catalog(serialize_catalog(cat)).passes == cat.passes
    assert load_sequence(serialize_sequence(base), cat).passes == base.passes
    # duplicates are meaningful in the baseline pipeline
    assert len(set(base.passes)) < len(base.passes)


def test_builtin_search_space_is_astronomical():
    cat = builtin_catalog()
    base = builtin_baseline(cat)
    assert search_space_order(len(cat), len(base)) > 100
    assert math.isfinite(search_space_order(len(cat), len(base)))
