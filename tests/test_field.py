from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ElemSet, FieldMismatch, GroundField, ParseError,
                     parse_set, render_set)

from conftest import P31


def test_parse_canonical_reduction():
    F7 = GroundField.prime(7)
    s, dups = parse_set("3\n10\n3", F7)
    assert sorted(s) == [3] and dups == 2


def test_parse_char0_identity(c0):
    s, dups = parse_set("0\n1\n2", c0)
    assert sorted(s) == [0, 1, 2] and dups == 0


def test_parse_negative_mod_p():
    s, _ = parse_set("-1", GroundField.prime(7))
    assert sorted(s) == [6]


def test_parse_empty_is_empty_set(c0):
    s, dups = parse_set("", c0)
    assert len(s) == 0 and dups == 0


def test_parse_rejects_garbage(c0):
    with pytest.raises(ParseError):
        parse_set("banana", c0)


def test_parse_rational_char0(c0):
    s, _ = parse_set("1/2\n3", c0)
    assert Fraction(1, 2) in s and 3 in s


def test_field_from_string_roundtrip():
    assert GroundField.from_string("prime:7").p == 7
    assert not GroundField.from_string("char0").is_prime_mode
    with pytest.raises(ValueError):
        GroundField.from_string("prime:8")  # not prime


def test_render_parse_roundtrip_header(c0, tmp_path):
    from sumprod import read_set_file, write_set_file
    s = ElemSet(c0, [Fraction(1, 3), -2, 7])
    path = tmp_path / "s.txt"
    write_set_file(path, s)
    back, dups = read_set_file(path)
    assert back == s and dups == 0


def test_set_ops(c0):
    a = ElemSet(c0, [0, 1, 2])
    b = ElemSet(c0, [2, 3])
    assert b.issubset(ElemSet(c0, [0, 1, 2, 3])) and not b.issubset(a)
    assert sorted(a.remove_zero()) == [1, 2]


@pytest.mark.parametrize("F", [GroundField.prime(101), GroundField.char0()])
def test_issubset_of_empty_set(F):
    empty = ElemSet.empty(F)
    assert not ElemSet(F, [1]).issubset(empty)
    assert not ElemSet(F, [0, 5]).issubset(empty)
    assert empty.issubset(empty)
    assert empty.issubset(ElemSet(F, [1]))


def test_field_mismatch_guard(c0):
    from sumprod import combine
    a = ElemSet(c0, [1])
    b = ElemSet(GroundField.prime(7), [1])
    with pytest.raises(FieldMismatch):
        combine(a, b, "add")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=40),
       st.booleans())
def test_parse_render_roundtrip(xs, prime):
    field = GroundField.prime(P31) if prime else GroundField.char0()
    s = ElemSet(field, xs)
    back, dups = parse_set(render_set(s), field)
    assert back == s and dups == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1, max_size=30))
def test_canonicalization_dedupes_mod_p(xs):
    F7 = GroundField.prime(7)
    s = ElemSet(F7, xs)
    assert sorted(s) == sorted({x % 7 for x in xs})
