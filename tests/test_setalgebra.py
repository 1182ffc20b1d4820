import pytest
from hypothesis import given, settings, strategies as st

from sumprod import ElemSet, GroundField, SpanSpec, combine, iterated_span, \
    rep_function
from sumprod.repfn import _object_table

from conftest import self_table_case

small_sets = st.lists(st.integers(-30, 30), min_size=1, max_size=10)


def test_combine_add(c0):
    A = ElemSet(c0, [1, 2, 4])
    assert sorted(combine(A, A, "add")) == [2, 3, 4, 5, 6, 8]


def test_add_zero_identity(c0):
    A = ElemSet(c0, [3, 5, 9])
    assert combine(A, ElemSet(c0, [0]), "add") == A


def test_subgroup_closed_under_ratio():
    F7 = GroundField.prime(7)
    A = ElemSet(F7, [1, 2, 4])
    assert sorted(combine(A, A, "div")) == [1, 2, 4]


def test_span_examples(c0):
    A = ElemSet(c0, [0, 1])
    assert sorted(iterated_span(A, SpanSpec(2, 1))) == [-1, 0, 1, 2]
    assert iterated_span(A, SpanSpec(1, 0)) == A
    B = ElemSet(c0, [0, 1, 3])
    assert sorted(iterated_span(B, SpanSpec(1, 1))) == [-3, -2, -1, 0, 1, 2, 3]


def test_span_rejects_zero_spec():
    with pytest.raises(ValueError):
        SpanSpec(0, 0)


@settings(max_examples=50, deadline=None)
@given(small_sets, small_sets, st.sampled_from(["add", "mul"]))
def test_commutative(xs, ys, op):
    c0 = GroundField.char0()
    A, B = ElemSet(c0, xs), ElemSet(c0, ys)
    assert combine(A, B, op) == combine(B, A, op)


@settings(max_examples=50, deadline=None)
@given(small_sets, small_sets, st.sampled_from(["add", "sub", "mul", "div"]))
def test_support_matches_rep(xs, ys, op):
    c0 = GroundField.char0()
    A, B = ElemSet(c0, xs), ElemSet(c0, ys)
    assert combine(A, B, op) == rep_function(A, B, op).support()


@settings(max_examples=40, deadline=None)
@given(small_sets, small_sets)
def test_size_bounds(xs, ys):
    c0 = GroundField.char0()
    A, B = ElemSet(c0, xs), ElemSet(c0, ys)
    s = combine(A, B, "add")
    assert max(len(A), len(B)) <= len(s) <= len(A) * len(B)


@settings(max_examples=30, deadline=None)
@given(small_sets, st.integers(1, 2), st.integers(0, 2))
def test_span_monotone_in_subset(xs, k, l):
    if k + l == 0:
        return
    c0 = GroundField.char0()
    A = ElemSet(c0, xs)
    Ap = ElemSet(c0, xs[: max(1, len(xs) // 2)])
    big = iterated_span(A, SpanSpec(k, l))
    small = iterated_span(Ap, SpanSpec(k, l))
    assert small.issubset(big)


@settings(max_examples=300, deadline=None)
@given(self_table_case())
def test_self_combine_matches_object_path(case):
    A, B, op = case
    pairs = _object_table(A, B.remove_zero() if op == "div" else B, op)
    assert combine(A, B, op) == ElemSet(A.field, pairs.keys())
