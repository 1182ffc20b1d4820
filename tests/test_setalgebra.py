import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import BudgetExceeded, ElemSet, GroundField, SpanSpec, \
    combine, iterated_span, rep_function, setalgebra
from sumprod.repfn import _object_table

from conftest import P31, edge_values, random_set, self_table_case, \
    traced_peak

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


def object_span(A, k, l):
    """kA - lA from every choice of k + l elements, by the field's ops."""
    F, out = A.field, set()
    for xs in itertools.product(list(A), repeat=k + l):
        v = 0
        for i, x in enumerate(xs):
            v = F.add(v, x) if i < k else F.sub(v, x)
        out.add(v)
    return ElemSet(F, out)


SPAN_SETS = {
    "F101": (GroundField.prime(101), [0, 1, 5, 17, 50, 99]),
    "F31": (GroundField.prime(P31),
            [0, 3, P31 - 3] + random.Random(5).sample(range(1, P31), 4)),
    "char0": (GroundField.char0(), [-7, 0, 2, 9, 40, 2**40]),
    "char0-fractions": (GroundField.char0(),
                        [Fraction(-1, 2), 0, Fraction(1, 3), 1, 4]),
}


def fold_span(A, k, l):
    """kA - lA as the left fold ((A + A) + ...) - A - ..., from {0} when
    k = 0: one table a step."""
    acc = A if k else ElemSet(A.field, [0])
    for op in ["add"] * max(k - 1, 0) + ["sub"] * l:
        acc = combine(acc, A, op)
    return acc


@pytest.mark.parametrize("k,l", [(0, 1), (0, 2), (0, 3), (1, 2), (2, 1),
                                 (3, 0), (1, 1), (2, 2), (3, 3), (3, 1),
                                 (1, 3), (4, 0), (0, 4), (2, 3)])
@pytest.mark.parametrize("name", list(SPAN_SETS))
def test_span_matches_object_path(name, k, l):
    # kA and lA by doubling, then one table kA - lA (a self-difference
    # when k = l), against every choice of k + l elements and against the
    # fold; the F_p sets hold 0 and sums that wrap at p
    F, xs = SPAN_SETS[name]
    A = ElemSet(F, xs)
    got = iterated_span(A, SpanSpec(k, l))
    assert got == object_span(A, k, l)
    assert got == fold_span(A, k, l)


def test_zero_plus_span_builds_one_table(c0):
    # {0} - A is a |A|-pair table, refused below that budget
    A = ElemSet(c0, range(10))
    assert sorted(iterated_span(A, SpanSpec(0, 1), budget=10)) == \
        list(range(-9, 1))
    with pytest.raises(BudgetExceeded):
        iterated_span(A, SpanSpec(0, 1), budget=9)


@settings(max_examples=40, deadline=None)
@given(small_sets, small_sets)
def test_size_bounds(xs, ys):
    c0 = GroundField.char0()
    A, B = ElemSet(c0, xs), ElemSet(c0, ys)
    s = combine(A, B, "add")
    assert max(len(A), len(B)) <= len(s) <= len(A) * len(B)


@settings(max_examples=30, deadline=None)
@given(small_sets, st.integers(0, 2), st.integers(0, 2))
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


@st.composite
def span_case(draw):
    field = draw(st.sampled_from([GroundField.char0(), GroundField.prime(3),
                                  GroundField.prime(101),
                                  GroundField.prime(P31)]))
    A = ElemSet(field, draw(st.lists(edge_values(field), max_size=5)))
    k, l = draw(st.sampled_from([(k, l) for k in range(5) for l in range(5)
                                 if 1 <= k + l <= 4]))
    return A, k, l


@settings(max_examples=150, deadline=None)
@given(span_case())
def test_span_matches_object_path_on_small_sets(case):
    A, k, l = case
    got = iterated_span(A, SpanSpec(k, l))
    assert got == object_span(A, k, l)
    assert got == fold_span(A, k, l)


def test_two_two_span_builds_two_self_tables_within_budget(monkeypatch, fp):
    # 2A - 2A is A+A and its self-difference, a mirrored half sub table of
    # |A+A|(|A+A| - 1)/2 pairs; the fold's last table was
    # |(A+A) - A| x |A|, 129,088 x 64 for a set like this one
    A = random_set(fp, 64, seed=27)
    want = fold_span(A, 2, 2)
    calls, real = [], setalgebra._table

    def spy(X, Y, op, *args, **kwargs):
        calls.append((X, Y, op))
        return real(X, Y, op, *args, **kwargs)

    monkeypatch.setattr(setalgebra, "_table", spy)
    got, peak = traced_peak(lambda: iterated_span(A, SpanSpec(2, 2)))
    assert got == want
    (X, Y, op), (X2, Y2, op2) = calls
    assert (op, op2) == ("add", "sub")
    assert X == A and Y == A
    assert len(X2) == 2080 and X2 == Y2
    # the self-difference's int64 buffer holds 2N + 1 = 4,322,161 slots
    # (34.6 MB);
    # under a profile or trace hook (the cProfile run) the values are
    # copied out of it instead of shrunk in place (see `_sorted_table`)
    hooked = sys.getprofile() is not None or sys.gettrace() is not None
    assert peak < 40 * 2**20 + (8 * len(got) if hooked else 0)
    budget = len(X2) ** 2
    assert iterated_span(A, SpanSpec(2, 2), budget=budget) == want
    with pytest.raises(BudgetExceeded, match="2080x2080"):
        iterated_span(A, SpanSpec(2, 2), budget=budget - 1)


def test_two_two_span_fits_where_the_fold_was_refused(fp):
    A = random_set(fp, 16, seed=3)
    doubled = combine(A, A, "add")
    budget = len(doubled) ** 2
    # the fold's last table, ((A+A) - A) x A, is over this budget
    assert len(combine(doubled, A, "sub")) * len(A) > budget
    assert iterated_span(A, SpanSpec(2, 2), budget=budget) == \
        object_span(A, 2, 2)
